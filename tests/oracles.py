"""Independent oracles used to derive the expected values frozen in tests.

Everything here is deliberately implemented apart from the package code:
arbitrary-precision arithmetic via mpmath, brute-force refinement, dense
scans and fixed-point iterations.  Frozen constants in the test modules
were produced by these functions; slow oracles are also invoked live where
the runtime is acceptable.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpf


def erf_series(z, dps: int = 30):
    """erf via its Maclaurin series in arbitrary precision:
    erf(z) = 2/sqrt(pi) * sum_n (-1)^n z^(2n+1) / (n! (2n+1))."""
    with mp.workdps(dps):
        z = mpf(z)
        total = mpf(0)
        term_pos = z
        fact = mpf(1)
        n = 0
        while True:
            term = (-1) ** n * z ** (2 * n + 1) / (fact * (2 * n + 1))
            total += term
            if abs(term) < mpf(10) ** (-(dps - 5)):
                break
            n += 1
            fact *= n
        return 2 / mp.sqrt(mp.pi) * total


def norm_cdf_series(x, dps: int = 30) -> float:
    """Normal CDF built on the series erf, independent of math.erfc."""
    with mp.workdps(dps):
        return float((1 + erf_series(mpf(x) / mp.sqrt(2), dps)) / 2)


def refine_integral(f, a: float, b: float, max_n: int = 1 << 20) -> float:
    """Adaptive-refinement quadrature: Simpson on doubling grids until the
    estimate stabilises (or max_n subintervals, ~1e6 by default)."""
    prev = None
    n = 64
    while n <= max_n:
        x = np.linspace(a, b, n + 1)
        y = np.asarray(f(x), dtype=float)
        h = (b - a) / n
        val = h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())
        if prev is not None and abs(val - prev) < 1e-14 * max(1.0, abs(val)):
            return float(val)
        prev = val
        n *= 2
    return float(prev)


def dottie_fixed_point() -> float:
    """Root of cos(x) = x by damped fixed-point iteration."""
    x = 0.7
    for _ in range(200):
        x = 0.5 * (x + math.cos(x))
    return x


def dense_scan_f2_max(gamma: float, points: int = 1_000_000) -> float:
    """Max of the second boundary kernel over zeta by brute-force log scan."""
    z = np.geomspace(1e-6, 1e4, points)
    a = 0.5 * (1 + gamma)
    b = 0.5 * (1 - gamma)
    f2 = (z * np.log(np.sqrt(a * a + z * z) / gamma) - b * np.arctan(z / a)) / (
        b * b + z * z
    )
    return float(f2.max())


def black_scholes_put_mp(S, E, r, sigma, tau, dps: int = 30) -> float:
    """Black-Scholes put in arbitrary precision with the series CDF."""
    with mp.workdps(dps):
        S, E, r, sigma, tau = (mpf(v) for v in (S, E, r, sigma, tau))
        d1 = (mp.log(S / E) + (r + sigma**2 / 2) * tau) / (sigma * mp.sqrt(tau))
        d2 = d1 - sigma * mp.sqrt(tau)
        ncdf = lambda x: (1 + erf_series(x / mp.sqrt(2), dps)) / 2
        return float(E * mp.exp(-r * tau) * ncdf(-d2) - S * ncdf(-d1))


def heat_kernel(x, tau: float, sigma: float):
    """G(x, tau) = exp(-x^2/(2 sigma^2 tau)) / sqrt(2 pi sigma^2 tau); unit
    mass over the real line for every tau > 0."""
    v = sigma * sigma * tau
    x = np.asarray(x, dtype=float)
    return np.exp(-(x * x) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)


def price_transform_consts(p) -> tuple[float, float]:
    """(alpha_p, beta_p) of the price-gap double integral, written out from
    the heat-equation transform of the Black-Scholes operator."""
    alpha_p = 0.5 - p.r / p.sigma**2
    beta_p = -0.5 * p.r - p.r**2 / (2.0 * p.sigma**2) - p.sigma**2 / 8.0
    return alpha_p, beta_p


def price_gap_full_rows(rho, rho_app, S, tau, p, cfg=None) -> float:
    """The price gap at spot S as the double heat-kernel integral

        r E int_0^tau | int_{ln(rho_app(xi)/E)}^{ln(rho(xi)/E)}
            G(x - s, tau - xi) e^{alpha_p (x - s) + beta_p (tau - xi)} ds | dxi,

    x = ln(S/E): one Python loop over the outer nodes (s = sqrt(tau - xi),
    Boole's rule), each inner integral by Boole's rule on its own
    np.linspace grid.  The package collapses the inner integral to a
    difference of normal CDFs; this route integrates the kernel numerically,
    so it converges to the package's value as cfg.finite_subintervals grows.
    """
    from putboundary.core import QuadratureConfig, _boole_weights, _eval_on_nodes

    cfg = cfg or QuadratureConfig()
    n = cfg.finite_subintervals
    E = p.strike
    alpha_p, beta_p = price_transform_consts(p)
    x = math.log(S / E)

    smax = math.sqrt(tau)
    st = np.linspace(0.0, smax, n + 1)
    xi = np.clip(tau - st * st, 0.0, tau)
    xi[0] = tau
    r_true = _eval_on_nodes(rho, xi)
    r_app = _eval_on_nodes(rho_app, xi)
    lo = np.log(r_app / E)
    hi = np.log(r_true / E)

    w_in = _boole_weights(n) / 45.0 * 2.0
    outer_vals = np.empty(n + 1)
    outer_vals[0] = 0.0
    for k in range(1, n + 1):
        wgt = st[k] * st[k]  # tau - xi
        a, b = lo[k], hi[k]
        if a == b:
            outer_vals[k] = 0.0
            continue
        z = x - np.linspace(a, b, n + 1)
        inner_vals = heat_kernel(z, wgt, p.sigma) * np.exp(alpha_p * z)
        inner = (b - a) / n * float(np.dot(w_in, inner_vals))
        outer_vals[k] = 2.0 * st[k] * math.exp(beta_p * wgt) * abs(inner)
    w_out = _boole_weights(n) * (2.0 * (smax / n) / 45.0)
    return p.r * E * float(np.dot(w_out, outer_vals))


def _zhu_kernels_nc(zeta: np.ndarray, gamma: float):
    a = 0.5 * (1.0 + gamma)
    b = 0.5 * (1.0 - gamma)
    a2z2 = a * a + zeta * zeta
    lg = np.log(np.sqrt(a2z2) / gamma)
    at = np.arctan(zeta / a)
    den = b * b + zeta * zeta
    with np.errstate(divide="ignore", invalid="ignore"):
        f1 = (b * lg + zeta * at) / den
        f2 = (zeta * lg - b * at) / den
    if b == 0.0:
        # gamma = 1: the 0/0 point zeta = 0 has the continuous limits
        # f1 -> arctan(z)/z -> 1, f2 -> ln(sqrt(1+z^2))/z -> 0
        f1 = np.where(den == 0.0, 1.0, f1)
        f2 = np.where(den == 0.0, 0.0, f2)
    return f1, f2


def _zhu_integrand_nc(p, tau: float):
    a = p.a
    gamma = p.gamma

    def f(zeta):
        z = np.asarray(zeta, dtype=float)
        f1, f2 = _zhu_kernels_nc(z, gamma)
        a2z2 = a * a + z * z
        return z * np.exp(-tau * 0.5 * p.sigma**2 * a2z2) / a2z2 * np.exp(-f1) * np.sin(f2)

    return f


def _integrate_semi_infinite_nc(f, z: float, n: int, cfg, block: int = 1 << 18) -> float:
    """Composite Newton-Cotes on [0, z] with n subintervals, in blocks of at
    most `block` subintervals so ~1e7 nodes never sit in memory at once,
    plus the tail bound from |f| at z and 1.1 z."""
    from dataclasses import replace

    from putboundary.core import TailTooHeavyError, integrate_newton_cotes

    result = 0.0
    for k0 in range(0, n, block):
        k1 = min(n, k0 + block)
        result += integrate_newton_cotes(
            f, z * k0 / n, z * k1 / n, replace(cfg, finite_subintervals=k1 - k0)
        )
    f0 = abs(float(f(z)))
    f1 = abs(float(f(1.1 * z)))
    if f0 == 0.0 and f1 == 0.0:
        tail = 0.0
    elif f1 >= f0:
        tail = math.inf
    else:
        rate = math.log(f0 / f1) / (0.1 * z) if f1 > 0 else math.inf
        tail = f0 / rate if math.isfinite(rate) else 0.0
    if not tail < 10.0 * cfg.root_tol:
        raise TailTooHeavyError(f"tail bound {tail:.3e} beyond Z={z:g}")
    return result


def _zhu_nc_grid(p, tau: float, cfg, sigmas: float):
    # Gaussian damping reaches e^(-sigmas^2/2) at Z = sigmas/(sigma sqrt(tau));
    # resolve the peak near zeta ~ a with a fixed step of 0.02
    z = max(cfg.semi_inf_truncation, sigmas / (p.sigma * math.sqrt(tau)))
    n = max(cfg.finite_subintervals, 4 * math.ceil(z / (4.0 * 0.02)))
    return z, n


def rho_zhu_newton_cotes(tau: float, p, cfg=None) -> float:
    """The integral formula by composite Newton-Cotes in zeta at a fixed
    step of 0.02 out to 8/(sigma sqrt(tau)): the reference for the
    log-substituted trapezoid rule in the package (tau >= 1e-6 only)."""
    from putboundary.core import QuadratureConfig

    cfg = cfg or QuadratureConfig()
    z, n = _zhu_nc_grid(p, tau, cfg, 8.0)
    integral = _integrate_semi_infinite_nc(_zhu_integrand_nc(p, tau), z, n, cfg)
    return p.perpetual_boundary + (2.0 * p.strike / math.pi) * integral


def zhu_second_derivative_newton_cotes(tau: float, p, cfg=None) -> float:
    """d^2 rho / d tau^2 of the integral formula by the same Newton-Cotes
    rule, out to 11/(sigma sqrt(tau))."""
    from putboundary.core import QuadratureConfig

    cfg = cfg or QuadratureConfig()
    base = _zhu_integrand_nc(p, tau)
    a = p.a

    def f(zeta):
        z = np.asarray(zeta, dtype=float)
        return (a * a + z * z) ** 2 * base(z)

    z, n = _zhu_nc_grid(p, tau, cfg, 11.0)
    integral = _integrate_semi_infinite_nc(f, z, n, cfg)
    return (2.0 * p.strike * p.sigma**4 / (4.0 * math.pi)) * integral


def psor_sor_levels(p, cfg, tol: float, max_sweeps: int = 100_000) -> np.ndarray:
    """The Crank-Nicolson march of psor.psor_solve with each level's LCP
    solved by projected SOR: Gauss-Seidel sweeps relaxed by cfg.omega, each
    update clipped to the payoff, warm-started from the previous level and
    stopped once no component moves by more than tol.  The reference for
    the exact Brennan-Schwartz step in the package; returns the u grid."""
    alpha = p.r / p.sigma**2 - 0.5
    beta = 0.5 * p.r + p.sigma**2 / 8.0 + p.r**2 / (2.0 * p.sigma**2)
    lam = p.sigma**2 * cfg.k / (2.0 * cfg.h * cfg.h)
    half, diag, omega = 0.5 * lam, 1.0 + lam, cfg.omega
    x = np.linspace(-cfg.L, cfg.L, 2 * cfg.n + 1)
    obstacle = np.exp(alpha * x) * np.maximum(1.0 - np.exp(x), 0.0)
    U = np.empty((x.size, cfg.m + 1))
    U[:, 0] = obstacle
    for j in range(1, cfg.m + 1):
        g = (obstacle * math.exp(beta * (j * cfg.k))).tolist()
        prev = U[:, j - 1]
        rhs = np.zeros_like(prev)
        rhs[1:-1] = half * (prev[:-2] + prev[2:]) + (1.0 - lam) * prev[1:-1]
        rl = rhs.tolist()
        u = prev.tolist()
        u[0], u[-1] = g[0], 0.0
        for _ in range(max_sweeps):
            delta = 0.0
            left = u[0]
            for i in range(1, len(u) - 1):
                ui = u[i]
                new = ui + omega * ((rl[i] + half * (left + u[i + 1])) / diag - ui)
                if new < g[i]:
                    new = g[i]
                if abs(new - ui) > delta:
                    delta = abs(new - ui)
                u[i] = left = new
            if delta < tol:
                break
        else:
            raise RuntimeError(f"SOR oracle did not converge at level {j}")
        U[:, j] = u
    return U


def psor_brennan_schwartz_levels(p, cfg) -> np.ndarray:
    """The Crank-Nicolson march of psor.psor_solve with each level's
    Brennan-Schwartz step as two plain Python loops: elimination from right
    to left, r'_i = r_i + (c/d'_{i+1}) r'_{i+1}, then the substitution from
    left to right, u_i = max((r'_i + c u_{i-1})/d'_i, g_i).  The reference
    for the prefix scans in the package; returns the u grid."""
    alpha = p.r / p.sigma**2 - 0.5
    beta = 0.5 * p.r + p.sigma**2 / 8.0 + p.r**2 / (2.0 * p.sigma**2)
    lam = p.sigma**2 * cfg.k / (2.0 * cfg.h * cfg.h)
    c = 0.5 * lam
    x = np.linspace(-cfg.L, cfg.L, 2 * cfg.n + 1)
    obstacle = np.exp(alpha * x) * np.maximum(1.0 - np.exp(x), 0.0)
    last = 2 * cfg.n - 1
    dp = [0.0] * (2 * cfg.n + 1)
    dp[last] = 1.0 + lam
    for i in range(last - 1, 0, -1):
        dp[i] = 1.0 + lam - c * c / dp[i + 1]
    ratio = [c / dp[i + 1] for i in range(last)]
    U = np.empty((x.size, cfg.m + 1))
    U[:, 0] = obstacle
    for j in range(1, cfg.m + 1):
        g = (obstacle * math.exp(beta * (j * cfg.k))).tolist()
        prev = U[:, j - 1]
        rhs = np.zeros_like(prev)
        rhs[1:-1] = c * (prev[:-2] + prev[2:]) + (1.0 - lam) * prev[1:-1]
        r = rhs.tolist()
        for i in range(last - 1, 0, -1):
            r[i] += ratio[i] * r[i + 1]
        left = r[0] = g[0]
        for i in range(1, last + 1):
            v = (r[i] + c * left) / dp[i]
            left = r[i] = v if v > g[i] else g[i]
        U[:, j] = r
    return U
