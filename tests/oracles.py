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


def integrate_newton_cotes(f, a: float, b: float, n: int = 1000) -> float:
    """Composite closed fourth-degree Newton-Cotes (Boole) rule on [a, b]
    with n subintervals, a multiple of 4, on the package's Boole weights.

    Exact for polynomials of degree <= 5 on each panel.  Raises
    QuadratureNodeError naming the offending abscissa if the integrand
    produces a non-finite value anywhere on the grid.
    """
    from putboundary.core import (
        DomainError,
        QuadratureNodeError,
        _boole_weights,
        _eval_on_nodes,
    )

    if not a <= b:
        raise DomainError(f"invalid interval [{a}, {b}]")
    if a == b:
        return 0.0
    x = np.linspace(a, b, n + 1)
    y = _eval_on_nodes(f, x)
    bad = ~np.isfinite(y)
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureNodeError(float(x[i]), float(y[i]))
    h = (b - a) / n
    return float((2.0 * h / 45.0) * np.dot(_boole_weights(n), y))


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


def price_gap_full_rows(rho, rho_app, S, tau, p, n: int = 1000) -> float:
    """The price gap at spot S as the double heat-kernel integral

        r E int_0^tau | int_{ln(rho_app(xi)/E)}^{ln(rho(xi)/E)}
            G(x - s, tau - xi) e^{alpha_p (x - s) + beta_p (tau - xi)} ds | dxi,

    x = ln(S/E): one Python loop over the package's outer nodes
    (xi = tau sin^2 theta, from pricing._gap_nodes), each inner integral by
    Boole's rule on its own np.linspace grid of n subintervals.  The package
    collapses the inner integral to a difference of normal CDFs; this route
    integrates the kernel numerically, so it converges to the package's
    value as n grows.
    """
    from putboundary import pricing
    from putboundary.core import _boole_weights, _eval_on_nodes

    E = p.strike
    alpha_p, beta_p = price_transform_consts(p)
    x = math.log(S / E)

    sin2, cos, w_out = pricing._gap_nodes(pricing._GAP_PANELS)
    xi = tau * sin2
    lo = np.log(_eval_on_nodes(rho_app, xi) / E)
    hi = np.log(_eval_on_nodes(rho, xi) / E)

    w_in = _boole_weights(n) / 45.0 * 2.0
    outer_vals = np.zeros(xi.size)
    for k in range(xi.size):
        wgt = tau * cos[k] * cos[k]  # tau - xi
        a, b = lo[k], hi[k]
        if a == b:
            continue
        z = x - np.linspace(a, b, n + 1)
        inner_vals = heat_kernel(z, wgt, p.sigma) * np.exp(alpha_p * z)
        inner = (b - a) / n * float(np.dot(w_in, inner_vals))
        outer_vals[k] = math.exp(beta_p * wgt) * abs(inner)
    return p.r * E * tau * float(np.dot(w_out, outer_vals))


def _curve_values(f, x: np.ndarray) -> np.ndarray:
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([float(f(v)) for v in x.tolist()])


def price_gap_split(rho, rho_app, S, tau, p, knots=(), panels: int = 256, scan: int = 16):
    """The price gap at spot S, r E int_0^tau e^{-r(tau-xi)} |N(gamma_app) - N(gamma)| dxi,
    in theta with xi = tau sin^2 theta: `panels` equal panels on [0, pi/2],
    split further at each knot in xi (a truth's mesh nodes, where it has
    kinks) and at every crossing rho = rho_app (a kink of the integrand),
    then 10-point Gauss-Legendre on 4 equal sub-panels of each piece, so
    that no piece holds a kink.  A crossing is a sign change of
    rho - rho_app on `scan` equal steps of a piece, refined by 60
    bisections; two crossings within one step are missed.  N is written with
    math.erfc.  The reference for the equal panels of pricing.price_gap_full."""
    inside = [math.asin(math.sqrt(k / tau)) for k in knots if 0.0 < k < tau]
    edges = np.union1d(np.linspace(0.0, math.pi / 2.0, panels + 1), inside)
    steps = np.arange(scan) / scan
    t = np.append((edges[:-1, None] + np.diff(edges)[:, None] * steps).ravel(), math.pi / 2.0)
    xi = tau * np.sin(t) ** 2
    d = _curve_values(rho, xi) - _curve_values(rho_app, xi)

    def diff(theta):
        xi = tau * math.sin(theta) ** 2
        return float(rho(xi)) - float(rho_app(xi))

    cuts = edges.tolist()
    for i in np.nonzero(d[:-1] * d[1:] < 0.0)[0].tolist():
        lo, hi, d_lo = t[i], t[i + 1], d[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            d_mid = diff(mid)
            if (d_mid < 0.0) == (d_lo < 0.0):
                lo, d_lo = mid, d_mid
            else:
                hi = mid
        cuts.append(0.5 * (lo + hi))
    cuts = np.sort(cuts)
    ends = cuts[:-1, None] + np.diff(cuts)[:, None] * np.linspace(0.0, 1.0, 5)
    lo, hi = ends[:, :4].ravel(), ends[:, 1:].ravel()
    x, w = np.polynomial.legendre.leggauss(10)
    theta = (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * x).ravel()
    weight = (0.5 * (hi - lo)[:, None] * w).ravel()

    xi, s = tau * np.sin(theta) ** 2, math.sqrt(tau) * np.cos(theta)
    drift = p.r - 0.5 * p.sigma**2
    g_app = (np.log(S / _curve_values(rho_app, xi)) + drift * s * s) / (p.sigma * s)
    g_true = (np.log(S / _curve_values(rho, xi)) + drift * s * s) / (p.sigma * s)
    ncdf = lambda g: np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in g.tolist()])
    vals = 2.0 * tau * np.sin(theta) * np.cos(theta) * np.exp(-p.r * s * s)
    vals *= np.abs(ncdf(g_app) - ncdf(g_true))
    return p.r * p.strike * float(np.dot(weight, vals))


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


def _integrate_semi_infinite_nc(f, z: float, n: int, tol: float, block: int = 1 << 18) -> float:
    """Composite Newton-Cotes on [0, z] with n subintervals, in blocks of at
    most `block` subintervals so ~1e7 nodes never sit in memory at once,
    plus the tail bound from |f| at z and 1.1 z, which must stay below tol."""
    from putboundary.core import TailTooHeavyError

    result = 0.0
    for k0 in range(0, n, block):
        k1 = min(n, k0 + block)
        result += integrate_newton_cotes(f, z * k0 / n, z * k1 / n, k1 - k0)
    f0 = abs(float(f(z)))
    f1 = abs(float(f(1.1 * z)))
    if f0 == 0.0 and f1 == 0.0:
        tail = 0.0
    elif f1 >= f0:
        tail = math.inf
    else:
        rate = math.log(f0 / f1) / (0.1 * z) if f1 > 0 else math.inf
        tail = f0 / rate if math.isfinite(rate) else 0.0
    if not tail < tol:
        raise TailTooHeavyError(f"tail bound {tail:.3e} beyond Z={z:g}")
    return result


#: least upper limit substituted for infinity in the Newton-Cotes reference
_ZHU_NC_TRUNCATION = 50.0


def _zhu_nc_grid(p, tau: float, n_min: int, sigmas: float):
    # Gaussian damping reaches e^(-sigmas^2/2) at Z = sigmas/(sigma sqrt(tau));
    # resolve the peak near zeta ~ a with a fixed step of 0.02
    z = max(_ZHU_NC_TRUNCATION, sigmas / (p.sigma * math.sqrt(tau)))
    n = max(n_min, 4 * math.ceil(z / (4.0 * 0.02)))
    return z, n


def rho_zhu_newton_cotes(tau: float, p, n: int = 1000, tol: float = 1e-9) -> float:
    """The integral formula by composite Newton-Cotes in zeta at a fixed
    step of 0.02 (at least n subintervals) out to 8/(sigma sqrt(tau)), with
    the tail bound below tol: the reference for the log-substituted
    trapezoid rule in the package (tau >= 1e-6 only)."""
    z, n = _zhu_nc_grid(p, tau, n, 8.0)
    integral = _integrate_semi_infinite_nc(_zhu_integrand_nc(p, tau), z, n, tol)
    return p.perpetual_boundary + (2.0 * p.strike / math.pi) * integral


def zhu_second_derivative_newton_cotes(tau: float, p, n: int = 1000, tol: float = 1e-9) -> float:
    """d^2 rho / d tau^2 of the integral formula by the same Newton-Cotes
    rule, out to 11/(sigma sqrt(tau))."""
    base = _zhu_integrand_nc(p, tau)
    a = p.a

    def f(zeta):
        z = np.asarray(zeta, dtype=float)
        return (a * a + z * z) ** 2 * base(z)

    z, n = _zhu_nc_grid(p, tau, n, 11.0)
    integral = _integrate_semi_infinite_nc(f, z, n, tol)
    return (2.0 * p.strike * p.sigma**4 / (4.0 * math.pi)) * integral


def psor_sor_levels(p, cfg, tol: float, max_sweeps: int = 100_000) -> np.ndarray:
    """The Crank-Nicolson march of psor.psor_solve on the unscaled levels
    u_j = e^{beta tau_j} w_j, obstacle e^{beta tau_j} g, with each level's LCP
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
    """The Crank-Nicolson march of psor.psor_solve over the scaled levels
    w_j = e^{-beta tau_j} u_j, right-hand side times e^{-beta k} and one
    fixed obstacle g, with each level's Brennan-Schwartz step as two plain
    Python loops: elimination from right to left,
    r'_i = r_i + (c/d'_{i+1}) r'_{i+1}, then the substitution from left to
    right, w_i = max((r'_i + c w_{i-1})/d'_i, g_i).  The reference for the
    prefix scans in the package; returns the w grid."""
    alpha = p.r / p.sigma**2 - 0.5
    beta = 0.5 * p.r + p.sigma**2 / 8.0 + p.r**2 / (2.0 * p.sigma**2)
    lam = p.sigma**2 * cfg.k / (2.0 * cfg.h * cfg.h)
    c = 0.5 * lam
    decay = math.exp(-beta * cfg.k)
    x = np.linspace(-cfg.L, cfg.L, 2 * cfg.n + 1)
    obstacle = np.exp(alpha * x) * np.maximum(1.0 - np.exp(x), 0.0)
    g = obstacle.tolist()
    last = 2 * cfg.n - 1
    dp = [0.0] * (2 * cfg.n + 1)
    dp[last] = 1.0 + lam
    for i in range(last - 1, 0, -1):
        dp[i] = 1.0 + lam - c * c / dp[i + 1]
    ratio = [c / dp[i + 1] for i in range(last)]
    U = np.empty((x.size, cfg.m + 1))
    U[:, 0] = obstacle
    for j in range(1, cfg.m + 1):
        prev = U[:, j - 1]
        rhs = np.zeros_like(prev)
        rhs[1:-1] = c * decay * (prev[:-2] + prev[2:]) + (1.0 - lam) * decay * prev[1:-1]
        r = rhs.tolist()
        for i in range(last - 1, 0, -1):
            r[i] += ratio[i] * r[i + 1]
        left = r[0] = g[0]
        for i in range(1, last + 1):
            v = (r[i] + c * left) / dp[i]
            left = r[i] = v if v > g[i] else g[i]
        U[:, j] = r
    return U


def ssch_bracket_eta_at(taus, etas, i, p, tol: float = 1e-10) -> float:
    """eta at node i >= 2 of an ssch path with etas[1:i] solved, by the
    bracketed root finder alone: H(eta) = eta^2 + ln A(eta), -inf where
    A <= 0, on a bracket of half-width 0.05 around the previous node's value
    that doubles up to 8 times until it encloses a sign change, then Brent's
    method, whose root must leave |H| <= tol.  The reference for the Newton
    steps of ssch._solve_node."""
    import functools

    from putboundary import ssch
    from putboundary.core import BracketError, find_root_bracketed

    tau_i = float(taus[i])
    st = ssch._theta_nodes()[0]
    F = ssch._f_of_eta(tau_i, *ssch._sample(taus, etas, i, tau_i * st * st, p), p)

    log_c = ssch._log_eta_argument(tau_i, p) - math.log(2.0)

    @functools.cache
    def H(eta):
        return eta * eta + ssch._log_a(F(eta)[0], log_c)

    prev = float(etas[i - 1])
    for doublings in range(9):  # half-widths 0.05 to 12.8
        lo, hi = prev - 0.05 * 2.0**doublings, prev + 0.05 * 2.0**doublings
        if min(H(lo), H(hi)) <= 0.0 <= max(H(lo), H(hi)):
            break
    else:
        raise BracketError(f"node {i}: no sign change on [{lo:.6g}, {hi:.6g}]")
    eta = find_root_bracketed(H, lo, hi)
    if not abs(H(eta)) <= tol:
        raise ssch.LogDomainError(f"node {i}: converged point invalid, residual {H(eta)!r}")
    return eta


def ssch_bracket_boundary(p, T: float, m: int) -> np.ndarray:
    """rho at every node of ssch's quadratic mesh on [0, T]: node 1 from
    the closed small-tau formula, every later node by ssch_bracket_eta_at."""
    from putboundary import ssch

    taus = ssch.build_mesh(T, m, ssch.MeshKind.QUADRATIC, p).taus
    etas = np.full(m + 1, math.nan)
    etas[1] = ssch.eta_lowest_order(float(taus[1]), p)
    for i in range(2, m + 1):
        etas[i] = ssch_bracket_eta_at(taus, etas, i, p)
    taus, etas = taus[1:], etas[1:]
    rhos = p.strike * np.exp(
        -(p.r - 0.5 * p.sigma**2) * taus + p.sigma * np.sqrt(2.0 * taus) * etas
    )
    return np.concatenate(([p.strike], rhos))


def psor_extract_levels(sol, contact_tol=1e-8) -> np.ndarray:
    """rho at every time level of a psor solution, one level at a time:
    the gap u[:, j] e^{-alpha x} - payoff, the first node detached by more than
    contact_tol and linear interpolation of the gap across the cell before
    it.  The reference for the one-pass psor.extract_boundary; raises its
    NoContactError, with its message, at the first level whose contact
    region stops at the pinned edge node."""
    from putboundary.psor import NoContactError

    x = sol.x
    payoff = sol.payoff_rel()
    E = sol.params.strike
    rhos = np.empty(sol.taus.size)
    rhos[0] = E
    for j in range(1, sol.taus.size):
        gap = sol.u[:, j] * np.exp(-sol.alpha * x) - payoff
        detached = gap > contact_tol
        if not detached.any():
            rhos[j] = E
            continue
        ifd = int(np.argmax(detached))
        if ifd <= 1:
            cfg = sol.config
            raise NoContactError(
                f"level {j}: contact region does not reach past the left edge at "
                f"tau={sol.taus[j]:g} on the grid L={cfg.L:g}, n={cfg.n}, m={cfg.m}"
            )
        ic = ifd - 1
        g0, g1 = float(gap[ic]), float(gap[ifd])
        xf = x[ic] + (contact_tol - g0) / (g1 - g0) * (x[ifd] - x[ic])
        rhos[j] = E * math.exp(xf)
    return rhos
