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


def price_gap_full_rows(rho, rho_app, S, tau, p, cfg=None) -> float:
    """pricing.price_gap_full as one Python loop over the outer nodes, each
    inner integral on its own np.linspace grid: the reference for the
    blocked evaluation in the package."""
    from putboundary.core import QuadratureConfig, _boole_weights, _eval_on_nodes
    from putboundary.pricing import PriceTransformConsts

    cfg = cfg or QuadratureConfig()
    n = cfg.finite_subintervals
    E = p.strike
    consts = PriceTransformConsts.from_params(p)
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
        sg = np.linspace(a, b, n + 1)
        z = x - sg
        var = p.sigma * p.sigma * wgt
        inner_vals = (
            np.exp(-(z * z) / (2.0 * var) + consts.alpha_p * z)
            / math.sqrt(2.0 * math.pi * var)
        )
        inner = (b - a) / n * float(np.dot(w_in, inner_vals))
        outer_vals[k] = 2.0 * st[k] * math.exp(consts.beta_p * wgt) * abs(inner)
    w_out = _boole_weights(n) * (2.0 * (smax / n) / 45.0)
    return p.r * E * float(np.dot(w_out, outer_vals))
