"""European pricing, price-gap integrals and relative error metrics.

Holding the payoff region of an approximate boundary instead of the true
one misprices the option.  With both curves known the price difference has
a closed Green's-function representation (no PDE solve needed):

    V_true(S, t) - V_approx(S, t)
        = r E int_0^tau | int_{ln(rho_app(xi)/E)}^{ln(rho(xi)/E)}
              G(x - s, tau - xi) e^{alpha_p (x - s) + beta_p (tau - xi)} ds | dxi

with x = ln(S/E), G the heat kernel, alpha_p = 1/2 - r/sigma^2 and
beta_p = -r/2 - r^2/(2 sigma^2) - sigma^2/8.  Evaluated exactly at the true
boundary the inner integral collapses to a difference of normal CDFs:

    r E int_0^tau e^{-r (tau - xi)} | N(gamma_app) - N(gamma) | dxi,
    gamma_app = [ln(rho(tau)/rho_app(xi)) + (r - sigma^2/2)(tau - xi)] / (sigma sqrt(tau - xi))

and gamma is the same expression with rho(xi) in place of rho_app(xi).
Both routes are implemented independently; their agreement at the boundary
is one of the package's cross checks.  The integrable endpoint singularity
at xi -> tau is removed by substituting s = sqrt(tau - xi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    MarketParams,
    QuadratureConfig,
    _boole_weights,
    _eval_on_nodes,
    norm_cdf,
    norm_cdf_array,
)

__all__ = [
    "PriceTransformConsts",
    "DegenerateDenominatorError",
    "green_kernel",
    "european_put",
    "price_gap_at_boundary",
    "price_gap_full",
    "mispricing_err",
    "boundary_rel_err",
]

#: outer nodes whose inner integrals price_gap_full evaluates as one block;
#: its temporaries hold GAP_BLOCK_ROWS x (finite_subintervals + 1) floats
GAP_BLOCK_ROWS = 16


class DegenerateDenominatorError(DomainError):
    """The premium of early exercise over the European floor underflowed."""


@dataclass(frozen=True)
class PriceTransformConsts:
    """Heat-equation transform constants used by the price-gap formulas.

    Sign-flipped partners of the benchmark solver's pair: alpha_p = -alpha,
    beta_p = -beta.
    """

    alpha_p: float
    beta_p: float

    @classmethod
    def from_params(cls, p: MarketParams) -> "PriceTransformConsts":
        return cls(
            alpha_p=0.5 - p.r / p.sigma**2,
            beta_p=-0.5 * p.r - p.r**2 / (2.0 * p.sigma**2) - p.sigma**2 / 8.0,
        )


def green_kernel(x, tau: float, sigma: float):
    """Heat kernel G(x, tau) = exp(-x^2/(2 sigma^2 tau)) / sqrt(2 pi sigma^2 tau);
    integrates to 1 over the real line for every tau > 0."""
    if not tau > 0:
        raise DomainError(f"tau must be positive, got {tau}")
    v = sigma * sigma * tau
    x = np.asarray(x, dtype=float)
    out = np.exp(-(x * x) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
    return float(out) if out.ndim == 0 else out


def european_put(S: float, tau: float, p: MarketParams) -> float:
    """Black-Scholes put E e^{-r tau} N(-d2) - S N(-d1); payoff at tau = 0."""
    if not S > 0:
        raise DomainError(f"price must be positive, got S={S}")
    if tau < 0:
        raise DomainError(f"tau must be nonnegative, got {tau}")
    E = p.strike
    if tau == 0.0:
        return max(E - S, 0.0)
    sq = p.sigma * math.sqrt(tau)
    d1 = (math.log(S / E) + (p.r + 0.5 * p.sigma**2) * tau) / sq
    d2 = d1 - sq
    return E * math.exp(-p.r * tau) * norm_cdf(-d2) - S * norm_cdf(-d1)


def price_gap_at_boundary(
    rho,
    rho_app,
    tau: float,
    p: MarketParams,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Price shortfall at the true boundary point from holding rho_app.

    r E int_0^tau e^{-r(tau-xi)} |N(gamma_app) - N(gamma)| dxi with the
    endpoint handled by the s = sqrt(tau - xi) substitution; identically 0
    when the curves coincide and nonnegative always.
    """
    if not tau > 0:
        raise DomainError(f"tau must be positive, got {tau}")
    cfg = cfg or QuadratureConfig()
    n = cfg.finite_subintervals
    E = p.strike
    drift = p.r - 0.5 * p.sigma**2

    smax = math.sqrt(tau)
    s = np.linspace(0.0, smax, n + 1)
    xi = np.clip(tau - s * s, 0.0, tau)
    xi[0] = tau  # exact despite rounding
    rho_tau = float(np.asarray(rho(tau), dtype=float))
    r_true = _eval_on_nodes(rho, xi)
    r_app = _eval_on_nodes(rho_app, xi)
    if np.any(r_true <= 0) or np.any(r_app <= 0):
        raise DomainError("boundary curves must be positive on [0, tau]")

    with np.errstate(divide="ignore", invalid="ignore"):
        g_app = (np.log(rho_tau / r_app) + drift * s * s) / (p.sigma * s)
        g_true = (np.log(rho_tau / r_true) + drift * s * s) / (p.sigma * s)
    vals = 2.0 * s * np.exp(-p.r * s * s) * np.abs(norm_cdf_array(g_app) - norm_cdf_array(g_true))
    vals[0] = 0.0  # integrand vanishes like s at the substituted endpoint
    w = _boole_weights(n) * (2.0 * (smax / n) / 45.0)
    return p.r * E * float(np.dot(w, vals))


def price_gap_full(
    rho,
    rho_app,
    S: float,
    tau: float,
    p: MarketParams,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Price difference at an arbitrary point via the double heat-kernel integral.

    Nested finite quadrature: the inner integral runs over the strip between
    the two log-boundaries at each past time xi, the outer one over xi with
    the sqrt(tau - xi) substitution.  Kept independent of
    price_gap_at_boundary on purpose; the two must agree when S sits on the
    true boundary.

    Cost: each curve is called once on all n + 1 outer nodes when it takes
    arrays, and once per node when it only takes scalars (such as a closed
    form wrapped to return the strike at tau == 0).  The inner integrals run
    in fixed blocks of GAP_BLOCK_ROWS outer nodes, each one 2-D numpy
    expression, so peak memory stays flat in n.
    """
    if not tau > 0:
        raise DomainError(f"tau must be positive, got {tau}")
    if not S > 0:
        raise DomainError(f"price must be positive, got S={S}")
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
    if np.any(r_true <= 0) or np.any(r_app <= 0):
        raise DomainError("boundary curves must be positive on [0, tau]")
    lo = np.log(r_app / E)
    hi = np.log(r_true / E)

    # the inner rule for GAP_BLOCK_ROWS outer nodes at once, one row per node:
    # abscissae j*step + a with the last set to b, as np.linspace builds them
    w_in = _boole_weights(n) / 45.0 * 2.0
    j = np.arange(n + 1, dtype=float)
    outer_vals = np.zeros(n + 1)
    for k0 in range(1, n + 1, GAP_BLOCK_ROWS):
        rows = slice(k0, min(k0 + GAP_BLOCK_ROWS, n + 1))
        a, b = lo[rows], hi[rows]
        wgt = st[rows] * st[rows]  # tau - xi
        sg = j * ((b - a) / n)[:, None] + a[:, None]
        sg[:, -1] = b
        z = x - sg
        var = (p.sigma * p.sigma * wgt)[:, None]
        inner_vals = np.exp(-(z * z) / (2.0 * var) + consts.alpha_p * z) / np.sqrt(
            2.0 * math.pi * var
        )
        inner = (b - a) / n * (inner_vals @ w_in)
        inner[a == b] = 0.0
        outer_vals[rows] = 2.0 * st[rows] * np.exp(consts.beta_p * wgt) * np.abs(inner)
    w_out = _boole_weights(n) * (2.0 * (smax / n) / 45.0)
    return p.r * E * float(np.dot(w_out, outer_vals))


def mispricing_err(
    rho,
    rho_app,
    tau: float,
    p: MarketParams,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Price gap at the boundary normalised by the early-exercise premium.

    The denominator uses the exact contact value V_true(boundary) = E - rho
    minus the European put there; it collapses as tau -> 0, in which case
    DegenerateDenominatorError is raised rather than returning noise.
    """
    if not tau > 0:
        raise DomainError(f"tau must be positive, got {tau}")
    rho_tau = float(np.asarray(rho(tau), dtype=float))
    denom = (p.strike - rho_tau) - european_put(rho_tau, tau, p)
    if denom <= 1e-14 * p.strike:
        raise DegenerateDenominatorError(
            f"early-exercise premium {denom:.3e} at tau={tau:g} too small to normalise by"
        )
    return price_gap_at_boundary(rho, rho_app, tau, p, cfg) / denom


def boundary_rel_err(rho, rho_app, tau: float) -> float:
    """Signed relative boundary gap (rho - rho_app)/rho at one tau."""
    rho_tau = float(np.asarray(rho(tau), dtype=float))
    app_tau = float(np.asarray(rho_app(tau), dtype=float))
    if not rho_tau > 0:
        raise DomainError(f"benchmark boundary must be positive, got {rho_tau}")
    return (rho_tau - app_tau) / rho_tau
