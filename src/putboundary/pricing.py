"""European pricing, price-gap integrals and relative error metrics.

Holding the payoff region of an approximate boundary instead of the true
one misprices the option.  With both curves known the price difference has
a closed Green's-function representation (no PDE solve needed):

    V_true(S, t) - V_approx(S, t)
        = r E int_0^tau | int_{ln(rho_app(xi)/E)}^{ln(rho(xi)/E)}
              G(x - s, tau - xi) e^{alpha_p (x - s) + beta_p (tau - xi)} ds | dxi

with x = ln(S/E), G the heat kernel, alpha_p = 1/2 - r/sigma^2 and
beta_p = -r/2 - r^2/(2 sigma^2) - sigma^2/8.  Since
beta_p + alpha_p^2 sigma^2 / 2 = -r, completing the square gives
G(z, w) e^{alpha_p z + beta_p w} = e^{-r w} G(z + (r - sigma^2/2) w, w), so
at every spot S the inner integral is a difference of normal CDFs:

    r E int_0^tau e^{-r (tau - xi)} | N(gamma_app) - N(gamma) | dxi,
    gamma_app = [ln(S/rho_app(xi)) + (r - sigma^2/2)(tau - xi)] / (sigma sqrt(tau - xi))

and gamma is the same expression with rho(xi) in place of rho_app(xi).
At the true boundary S = rho(tau).  The integrable endpoint singularity
at xi -> tau is removed by substituting s = sqrt(tau - xi).  The double
integral itself, with its own numeric inner quadrature, is the independent
reference in tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DomainError,
    MarketParams,
    _boole_weights,
    _eval_on_nodes,
    norm_cdf,
)

__all__ = [
    "DegenerateDenominatorError",
    "european_put",
    "price_gap_at_boundary",
    "price_gap_full",
    "mispricing_err",
    "boundary_rel_err",
]


#: subintervals of the Boole rule in s = sqrt(tau - xi)
_GAP_SUBINTERVALS = 1000


class DegenerateDenominatorError(DomainError):
    """The premium of early exercise over the European floor underflowed."""


def european_put(S: float, tau: float, p: MarketParams) -> float:
    """Black-Scholes put E e^{-r tau} N(-d2) - S N(-d1); payoff at tau = 0."""
    if not S > 0:
        raise DomainError(f"price must be positive, got S={S}")
    if tau < 0:
        raise DomainError(f"tau must be nonnegative, got {tau}")
    if not (math.isfinite(S) and math.isfinite(tau)):
        raise DomainError(f"price and tau must be finite, got S={S}, tau={tau}")
    E = p.strike
    if tau == 0.0:
        return max(E - S, 0.0)
    sq = p.sigma * math.sqrt(tau)
    d1 = (math.log(S / E) + (p.r + 0.5 * p.sigma**2) * tau) / sq
    d2 = d1 - sq
    return E * math.exp(-p.r * tau) * norm_cdf(-d2) - S * norm_cdf(-d1)


def _check_positive_finite(name: str, value: float):
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")


def price_gap_at_boundary(rho, rho_app, tau: float, p: MarketParams) -> float:
    """Price shortfall at the true boundary point from holding rho_app:
    price_gap_full at S = rho(tau)."""
    _check_positive_finite("tau", tau)
    return price_gap_full(rho, rho_app, float(rho(tau)), tau, p)


def price_gap_full(rho, rho_app, S: float, tau: float, p: MarketParams) -> float:
    """Price difference at spot S from holding rho_app instead of rho.

    r E int_0^tau e^{-r(tau-xi)} |N(gamma_app) - N(gamma)| dxi with the
    endpoint handled by the s = sqrt(tau - xi) substitution and Boole's
    rule in s; identically 0 when the curves coincide and nonnegative always.
    The last node is expiry, where both curves equal the strike, so each
    curve is evaluated only on the n nodes before it: once on all of them
    when it takes arrays, and once per node when it only takes scalars.
    tau, S and every node value must be positive and finite.
    """
    _check_positive_finite("tau", tau)
    _check_positive_finite("price", S)
    n = _GAP_SUBINTERVALS
    drift = p.r - 0.5 * p.sigma**2

    smax = math.sqrt(tau)
    s = np.linspace(0.0, smax, n + 1)
    xi = tau - s[:-1] * s[:-1]
    r_true = np.append(_eval_on_nodes(rho, xi), p.strike)
    r_app = np.append(_eval_on_nodes(rho_app, xi), p.strike)
    if not np.all((0 < r_true) & (r_true < np.inf) & (0 < r_app) & (r_app < np.inf)):
        raise DomainError("boundary curves must be positive and finite on (0, tau]")

    with np.errstate(divide="ignore", invalid="ignore"):
        g_app = (np.log(S / r_app) + drift * s * s) / (p.sigma * s)
        g_true = (np.log(S / r_true) + drift * s * s) / (p.sigma * s)
    vals = 2.0 * s * np.exp(-p.r * s * s) * np.abs(norm_cdf(g_app) - norm_cdf(g_true))
    vals[0] = 0.0  # integrand vanishes like s at the substituted endpoint
    w = _boole_weights(n) * (2.0 * (smax / n) / 45.0)
    return p.r * p.strike * float(np.dot(w, vals))


def mispricing_err(rho, rho_app, tau: float, p: MarketParams) -> float:
    """Price gap at the boundary normalised by the early-exercise premium.

    The denominator uses the exact contact value V_true(boundary) = E - rho
    minus the European put there; it collapses as tau -> 0, in which case
    DegenerateDenominatorError is raised rather than returning noise.
    """
    _check_positive_finite("tau", tau)
    rho_tau = float(rho(tau))
    denom = (p.strike - rho_tau) - european_put(rho_tau, tau, p)
    if denom <= 1e-14 * p.strike:
        raise DegenerateDenominatorError(
            f"early-exercise premium {denom:.3e} at tau={tau:g} too small to normalise by"
        )
    return price_gap_full(rho, rho_app, rho_tau, tau, p) / denom


def boundary_rel_err(rho, rho_app, tau: float) -> float:
    """Signed relative boundary gap (rho - rho_app)/rho at one tau."""
    rho_tau = float(rho(tau))
    app_tau = float(rho_app(tau))
    if not 0 < rho_tau < math.inf:
        raise DomainError(f"benchmark boundary must be positive and finite, got {rho_tau}")
    if not math.isfinite(app_tau):
        raise DomainError(f"approximate boundary must be finite, got {app_tau}")
    return (rho_tau - app_tau) / rho_tau
