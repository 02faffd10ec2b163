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
At the true boundary S = rho(tau).  Substituting xi = tau sin^2(theta)
removes both endpoint singularities, at xi -> tau and the sqrt(xi) one of
every boundary at expiry; Gauss-Legendre in theta then needs 512 nodes.
The double integral itself, with its own numeric inner quadrature, is the
independent reference in tests/oracles.py.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import DomainError, MarketParams, _eval_on_nodes, norm_cdf

__all__ = [
    "DegenerateDenominatorError",
    "european_put",
    "price_gap_at_boundary",
    "price_gap_full",
    "mispricing_err",
    "boundary_rel_err",
]


#: equal panels in theta on [0, pi/2], each with the 8-point Gauss-Legendre rule
_GAP_PANELS = 64

#: the 8-point Gauss-Legendre rule's positive nodes on [-1, 1] and their weights,
#: written out so that no numpy.polynomial import is needed
_GL8_NODES = (0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362)
_GL8_WEIGHTS = (0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706)


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


@functools.cache
def _gap_nodes(panels: int):
    """sin^2(theta), cos(theta) and the weights of dxi/tau = 2 sin cos dtheta
    at the Gauss-Legendre nodes of `panels` equal panels on [0, pi/2]; built
    on first use.  The weights sum to 1."""
    x = np.array(_GL8_NODES)
    x, w = np.concatenate((-x[::-1], x)), np.array(_GL8_WEIGHTS[::-1] + _GL8_WEIGHTS)
    h = (math.pi / 2.0) / panels
    theta = ((np.arange(panels)[:, None] + 0.5 * (1.0 + x)) * h).ravel()
    sin, cos = np.sin(theta), np.cos(theta)
    return sin * sin, cos, np.tile(w, panels) * (h * sin * cos)


def price_gap_full(rho, rho_app, S: float, tau: float, p: MarketParams) -> float:
    """Price difference at spot S from holding rho_app instead of rho.

    r E int_0^tau e^{-r(tau-xi)} |N(gamma_app) - N(gamma)| dxi in theta,
    xi = tau sin^2(theta), by Gauss-Legendre on 512 nodes, all strictly
    inside (0, tau), so there is no expiry node; identically 0 when the
    curves coincide and nonnegative always.  Each curve is evaluated once on
    all the nodes when it takes arrays, and once per node when it only takes
    scalars.  tau, S and every node value must be positive and finite.
    """
    _check_positive_finite("tau", tau)
    _check_positive_finite("price", S)
    sin2, cos, w = _gap_nodes(_GAP_PANELS)
    drift = p.r - 0.5 * p.sigma**2

    xi = tau * sin2
    r_true = _eval_on_nodes(rho, xi)
    r_app = _eval_on_nodes(rho_app, xi)
    if not np.all((0 < r_true) & (r_true < np.inf) & (0 < r_app) & (r_app < np.inf)):
        raise DomainError("boundary curves must be positive and finite on (0, tau]")

    # s = sqrt(tau - xi) from sqrt(tau), so that s > 0 even for a subnormal tau
    s = math.sqrt(tau) * cos
    with np.errstate(divide="ignore", invalid="ignore"):
        g_app = (np.log(S / r_app) + drift * s * s) / (p.sigma * s)
        g_true = (np.log(S / r_true) + drift * s * s) / (p.sigma * s)
    vals = np.exp(-p.r * s * s) * np.abs(norm_cdf(g_app) - norm_cdf(g_true))
    return p.r * p.strike * float(np.dot(w, vals)) * tau


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
