"""Closed-form approximations of the exercise boundary near expiry.

Each formula is valid only while its logarithm argument stays below one;
past that point the square root turns complex and the boundary estimate is
meaningless, so every function raises DomainError instead of returning a
non-monotone value, as it does for a value outside (0, E], where no
boundary lies.  All of them satisfy rho(tau) -> strike as tau -> 0+.

Shared notation for strike E, rate r, volatility sigma:

    KK:     E * (1 - sigma*sqrt(2 tau) * sqrt(-ln[(2r/sigma) sqrt(9 pi tau / 2)]))
    EKK:    E * (1 - sigma*sqrt(2 tau) * sqrt(-ln[(2r/sigma) sqrt(2 pi tau)]))
    SSC-A:  E * exp(-(r - sigma^2/2) tau + sigma sqrt(2 tau) eta(tau)),
            eta(tau) = -sqrt(-ln[(2r/sigma) sqrt(2 pi tau) e^{r tau}])
    Zhu asymptote:  E * (1 - sigma/sqrt(2 pi) * sqrt(tau) * (-ln tau))
    series expansion:  E * exp(-sigma sqrt(2 tau alpha)), alpha a sixth-order
            series in 1/xi with xi = ln sqrt(8 pi r^2 tau / sigma^2)
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError, MarketParams

__all__ = [
    "CLOSED_FORMS",
    "eta_lowest_order",
    "rho_kk",
    "rho_ekk",
    "rho_ssc_analytic",
    "rho_zhu_asymptote",
    "rho_chen_chadam",
]


def _check_tau(tau: float):
    if not (tau > 0 and math.isfinite(tau)):
        raise DomainError(f"tau must be positive and finite, got {tau}")


def _in_range(method: str, tau: float, p: MarketParams, rho: float) -> float:
    """rho where it lies in (0, E], the range of a boundary; DomainError
    naming the method, tau and rho elsewhere."""
    if not 0.0 < rho <= p.strike:
        raise DomainError(f"{method} formula leaves (0, E] at tau={tau:g}: rho={rho:.6g}")
    return rho


def _log_eta_argument(tau, p: MarketParams, xp=math):
    """ln[(2r/sigma) sqrt(2 pi tau) e^{r tau}], summed in log space so that
    no factor overflows at large tau; xp is math for a float, np for arrays."""
    return math.log(2.0 * p.r / p.sigma) + 0.5 * xp.log(2.0 * math.pi * tau) + p.r * tau


def _eta(t, p: MarketParams, xp):
    """The eta formula for a validated tau: xp is math for a float t, np for
    an array t."""
    log_arg = _log_eta_argument(t, p, xp)
    if (log_arg >= 0.0) if xp is math else np.any(log_arg >= 0.0):
        raise DomainError(
            "log argument (2r/sigma) sqrt(2 pi tau) e^(r tau) >= 1; tau too large"
        )
    return -xp.sqrt(-log_arg)


def eta_lowest_order(tau, p: MarketParams):
    """Lowest-order auxiliary function eta(tau) of the boundary representation
    rho = E exp(-(r - sigma^2/2) tau + sigma sqrt(2 tau) eta).

    Accepts scalars or arrays; defined while (2r/sigma) sqrt(2 pi tau) e^{r tau} < 1.
    A Python or numpy scalar is evaluated with math and returned as a float,
    an array (0-d included) with numpy; both run the one formula of _eta.
    A scalar tau and every element of an array must be positive.
    """
    if type(tau) is float or isinstance(tau, (int, np.generic)):
        if not tau > 0:
            raise DomainError(f"tau must be positive, got {tau}")
        return _eta(float(tau), p, math)
    t = np.asarray(tau, dtype=float)
    bad = ~(t > 0.0)
    if bad.any():
        raise DomainError(f"tau must be positive, got {t[bad][0]}")
    return _eta(t, p, np)


def rho_kk(tau: float, p: MarketParams) -> float:
    """Original near-expiry approximation with the sqrt(9 pi tau / 2) kernel."""
    _check_tau(tau)
    arg = (2.0 * p.r / p.sigma) * math.sqrt(9.0 * math.pi * tau / 2.0)
    if arg >= 1.0:
        raise DomainError(f"kk formula undefined: log argument {arg:.6g} >= 1")
    rho = p.strike * (1.0 - p.sigma * math.sqrt(2.0 * tau) * math.sqrt(-math.log(arg)))
    return _in_range("kk", tau, p, rho)


def rho_ekk(tau: float, p: MarketParams) -> float:
    """Improved variant with the sqrt(2 pi tau) kernel."""
    _check_tau(tau)
    arg = (2.0 * p.r / p.sigma) * math.sqrt(2.0 * math.pi * tau)
    if arg >= 1.0:
        raise DomainError(f"ekk formula undefined: log argument {arg:.6g} >= 1")
    rho = p.strike * (1.0 - p.sigma * math.sqrt(2.0 * tau) * math.sqrt(-math.log(arg)))
    return _in_range("ekk", tau, p, rho)


def rho_ssc_analytic(tau: float, p: MarketParams) -> float:
    """Lowest-order analytic boundary; DomainError where it leaves (0, E]."""
    _check_tau(tau)
    eta = _eta(float(tau), p, math)
    expo = -(p.r - 0.5 * p.sigma**2) * tau + p.sigma * math.sqrt(2.0 * tau) * eta
    rho = p.strike * math.exp(expo) if expo <= 0.0 else 0.0  # 0.0 flags rho > E too
    if rho == 0.0:
        raise DomainError(f"ssc-a formula leaves (0, E] at tau={tau:g}: exponent {expo:.6g}")
    return rho


def rho_zhu_asymptote(tau: float, p: MarketParams) -> float:
    """Leading small-tau behaviour of the closed integral formula.

    Differs from the other asymptotics by a full -ln(tau) factor in place of
    sqrt(-ln tau); only defined for tau < 1 where -ln(tau) > 0.
    """
    _check_tau(tau)
    if tau >= 1.0:
        raise DomainError(f"asymptote needs tau < 1, got {tau}")
    rho = p.strike * (1.0 - p.sigma / math.sqrt(2.0 * math.pi) * math.sqrt(tau) * -math.log(tau))
    return _in_range("zhu-asymptote", tau, p, rho)


def _chen_chadam_alpha(xi: float) -> float:
    """Sixth-order expansion of the squared-log boundary amplitude.

    alpha(xi) = -xi - 1/(2 xi) + 1/(8 xi^2) + 17/(24 xi^3) - 51/(64 xi^4)
                - 287/(120 xi^5) + 199/(32 xi^6),   xi -> -inf.
    """
    if xi >= -1.0:
        raise DomainError(f"expansion needs xi < -1, got xi={xi:.6g}")
    return (
        -xi
        - 1.0 / (2.0 * xi)
        + 1.0 / (8.0 * xi**2)
        + 17.0 / (24.0 * xi**3)
        - 51.0 / (64.0 * xi**4)
        - 287.0 / (120.0 * xi**5)
        + 199.0 / (32.0 * xi**6)
    )


def rho_chen_chadam(tau: float, p: MarketParams) -> float:
    """Boundary from the sixth-order series, rho = E exp(-sigma sqrt(2 tau alpha)).

    The cutoff xi < -1 keeps every series term below the leading one; for
    larger xi the truncated series is unreliable and DomainError is raised,
    as it is when the series value alpha turns non-positive.
    """
    _check_tau(tau)
    xi = math.log(math.sqrt(8.0 * math.pi * p.r**2 * tau / p.sigma**2))
    alpha = _chen_chadam_alpha(xi)
    if alpha <= 0.0:
        raise DomainError(f"series gave non-positive alpha={alpha:.6g} at xi={xi:.6g}")
    rho = p.strike * math.exp(-p.sigma * math.sqrt(2.0 * tau * alpha))
    return _in_range("chen-chadam", tau, p, rho)


#: the five closed forms by command-line name, in the command line's order
CLOSED_FORMS = {
    "kk": rho_kk,
    "ekk": rho_ekk,
    "ssc-a": rho_ssc_analytic,
    "chen-chadam": rho_chen_chadam,
    "zhu-asymptote": rho_zhu_asymptote,
}
