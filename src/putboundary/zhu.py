"""Closed analytic boundary formula built from a semi-infinite integral.

The boundary is the perpetual level plus an integral transform:

    rho(tau) = gamma E/(1+gamma)
             + (2E/pi) * int_0^inf  zeta exp(-tau sigma^2/2 (a^2+zeta^2))
                                    / (a^2+zeta^2)
                                    * exp(-f1(zeta)) sin(f2(zeta)) dzeta

with kernels (gamma = 2r/sigma^2, a = (1+gamma)/2, b = (1-gamma)/2):

    f1 = [b ln((1/gamma) sqrt(a^2+zeta^2)) + zeta arctan(zeta/a)] / (b^2+zeta^2)
    f2 = [zeta ln((1/gamma) sqrt(a^2+zeta^2)) - b arctan(zeta/a)] / (b^2+zeta^2)

Convexity of rho hinges on f2 staying inside [0, pi]; the smallest gamma for
which max_zeta f2 <= pi is the critical parameter computed by
gamma_critical (about 0.0167821).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import rho_zhu_asymptote
from .core import (
    DomainError,
    BracketError,
    MarketParams,
    QuadratureConfig,
    find_root_bracketed,
    integrate_semi_infinite,
)

__all__ = [
    "ZhuKernelValue",
    "SmallTauSubstitution",
    "zhu_kernels",
    "rho_zhu",
    "zhu_second_derivative",
    "f2_max",
    "gamma_critical",
]

#: below this time to maturity the integral is handed over to the asymptote
SMALL_TAU_CUTOFF = 1e-6

#: target zeta resolution for the oscillation-free but sharply peaked integrand
_ZETA_STEP = 0.02


class SmallTauSubstitution(UserWarning):
    """Emitted when the integral is replaced by its small-tau asymptote."""


@dataclass(frozen=True)
class ZhuKernelValue:
    """Kernel pair (f1, f2) at one zeta; f2 lies in [0, pi] when gamma is
    at or above the critical value."""

    f1: float
    f2: float


def _kernels_from_gamma(zeta: np.ndarray, gamma: float):
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


def zhu_kernels(zeta: float, p: MarketParams) -> ZhuKernelValue:
    """Kernel values at a single zeta >= 0.

    The pair is singular only when b = 0 (gamma = 1) and zeta = 0
    simultaneously, where the denominator b^2 + zeta^2 vanishes.
    """
    if zeta < 0:
        raise DomainError(f"zeta must be nonnegative, got {zeta}")
    if p.b == 0.0 and zeta == 0.0:
        raise DomainError("kernels singular at zeta=0 when gamma=1 (b=0)")
    f1, f2 = _kernels_from_gamma(np.asarray(zeta, dtype=float), p.gamma)
    return ZhuKernelValue(float(f1), float(f2))


def _boundary_integrand(p: MarketParams, tau: float):
    a = p.a
    gamma = p.gamma

    def f(zeta):
        z = np.asarray(zeta, dtype=float)
        f1, f2 = _kernels_from_gamma(z, gamma)
        a2z2 = a * a + z * z
        return z * np.exp(-tau * 0.5 * p.sigma**2 * a2z2) / a2z2 * np.exp(-f1) * np.sin(f2)

    return f


def _tuned_config(
    p: MarketParams, tau: float, cfg: QuadratureConfig, sigmas: float = 8.0
) -> QuadratureConfig:
    # Gaussian damping reaches e^(-sigmas^2/2) at Z = sigmas/(sigma sqrt(tau));
    # resolve the peak near zeta ~ a with a fixed step so small tau does not
    # starve the low-zeta region of nodes.
    z = max(cfg.semi_inf_truncation, sigmas / (p.sigma * math.sqrt(tau)))
    n = max(cfg.finite_subintervals, 4 * math.ceil(z / (4.0 * _ZETA_STEP)))
    return cfg.with_truncation(z).with_subintervals(n)


def rho_zhu(tau: float, p: MarketParams, cfg: QuadratureConfig | None = None) -> float:
    """Boundary level from the closed integral formula.

    For tau below SMALL_TAU_CUTOFF the fixed-truncation quadrature becomes
    unreliable (the integrand decays on the scale 1/(sigma sqrt(tau))), so
    the exact small-tau asymptote is substituted and a SmallTauSubstitution
    warning flags it.
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise DomainError(f"tau must be positive and finite, got {tau}")
    cfg = cfg or QuadratureConfig()
    if tau < SMALL_TAU_CUTOFF:
        warnings.warn(
            f"tau={tau:g} below {SMALL_TAU_CUTOFF:g}: using the small-tau asymptote",
            SmallTauSubstitution,
            stacklevel=2,
        )
        return rho_zhu_asymptote(tau, p)
    local = _tuned_config(p, tau, cfg)
    integral = integrate_semi_infinite(_boundary_integrand(p, tau), local)
    return p.perpetual_boundary + (2.0 * p.strike / math.pi) * integral


def zhu_second_derivative(
    tau: float, p: MarketParams, cfg: QuadratureConfig | None = None
) -> float:
    """d^2 rho / d tau^2 of the integral formula.

    Differentiating under the integral sign twice multiplies the integrand
    by (sigma^2/2 (a^2+zeta^2))^2, giving

        (2 E sigma^4 / 4 pi) * int_0^inf (a^2+zeta^2) zeta e^{-tau sigma^2/2 (a^2+zeta^2)}
                                         e^{-f1} sin(f2) dzeta.

    Positive whenever f2 stays in (0, pi), i.e. for gamma >= gamma_critical().
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise DomainError(f"tau must be positive and finite, got {tau}")
    cfg = cfg or QuadratureConfig()
    base = _boundary_integrand(p, tau)
    a = p.a

    def f(zeta):
        z = np.asarray(zeta, dtype=float)
        return (a * a + z * z) ** 2 * base(z)

    # polynomial growth of the extra factor needs more Gaussian headroom
    local = _tuned_config(p, tau, cfg, sigmas=11.0)
    integral = integrate_semi_infinite(f, local)
    return (2.0 * p.strike * p.sigma**4 / (4.0 * math.pi)) * integral


_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def f2_max(gamma: float, cfg: QuadratureConfig | None = None) -> float:
    """Maximum of f2(zeta; gamma) over zeta > 0.

    Coarse logarithmic scan (512 points across [1e-6, 1e6]) brackets the
    peak, then golden-section search tightens it to root_tol.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise DomainError(f"gamma must be positive, got {gamma}")
    cfg = cfg or QuadratureConfig()
    zs = np.geomspace(1e-6, 1e6, 512)
    vals = _kernels_from_gamma(zs, gamma)[1]
    i = int(np.argmax(vals))
    lo = zs[max(i - 1, 0)]
    hi = zs[min(i + 1, zs.size - 1)]

    def f2_at(z: float) -> float:
        return float(_kernels_from_gamma(np.asarray(z, dtype=float), gamma)[1])

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f2_at(c), f2_at(d)
    while b - a > cfg.root_tol * max(1.0, abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f2_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f2_at(d)
    return f2_at(0.5 * (a + b))


def gamma_critical(cfg: QuadratureConfig | None = None) -> float:
    """Smallest gamma with max_zeta f2(zeta; gamma) <= pi.

    f2's maximum decreases in gamma, so this is the root of
    f2_max(gamma) - pi, located by the bracketed root finder on a scanned
    bracket inside (1e-4, 1).
    """
    cfg = cfg or QuadratureConfig()

    def g(gamma: float) -> float:
        return f2_max(gamma, cfg) - math.pi

    grid = np.geomspace(1e-4, 1.0, 33)
    values = [g(x) for x in grid]
    for k in range(len(grid) - 1):
        if values[k] == 0.0:
            return float(grid[k])
        if values[k] * values[k + 1] < 0:
            return find_root_bracketed(g, float(grid[k]), float(grid[k + 1]), cfg)
    raise BracketError("no sign change of f2_max(gamma) - pi found in (1e-4, 1)")
