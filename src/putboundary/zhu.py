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

import functools
import math
import warnings

import numpy as np

from .asymptotics import rho_zhu_asymptote
from .core import (
    DomainError,
    MarketParams,
    QuadratureNodeError,
    TailTooHeavyError,
    find_root_bracketed,
)

__all__ = [
    "SmallTauSubstitution",
    "zhu_kernels",
    "rho_zhu",
    "zhu_second_derivative",
    "f2_max",
    "gamma_critical",
]

#: below this time to maturity the integral is handed over to the asymptote
SMALL_TAU_CUTOFF = 1e-16

#: lower end of the zeta grid; below it the integrand is O(zeta^2), so the
#: part left out is O(1e-18)
_ZETA_MIN = 1e-6

#: trapezoid nodes in s = ln zeta; the rule has converged to rounding on them
_NODES = 300

#: largest accepted bound on the integrand's tail beyond the last node Z
_TAIL_ALLOWANCE = 1e-9


class SmallTauSubstitution(UserWarning):
    """Emitted when the integral is replaced by its small-tau asymptote."""


def zhu_kernels(zeta, p: MarketParams):
    """Kernel pair (f1, f2) at zeta >= 0, a scalar or an array; f2 lies in
    [0, pi] when gamma is at or above the critical value.

    A scalar zeta gives a pair of floats, an array a pair of arrays.  The
    pair is singular only when b = 0 (gamma = 1) and zeta = 0
    simultaneously, where the denominator b^2 + zeta^2 vanishes.
    """
    z = np.asarray(zeta, dtype=float)
    if np.any(z < 0):
        raise DomainError(f"zeta must be nonnegative, got {float(z.min())}")
    if p.b == 0.0 and np.any(z == 0.0):
        raise DomainError("kernels singular at zeta=0 when gamma=1 (b=0)")
    a, b = p.a, p.b
    lg = np.log(np.sqrt(a * a + z * z) / p.gamma)
    at = np.arctan(z / a)
    den = b * b + z * z
    f1 = (b * lg + z * at) / den
    f2 = (z * lg - b * at) / den
    return (float(f1), float(f2)) if z.ndim == 0 else (f1, f2)


def _check_tail(near, far, z: float, taus: np.ndarray):
    # near, far = |f| at Z and 1.1 Z; past Z, f decays at the rate seen between them
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.log(near / far) / (0.1 * z)
        tail = np.where(far < near, near / rate, np.where(far == 0.0, 0.0, np.inf))
    bad = ~(tail < _TAIL_ALLOWANCE)
    if bad.any():
        i = int(np.argmax(bad))
        raise TailTooHeavyError(
            f"at tau={taus[i]:g} the integrand's tail beyond Z={z:g} is bounded by "
            f"{tail[i]:.3e}, over the {_TAIL_ALLOWANCE:.1e} allowed"
        )


@functools.lru_cache(maxsize=8)
def _tabulated_kernel(p: MarketParams):
    """The tau-free part of _damped_integral's trapezoid rule in s = ln zeta,
    once per market, on _NODES nodes from _ZETA_MIN to Z = 11/(sigma
    sqrt(SMALL_TAU_CUTOFF)), where the damping of the smallest integrated tau
    is e^-60.5: the row zeta/(a^2+zeta^2) e^{-f1} sin f2 * zeta h, the
    exponents a^2+zeta^2 (the last at the tail probe 1.1 Z), Z and the kernel
    at Z and at the probe.  The shared arrays are read-only.  A non-finite
    kernel raises QuadratureNodeError, which is not cached.
    """
    z_end = 11.0 / (p.sigma * math.sqrt(SMALL_TAU_CUTOFF))
    s, h = np.linspace(math.log(_ZETA_MIN), math.log(z_end), _NODES, retstep=True)
    zeta = np.exp(s)
    zeta = np.append(zeta, 1.1 * zeta[-1])  # the last node Z and the tail probe
    with np.errstate(all="ignore"):  # a non-finite g is reported just below
        f1, f2 = zhu_kernels(zeta, p)
        q = p.a * p.a + zeta * zeta
        g = zeta / q * np.exp(-f1) * np.sin(f2)
    bad = ~np.isfinite(g)
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureNodeError(float(zeta[i]), float(g[i]))
    # dzeta = zeta ds; trapezoid weights h with halves at both ends
    kernel = g[:-1] * zeta[:-1] * h
    kernel[[0, -1]] *= 0.5
    kernel.flags.writeable = q.flags.writeable = False
    return kernel, q, float(zeta[-2]), float(g[-2]), float(g[-1])


def _damped_integral(taus: np.ndarray, p: MarketParams, power: int) -> np.ndarray:
    """int_0^inf zeta (a^2+zeta^2)^(power-1) e^{-tau sigma^2/2 (a^2+zeta^2)}
    e^{-f1} sin f2 dzeta for each tau, by the trapezoid rule in s = ln zeta.

    The integrand is analytic and decays at both ends in s, so the rule
    converges exponentially in the node count.  One table per market serves
    every tau and power; each tau costs one damping row and one row sum.
    """
    kernel, q, z, g_near, g_far = _tabulated_kernel(p)
    expo = np.multiply.outer(-0.5 * p.sigma**2 * taus, q)
    if power:  # (a^2+zeta^2)^power goes in the exponent, where it cannot overflow
        expo += power * np.log(q)
    damp = np.exp(expo)
    _check_tail(np.abs(g_near * damp[:, -2]), np.abs(g_far * damp[:, -1]), z, taus)
    return np.sum(kernel * damp[:, :-1], axis=-1)


def rho_zhu(tau, p: MarketParams):
    """Boundary level from the closed integral formula, at a scalar tau or
    elementwise on an array of taus.

    The trapezoid rule in s = ln zeta on one grid per market (_tabulated_kernel):
    the cost is flat in tau and a scalar call equals its element of an array
    call bit for bit.  Below SMALL_TAU_CUTOFF the damping would outrun the
    grid, so the small-tau asymptote takes those elements and one
    SmallTauSubstitution warning flags them.  Raises DomainError for any tau
    <= 0, NaN or inf, DomainError naming the first tau whose rho leaves
    (0, E], and TailTooHeavyError when the truncated tail of any tau exceeds
    _TAIL_ALLOWANCE.
    """
    t = np.asarray(tau, dtype=float).ravel()
    ok = (t > 0) & np.isfinite(t)
    if not ok.all():
        raise DomainError(f"tau must be positive and finite, got {t[~ok][0]}")
    small = t < SMALL_TAU_CUTOFF
    out = np.empty_like(t)
    if small.any():
        warnings.warn(
            f"tau={t[small].min():g} below {SMALL_TAU_CUTOFF:g}: using the small-tau "
            f"asymptote in {int(small.sum())} of {t.size} values",
            SmallTauSubstitution,
            stacklevel=2,
        )
        out[small] = [rho_zhu_asymptote(float(x), p) for x in t[small]]
    if not small.all():
        integral = _damped_integral(t[~small], p, power=0)
        out[~small] = p.perpetual_boundary + (2.0 * p.strike / math.pi) * integral
    bad = ~((out > 0.0) & (out <= p.strike))
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainError(f"zhu formula leaves (0, E] at tau={t[k]:g}: rho={out[k]:.6g}")
    return float(out[0]) if np.ndim(tau) == 0 else out.reshape(np.shape(tau))


def zhu_second_derivative(tau: float, p: MarketParams) -> float:
    """d^2 rho / d tau^2 of the integral formula.

    Differentiating under the integral sign twice multiplies the integrand
    by (sigma^2/2 (a^2+zeta^2))^2, giving

        (2 E sigma^4 / 4 pi) * int_0^inf (a^2+zeta^2) zeta e^{-tau sigma^2/2 (a^2+zeta^2)}
                                         e^{-f1} sin(f2) dzeta,

    by the trapezoid rule of rho_zhu on its grid; positive whenever f2 stays
    in (0, pi), i.e. for gamma >= gamma_critical().  Near SMALL_TAU_CUTOFF the
    (a^2+zeta^2)^2 growth outruns the damping at Z: TailTooHeavyError.
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise DomainError(f"tau must be positive and finite, got {tau}")
    integral = float(_damped_integral(np.array([tau]), p, power=2)[0])
    return (2.0 * p.strike * p.sigma**4 / (4.0 * math.pi)) * integral


def f2_max(gamma: float) -> float:
    """Maximum of f2(zeta; gamma) over zeta > 0.

    A coarse logarithmic scan (512 points across [1e-6, 1e6]) brackets the
    peak, and the bracketed root finder finds the zero of the log-slope

        g = zeta f2'/f2 = zeta N'/N - 2 zeta^2/(b^2 + zeta^2),
        N = zeta lg - b arctan(zeta/a),  N' = lg + (zeta^2 - ab)/(a^2 + zeta^2),

    with lg = ln(sqrt(a^2 + zeta^2)/gamma).  g is scale-free, so the root
    finder's absolute stop on |g| means the same at every gamma;
    on the plain slope f2' it stops short of the broad peaks of large gamma.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise DomainError(f"gamma must be positive, got {gamma}")
    # 2 * (gamma/2) / 1^2 == gamma exactly, so the kernels see this gamma
    p = MarketParams(r=0.5 * gamma, sigma=1.0, strike=1.0)
    zs = np.geomspace(1e-6, 1e6, 512)
    i = int(np.argmax(zhu_kernels(zs, p)[1]))
    a, b = p.a, p.b

    def log_slope(z: float) -> float:
        q = a * a + z * z
        lg = math.log(math.sqrt(q) / p.gamma)
        n = z * lg - b * math.atan(z / a)
        return z * (lg + (z * z - a * b) / q) / n - 2.0 * z * z / (b * b + z * z)

    lo, hi = float(zs[max(i - 1, 0)]), float(zs[min(i + 1, zs.size - 1)])
    return zhu_kernels(find_root_bracketed(log_slope, lo, hi), p)[1]


def gamma_critical() -> float:
    """Smallest gamma with max_zeta f2(zeta; gamma) <= pi.

    f2's maximum decreases in gamma, so this is the root of
    f2_max(gamma) - pi on (1e-4, 1), found by the bracketed root finder in
    ln gamma, since the bracket spans four decades.
    """

    def g(u: float) -> float:
        return f2_max(math.exp(u)) - math.pi

    return math.exp(find_root_bracketed(g, math.log(1e-4), 0.0))
