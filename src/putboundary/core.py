"""Shared numerical kernels and domain parameter types.

Everything downstream (closed-form approximations, the iterative
integral-equation solver, the finite-difference benchmark, price-gap
integrals) is built on the primitives in this module: the normal CDF,
composite Newton-Cotes (Boole) weights and Brent's bracketed root finder.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "NumericalError",
    "QuadratureNodeError",
    "TailTooHeavyError",
    "BracketError",
    "MaxIterationsError",
    "MarketParams",
    "TauGrid",
    "BoundaryCurve",
    "norm_cdf",
    "find_root_bracketed",
]


class DomainError(ValueError):
    """Input lies outside the domain where a formula or curve is defined."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (bad node, heavy tail, lost bracket...)."""


class QuadratureNodeError(NumericalError):
    """The integrand returned a non-finite value at a quadrature node."""

    def __init__(self, abscissa: float, value: float):
        self.abscissa = abscissa
        self.value = value
        super().__init__(f"non-finite integrand value {value!r} at node x={abscissa!r}")


class TailTooHeavyError(NumericalError):
    """Truncated tail of a semi-infinite integral exceeds the accepted bound."""


class BracketError(NumericalError):
    """Root bracket does not enclose a sign change."""


class MaxIterationsError(NumericalError):
    """Iteration cap reached before the tolerance was met."""


@dataclass(frozen=True)
class MarketParams:
    """Model constants: risk-free rate, volatility and strike.

    The derived quantities gamma = 2r/sigma^2, a = (1+gamma)/2 and
    b = (1-gamma)/2 recur in every formula; they satisfy a - b = gamma
    and a + b = 1.  A market whose a^2 overflows is a DomainError.
    """

    r: float
    sigma: float
    strike: float

    def __post_init__(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise DomainError(f"risk-free rate must be positive, got {self.r}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise DomainError(f"volatility must be positive, got {self.sigma}")
        if not self.sigma**2 > 0:
            raise DomainError(f"volatility {self.sigma} too small: sigma^2 underflows to 0")
        if not math.isfinite(self.a * self.a):
            raise DomainError(f"gamma = 2r/sigma^2 = {self.gamma:g} too large: a^2 overflows")
        if not (self.strike > 0 and math.isfinite(self.strike)):
            raise DomainError(f"strike must be positive, got {self.strike}")

    @property
    def gamma(self) -> float:
        return 2.0 * self.r / self.sigma**2

    @property
    def a(self) -> float:
        return 0.5 * (1.0 + self.gamma)

    @property
    def b(self) -> float:
        return 0.5 * (1.0 - self.gamma)

    @property
    def perpetual_boundary(self) -> float:
        """Exercise level of the perpetual put, gamma*E/(1+gamma)."""
        return self.gamma * self.strike / (1.0 + self.gamma)


@dataclass(frozen=True)
class TauGrid:
    """Strictly increasing times to maturity starting at 0."""

    taus: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.taus, dtype=float)
        object.__setattr__(self, "taus", t)
        if t.ndim != 1 or t.size < 2:
            raise DomainError("grid needs at least two nodes")
        if t[0] != 0.0:
            raise DomainError(f"grid must start at 0, got {t[0]}")
        if not np.all(np.diff(t) > 0):
            raise DomainError("grid must be strictly increasing")

    @property
    def horizon(self) -> float:
        return float(self.taus[-1])

    def __len__(self) -> int:
        return int(self.taus.size)


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled early-exercise curve rho(tau) with linear interpolation.

    The samples must match the grid in length and be finite and positive;
    nothing here checks them against the strike.  Between nodes the curve is
    evaluated by linear interpolation; S_f(t) is recovered as rho(T - t).
    """

    grid: TauGrid
    rhos: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rhos, dtype=float)
        object.__setattr__(self, "rhos", rho)
        if rho.shape != self.grid.taus.shape:
            raise DomainError("boundary values and grid differ in length")
        if not np.all(np.isfinite(rho)) or np.any(rho <= 0):
            raise DomainError("boundary values must be finite and positive")

    def value(self, tau) -> float | np.ndarray:
        """Boundary level at time-to-maturity tau (scalar or array).  A tau
        outside [0, horizon], NaN included, is a DomainError."""
        t = np.asarray(tau, dtype=float)
        top = self.grid.horizon + 1e-15 * max(1.0, self.grid.horizon)
        if not ((t >= 0.0) & (t <= top)).all():
            raise DomainError(
                f"tau outside the curve's range [0, {self.grid.horizon}]"
            )
        out = np.interp(t, self.grid.taus, self.rhos)
        return float(out) if np.isscalar(tau) or t.ndim == 0 else out

    def __call__(self, tau):
        return self.value(tau)


_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)

#: find_root_bracketed's tolerance on |g| and its iteration cap
_ROOT_TOL = 1e-10
_MAX_ITER = 200


def norm_cdf(x):
    """Standard normal CDF via math.erfc: a float for a float (or int), and
    for an array the same values elementwise, in an array of its shape.
    Saturates cleanly to 0/1 for large |x|; absolute error is a few ulp,
    inside the 1e-12 budget the pricing formulas assume.
    """
    if isinstance(x, (float, int)):
        return 0.5 * math.erfc(-x / _SQRT2)
    z = -np.asarray(x, dtype=float) / _SQRT2
    return 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


def _boole_weights(n: int) -> np.ndarray:
    # closed five-point rule per panel of 4 subintervals:
    #   (2h/45) * (7, 32, 12, 32, 7), panels share their end nodes
    w = np.zeros(n + 1)
    w[0] = 7.0
    w[n] = 7.0
    w[1::2] = 32.0
    w[2::4] = 12.0
    w[4:n:4] = 14.0
    return w


def _eval_on_nodes(f, x: np.ndarray) -> np.ndarray:
    """Evaluate f on all nodes, vectorised when f supports arrays and point
    by point when it only takes scalars."""
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        y = np.fromiter((float(f(xi)) for xi in x.tolist()), dtype=float, count=x.size)
    return y


def find_root_bracketed(g, lo: float, hi: float) -> float:
    """Brent's (1973) safeguarded secant on [lo, hi]; deterministic for fixed inputs.

    Requires a sign change on the bracket.  Each step takes an inverse
    quadratic or secant step, and bisects instead when that step would
    leave the bracket or shrink it too slowly, or when an endpoint value is
    infinite.  Returns the end of the bracket with the smaller |g| once
    that |g| is at most _ROOT_TOL/2 or the bracket is narrower than
    _ROOT_TOL/1000, and raises MaxIterationsError if _MAX_ITER steps do not
    get there.
    """
    if not lo <= hi:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    a, fa = lo, g(lo)
    b, fb = hi, g(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if (fa > 0) == (fb > 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: g(lo)={fa!r}, g(hi)={fb!r}")
    # b is the best estimate, c the other end of the bracket, a the previous b
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5e-3 * _ROOT_TOL
        half = 0.5 * (c - b)
        if abs(fb) <= 0.5 * _ROOT_TOL or abs(half) <= tol:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb) and math.isfinite(fa) and math.isfinite(fc):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = g(b)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    raise MaxIterationsError(
        f"root search did not reach |g| <= {0.5 * _ROOT_TOL:g} in {_MAX_ITER} iterations"
    )
