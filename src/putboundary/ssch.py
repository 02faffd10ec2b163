"""Sequential solver for the nonlinear integral equation of the boundary.

The boundary is represented through an auxiliary function eta(tau):

    rho(tau) = E exp(-(r - sigma^2/2) tau + sigma sqrt(2 tau) eta(tau)),

where eta solves, for every tau,

    exp(-eta(tau)^2) = A(tau) = (r sqrt(2 pi tau)/sigma) e^{r tau} (1 - F_eta(tau)/sqrt(pi))

    F_eta(tau) = 2 int_0^{pi/2} e^{-r tau cos^2(th) - G^2} [ (sigma sqrt(tau)/sqrt(2)) sin(th)
                                                           + G tan(th) ] dth
    G(tau, th) = [eta(tau) - eta(tau sin^2 th) sin(th)] / cos(th)

Near expiry eta is negative, eta = -sqrt(-ln A); the equation is solved in
this sign-free form so that the path can cross eta = 0, which it does at
long horizons when gamma = 2r/sigma^2 > 1 (rho then falls below
E e^{-(r - sigma^2/2) tau}).  ln A = ln(r sqrt(2 pi tau)/sigma) + r tau
+ ln(1 - F/sqrt(pi)) is summed in log space, so e^{r tau} never overflows.
F and G only look backwards: their value at tau depends on eta on [0, tau]
alone, so the unknowns eta(tau_1), ..., eta(tau_m) can be solved one node
at a time.  solve_boundary keeps them in one array and solves node i by
_solve_node, which reads only the values before it: Newton steps on the
analytic slope of H(eta) = eta^2 + ln A(eta) from the value extrapolated
from the two nodes before it; a node those steps do not solve stops the
solve with LogDomainError.  The very first node comes from the closed
small-tau formula; below tau_1 the path is evaluated by that same formula,
between nodes by linear interpolation.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .asymptotics import _eta, _log_eta_argument, eta_lowest_order
from .core import (
    BoundaryCurve,
    DomainError,
    MarketParams,
    NumericalError,
    TauGrid,
    _ROOT_TOL,
    _boole_weights,
)

__all__ = [
    "MeshKind",
    "MeshError",
    "LogDomainError",
    "build_mesh",
    "solve_boundary",
]


class MeshError(DomainError):
    """The mesh violates the first-node admissibility condition."""


class LogDomainError(NumericalError):
    """Newton's steps do not solve a node's eta^2 + ln A = 0: A falls to or
    below 0 at a step, a step does not shrink |eta^2 + ln A|, or the steps
    run out."""


#: Newton steps _solve_node takes before the node fails
_NEWTON_STEPS = 4

#: subintervals of the Boole rule in theta on [0, pi/2]
_THETA_SUBINTERVALS = 1000


class MeshKind(enum.Enum):
    """Node placement: uniform tau_i = (i/m) T, or quadratic tau_i = (i/m)^2 T
    which concentrates nodes near expiry to follow the sqrt(tau ln tau)
    steepening of the boundary."""

    UNIFORM = "uniform"
    QUADRATIC = "quadratic"


def build_mesh(T: float, m: int, kind: MeshKind, p: MarketParams) -> TauGrid:
    """Mesh on [0, T]; raises MeshError unless the first positive node
    satisfies (2r/sigma) sqrt(2 pi tau_1) e^{r tau_1} < 1."""
    if m < 2:
        raise MeshError(f"need at least 2 steps, got m={m}")
    if not (T > 0 and math.isfinite(T)):
        raise MeshError(f"horizon must be positive, got {T}")
    i = np.arange(m + 1, dtype=float)
    if kind is MeshKind.QUADRATIC:
        taus = (i / m) ** 2 * T
    else:
        taus = (i / m) * T
    tau1 = float(taus[1])
    log_arg = _log_eta_argument(tau1, p)
    if log_arg >= 0.0:
        raise MeshError(
            f"first node tau_1={tau1:g} inadmissible: (2r/sigma) sqrt(2 pi tau_1) "
            f"e^(r tau_1) = e^{log_arg:.6g} >= 1; increase m"
        )
    return TauGrid(taus)


def _sample(taus: np.ndarray, etas: np.ndarray, i: int, s: np.ndarray, p: MarketParams):
    """Path at ascending times s in [0, tau_i], with etas[1:i] solved, as
    base + slope * eta_i.

    Only the last mesh segment (tau_{i-1}, tau_i] depends on the not yet
    solved value eta_i, and it does so linearly; the solved part of the path
    gives slope 0.  As s ascends, the head formula on (0, tau_1), the
    interpolated part and the last segment are contiguous slices.
    """
    base = np.empty_like(s)
    slope = np.zeros_like(s)
    k = i - 1
    head = int(np.searchsorted(s, taus[1]))
    last = int(np.searchsorted(s, taus[k], side="right"))
    # the clamped times are positive, so the unchecked formula applies
    base[:head] = _eta(np.maximum(s[:head], 1e-300), p, np)
    base[head:last] = np.interp(s[head:last], taus[1:i], etas[1:i])
    w = (s[last:] - taus[k]) / (taus[i] - taus[k])
    base[last:] = etas[k] * (1.0 - w)
    slope[last:] = w
    return base, slope


@functools.cache
def _theta_nodes():
    """Closed Newton-Cotes nodes on [0, pi/2] as the trig factors sin, cos
    and tan reused by every integrand evaluation, plus the weights; built on
    first use.

    The endpoint node is shifted to pi/2 - eps: the F integrand's
    G tan(theta) factor is an indeterminate 0 * inf exactly at pi/2, but
    approaches a finite one-sided limit, so the shifted node supplies the
    endpoint value.
    """
    n = _THETA_SUBINTERVALS
    theta = np.linspace(0.0, math.pi / 2.0, n + 1)
    theta[-1] = math.pi / 2.0 - (math.pi / 2.0) / (10.0 * n)
    w = _boole_weights(n) * (2.0 * (math.pi / 2.0 / n) / 45.0)
    return np.sin(theta), np.cos(theta), np.tan(theta), w


def _f_of_eta(tau_i: float, base, slope, p: MarketParams):
    """The integral F at node tau_i and its slope dF/deta_i, as a function
    of the trial value eta_i, for the path
    eta(tau_i sin^2 theta) = base + slope * eta_i sampled at the quadrature
    nodes theta.

    G = [eta_i - (base + slope eta_i) sin(th)]/cos(th) is affine in eta_i,
    G = eta_i P + Q, so P, Q, the damping exponent -r tau_i cos^2(th) and
    the factor sigma sqrt(tau_i/2) sin(th) are built once here, and each
    evaluation of the returned function is a handful of array operations.
    The slope reuses the same exponentials:
    dF/deta_i = 2 int e^{-r tau_i cos^2 - G^2} P [tan - 2G (drift + G tan)].
    """
    if not (tau_i > 0 and math.isfinite(tau_i)):
        raise DomainError(f"tau_i must be positive, got {tau_i}")
    st, ct, tt, w = _theta_nodes()
    P = (1.0 - slope * st) / ct
    Q = -base * st / ct
    damping = -p.r * tau_i * ct * ct
    drift = (p.sigma * math.sqrt(tau_i) / math.sqrt(2.0)) * st
    wP = w * P

    def F(eta_i: float) -> tuple[float, float]:
        G = eta_i * P + Q
        e = np.exp(damping - G * G)
        inner = drift + G * tt
        total = 2.0 * float(np.dot(w, e * inner))
        # the weights are positive, so any non-finite integrand value
        # leaves the sum non-finite
        if not math.isfinite(total):
            raise NumericalError(
                f"non-finite integrand in the F integral at tau={tau_i:g}, eta={eta_i!r}"
            )
        inner *= G
        inner *= -2.0
        inner += tt
        inner *= e
        return total, 2.0 * float(np.dot(wP, inner))

    return F


_SQRT_PI = math.sqrt(math.pi)


def _log_a(F: float, log_c: float) -> float:
    """ln A = log_c + ln(1 - F/sqrt(pi)) for the node's log_c =
    ln(r sqrt(2 pi tau_i)/sigma) + r tau_i; -inf where F >= sqrt(pi)."""
    x = 1.0 - F / _SQRT_PI
    return log_c + math.log(x) if x > 0.0 else -math.inf


def _newton(h_and_slope, eta: float, tol: float) -> float | None:
    """Newton's iterate on h from eta once |h| <= tol, or None when h is
    -inf or not finite, a step does not shrink |h|, or _NEWTON_STEPS steps
    do not reach tol."""
    h, dh = h_and_slope(eta)
    for _ in range(_NEWTON_STEPS):
        if abs(h) <= tol:
            return eta
        step = h / dh if dh else math.nan
        if not math.isfinite(step):
            return None
        eta -= step
        size = abs(h)
        h, dh = h_and_slope(eta)
        if not abs(h) < size:
            return None
    return eta if abs(h) <= tol else None


def _solve_node(taus: np.ndarray, etas: np.ndarray, i: int, p: MarketParams) -> float:
    """Value of eta at mesh node i >= 2, given the path etas[1:i] solved so
    far; etas[i:] is not read.

    Samples the path and builds the F integrand once, then solves
    H(eta) = eta^2 + ln A(eta) = 0 by Newton steps on the analytic slope
    H' = 2 eta - F'/(sqrt(pi) - F), from the linear extrapolation
    2 eta_{i-1} - eta_{i-2} of the two nodes before (the previous value at
    node 2), and accepts a point with |H| <= _ROOT_TOL/2.  If ln A is -inf,
    a step does not shrink |H| or _NEWTON_STEPS steps do not converge, the
    node raises LogDomainError naming it, its tau and the start.
    """
    tau_i = float(taus[i])
    st = _theta_nodes()[0]
    F = _f_of_eta(tau_i, *_sample(taus, etas, i, tau_i * st * st, p), p)
    log_c = _log_eta_argument(tau_i, p) - math.log(2.0)

    def h_and_slope(eta: float) -> tuple[float, float]:
        """H(eta) = eta^2 + ln A(eta), extended by -inf where A <= 0, and
        H'(eta); a root is a solution e^{-eta^2} = A of either sign."""
        f, df = F(eta)
        log_a = _log_a(f, log_c)
        if log_a == -math.inf:
            return -math.inf, math.nan
        return eta * eta + log_a, 2.0 * eta - df / (_SQRT_PI - f)

    prev = float(etas[i - 1])
    start = 2.0 * prev - float(etas[i - 2]) if i > 2 else prev
    eta = _newton(h_and_slope, start, 0.5 * _ROOT_TOL)
    if eta is None:
        raise LogDomainError(
            f"node {i} (tau={tau_i:g}): Newton's steps from eta={start:.6g} "
            "do not solve eta^2 + ln A = 0"
        )
    return eta


def solve_boundary(
    p: MarketParams,
    T: float,
    m: int,
    mesh: MeshKind = MeshKind.QUADRATIC,
) -> BoundaryCurve:
    """Whole boundary curve on [0, T] by the sequential node-by-node solve.

    rho_0 = E at tau = 0; every later node maps its eta through
    rho_i = E exp(-(r - sigma^2/2) tau_i + sigma sqrt(2 tau_i) eta_i).
    Failures carry the index of the offending node.
    """
    grid = build_mesh(T, m, mesh, p)
    taus = grid.taus
    etas = np.full(m + 1, math.nan)  # node 0 carries no unknown
    etas[1] = eta_lowest_order(float(taus[1]), p)
    for i in range(2, m + 1):
        try:
            etas[i] = _solve_node(taus, etas, i, p)
        except NumericalError as exc:
            raise type(exc)(f"boundary solve failed at node {i}: {exc}") from exc
    rhos = np.empty(m + 1)
    rhos[0] = p.strike
    rhos[1:] = p.strike * np.exp(
        -(p.r - 0.5 * p.sigma**2) * taus[1:] + p.sigma * np.sqrt(2.0 * taus[1:]) * etas[1:]
    )
    return BoundaryCurve(grid, rhos)
