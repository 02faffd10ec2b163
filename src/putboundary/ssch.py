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
E e^{-(r - sigma^2/2) tau}).
F and G only look backwards: their value at tau depends on eta on [0, tau]
alone, so the unknowns eta(tau_1), ..., eta(tau_m) can be solved one node
at a time, each by a scalar root find warm-started at the previous node.
The very first node comes from the closed small-tau formula; below tau_1 the
path is evaluated by that same formula, between nodes by linear
interpolation.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import _log_eta_argument, eta_lowest_order
from .core import (
    BoundaryCurve,
    BracketError,
    DomainError,
    MarketParams,
    NumericalError,
    QuadratureConfig,
    TauGrid,
    _boole_weights,
    find_root_bracketed,
)

__all__ = [
    "MeshKind",
    "MeshError",
    "LogDomainError",
    "EtaPath",
    "build_mesh",
    "solve_eta_at",
    "solve_boundary",
]


class MeshError(DomainError):
    """The mesh violates the first-node admissibility condition."""


class LogDomainError(NumericalError):
    """The log argument A stayed at or below 0 over the whole root bracket."""


#: times the root bracket of solve_eta_at doubles, from half-width 0.05 to 12.8
BRACKET_DOUBLINGS = 8


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


@dataclass
class EtaPath:
    """Solved values of eta on the leading mesh nodes.

    etas[k] belongs to grid.taus[k+1]; node 0 carries no unknown.  Between
    tau_1 and the last solved node the path interpolates linearly; on
    (0, tau_1) it follows the closed small-tau formula.
    """

    grid: TauGrid
    params: MarketParams
    etas: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(self.etas) > len(self.grid) - 1:
            raise DomainError("more eta values than positive mesh nodes")
        if not all(math.isfinite(e) for e in self.etas):
            raise DomainError("every eta value must be finite")

    @property
    def solved(self) -> int:
        return len(self.etas)

    def append(self, eta: float):
        if not math.isfinite(eta):
            raise DomainError(f"eta must be finite, got {eta}")
        if self.solved >= len(self.grid) - 1:
            raise DomainError("path already complete")
        self.etas.append(float(eta))

    def sample(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Path at times s in [0, tau_next], where tau_next is the first
        unsolved node, as base + slope * eta_next.

        Only the last mesh segment (tau_k, tau_next] depends on the not yet
        committed value eta_next, and it does so linearly; the solved part
        of the path gives slope 0.
        """
        s = np.asarray(s, dtype=float)
        taus = self.grid.taus
        k = self.solved
        if not 1 <= k < len(taus) - 1:
            raise DomainError("sampling needs a solved first node and an unsolved next node")
        base = np.empty_like(s)
        slope = np.zeros_like(s)
        head = s < taus[1]
        base[head] = eta_lowest_order(np.maximum(s[head], 1e-300), self.params)
        inner = ~head & (s <= taus[k])
        base[inner] = np.interp(s[inner], taus[1 : k + 1], self.etas)
        last = s > taus[k]
        w = (s[last] - taus[k]) / (taus[k + 1] - taus[k])
        base[last] = self.etas[-1] * (1.0 - w)
        slope[last] = w
        return base, slope


@functools.lru_cache(maxsize=64)
def _theta_nodes(n: int):
    """Closed Newton-Cotes nodes on [0, pi/2] as the trig factors sin, cos
    and tan reused by every integrand evaluation, plus the weights.

    The endpoint node is shifted to pi/2 - eps: the F integrand's
    G tan(theta) factor is an indeterminate 0 * inf exactly at pi/2, but
    approaches a finite one-sided limit, so the shifted node supplies the
    endpoint value.
    """
    theta = np.linspace(0.0, math.pi / 2.0, n + 1)
    theta[-1] = math.pi / 2.0 - (math.pi / 2.0) / (10.0 * n)
    w = _boole_weights(n) * (2.0 * (math.pi / 2.0 / n) / 45.0)
    return np.sin(theta), np.cos(theta), np.tan(theta), w


def _f_of_eta(tau_i: float, base, slope, p: MarketParams, cfg: QuadratureConfig):
    """The integral F at node tau_i as a function of the trial value eta_i,
    for the path eta(tau_i sin^2 theta) = base + slope * eta_i sampled at
    the quadrature nodes theta.

    G = [eta_i - (base + slope eta_i) sin(th)]/cos(th) is affine in eta_i,
    G = eta_i P + Q, so P, Q, the damping exponent -r tau_i cos^2(th) and
    the factor sigma sqrt(tau_i/2) sin(th) are built once here, and each
    evaluation of the returned function is a handful of array operations.
    """
    if not (tau_i > 0 and math.isfinite(tau_i)):
        raise DomainError(f"tau_i must be positive, got {tau_i}")
    st, ct, tt, w = _theta_nodes(cfg.finite_subintervals)
    P = (1.0 - slope * st) / ct
    Q = -base * st / ct
    damping = -p.r * tau_i * ct * ct
    drift = (p.sigma * math.sqrt(tau_i) / math.sqrt(2.0)) * st

    def F(eta_i: float) -> float:
        G = eta_i * P + Q
        total = 2.0 * float(np.dot(w, np.exp(damping - G * G) * (drift + G * tt)))
        # the weights are positive, so any non-finite integrand value
        # leaves the sum non-finite
        if not math.isfinite(total):
            raise NumericalError(
                f"non-finite integrand in the F integral at tau={tau_i:g}, eta={eta_i!r}"
            )
        return total

    return F


def _log_argument(F: float, tau_i: float, p: MarketParams) -> float:
    return (
        (p.r * math.sqrt(2.0 * math.pi * tau_i) / p.sigma)
        * math.exp(p.r * tau_i)
        * (1.0 - F / math.sqrt(math.pi))
    )


def solve_eta_at(
    path: EtaPath,
    tau_i: float,
    p: MarketParams,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Value of eta at the next mesh node, given the path solved so far.

    The first positive node bypasses root finding and takes the closed
    small-tau value.  Later nodes sample the path and build the F integrand
    once, then solve H(eta) = eta^2 + ln A(eta) = 0 with the bracketed root
    finder, on a bracket of half-width 0.05 around the previous node's value
    that doubles, up to BRACKET_DOUBLINGS times, until it encloses a sign
    change.
    """
    cfg = cfg or QuadratureConfig()
    i = path.solved + 1
    taus = path.grid.taus
    if i >= len(taus):
        raise DomainError("path already covers the whole mesh")
    if not math.isclose(tau_i, taus[i], rel_tol=0.0, abs_tol=1e-14 * max(1.0, taus[i])):
        raise DomainError(f"tau_i={tau_i!r} is not the next unsolved node {taus[i]!r}")

    if i == 1:
        return float(eta_lowest_order(taus[1], p))

    tau_i = float(taus[i])
    st = _theta_nodes(cfg.finite_subintervals)[0]
    F = _f_of_eta(tau_i, *path.sample(tau_i * st * st), p, cfg)

    @functools.cache
    def H(eta: float) -> float:
        """eta^2 + ln A(eta), extended by -inf where A <= 0, which is its
        limit as A falls to 0; a root is a solution e^{-eta^2} = A of
        either sign."""
        A = _log_argument(F(eta), tau_i, p)
        return eta * eta + math.log(A) if A > 0.0 else -math.inf

    prev = path.etas[-1]
    for doublings in range(BRACKET_DOUBLINGS + 1):
        half = 0.05 * 2.0**doublings
        lo, hi = prev - half, prev + half
        if min(H(lo), H(hi)) <= 0.0 <= max(H(lo), H(hi)):
            break
    else:
        error = LogDomainError if math.isinf(H(lo)) or math.isinf(H(hi)) else BracketError
        raise error(
            f"node {i} (tau={tau_i:g}): no sign change of eta^2 + ln A on [{lo:.6g}, {hi:.6g}]"
        )

    eta = find_root_bracketed(H, lo, hi, cfg)
    if not abs(H(eta)) <= cfg.root_tol:
        raise LogDomainError(
            f"node {i} (tau={tau_i:g}): converged point invalid, residual {H(eta)!r}"
        )
    return eta


def solve_boundary(
    p: MarketParams,
    T: float,
    m: int,
    mesh: MeshKind = MeshKind.QUADRATIC,
    cfg: QuadratureConfig | None = None,
) -> BoundaryCurve:
    """Whole boundary curve on [0, T] by the sequential node-by-node solve.

    rho_0 = E at tau = 0; every later node maps its eta through
    rho_i = E exp(-(r - sigma^2/2) tau_i + sigma sqrt(2 tau_i) eta_i).
    Failures carry the index of the offending node.
    """
    cfg = cfg or QuadratureConfig()
    grid = build_mesh(T, m, mesh, p)
    path = EtaPath(grid, p)
    for i in range(1, m + 1):
        try:
            path.append(solve_eta_at(path, float(grid.taus[i]), p, cfg))
        except NumericalError as exc:
            raise type(exc)(f"boundary solve failed at node {i}: {exc}") from exc
    taus = grid.taus
    etas = np.asarray(path.etas)
    rhos = np.empty(m + 1)
    rhos[0] = p.strike
    rhos[1:] = p.strike * np.exp(
        -(p.r - 0.5 * p.sigma**2) * taus[1:] + p.sigma * np.sqrt(2.0 * taus[1:]) * etas
    )
    return BoundaryCurve(grid, rhos)
