"""Finite-difference benchmark: Crank-Nicolson on the transformed inequality.

The change of variables x = ln(S/E), tau = T - t,
u(x, tau) = e^{alpha x + beta tau} V(E e^x, T - tau)/E with
alpha = r/sigma^2 - 1/2 and beta = r/2 + sigma^2/8 + r^2/(2 sigma^2) turns
the pricing inequality into an obstacle problem for the heat equation
u_tau = (sigma^2/2) u_xx, u >= e^{beta tau} g with g = e^{alpha x}(1 - e^x)^+.
The obstacle problem is positively homogeneous, so the solve marches the
scaled levels w = e^{-beta tau} u = e^{alpha x} V/E instead: each
Crank-Nicolson step applies e^{-beta k} to the right-hand side and keeps
the one fixed obstacle g, and no level grows with tau.  Each step is a
tridiagonal linear complementarity problem whose contact set is one
interval at the left edge, so it is solved exactly by the Brennan-Schwartz
step: one elimination from right to left, then one substitution from left
to right that clips each value to the obstacle (Brennan and Schwartz 1977;
Jaillet, Lamberton and Lapeyre 1990).  This is the point projected SOR
converges to, without its sweeps.  Both passes are first-order linear
recurrences with coefficients fixed for the whole solve, so each runs as a
cumulative-sum prefix scan (Blelloch 1990), and the contact interval is
found in one vectorised comparison.  The early exercise boundary is read
off each time level as the point where the price detaches from the payoff
by more than a contact tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryCurve,
    DomainError,
    MarketParams,
    NumericalError,
    TauGrid,
)

__all__ = [
    "PsorConfig",
    "PsorSolution",
    "NoContactError",
    "psor_solve",
    "extract_boundary",
    "price_at",
]


class NoContactError(NumericalError):
    """Even the leftmost grid node is off the payoff: the domain is too narrow."""


@dataclass(frozen=True)
class PsorConfig:
    """Grid for the benchmark solve.

    x-nodes run over [-L, L] with spacing h = L/n (2n+1 nodes), time levels
    over [0, T] with step k = T/m; L and T must be positive and finite, and
    h^2 must not underflow.  omega (in (0, 2)) and tol (positive) are the
    relaxation factor and stopping rule of projected SOR; they are still
    validated, but the exact step does not use them, so they no longer
    affect the result.
    """

    n: int
    m: int
    T: float
    L: float = 2.5
    omega: float = 1.5
    tol: float = 1e-10

    def __post_init__(self):
        if self.n < 2 or self.m < 1:
            raise DomainError(f"grid too small: n={self.n}, m={self.m}")
        if not (0 < self.L < math.inf and 0 < self.T < math.inf):
            raise DomainError(f"L and T must be positive and finite, got L={self.L}, T={self.T}")
        if not self.h * self.h >= np.finfo(float).tiny:
            raise DomainError(f"step h = L/n = {self.h:g} too small: h^2 underflows")
        if not 0.0 < self.omega < 2.0:
            raise DomainError(f"omega must lie in (0, 2), got {self.omega}")
        if not self.tol > 0:
            raise DomainError("tolerances must be positive")

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def k(self) -> float:
        return self.T / self.m


@dataclass(frozen=True)
class PsorSolution:
    """Scaled-grid solution u(x_i, tau_j) = e^{alpha x_i} V(E e^{x_i}, T - tau_j)/E.

    The price is recovered as V(S, t) = E e^{-alpha x} u with x = ln(S/E),
    tau = T - t; by construction u never falls below the obstacle
    e^{alpha x}(1 - e^x)^+, so V >= (E - S)^+ at every node.  x and taus
    are the solve's own grids, read-only.
    """

    u: np.ndarray
    config: PsorConfig
    params: MarketParams
    alpha: float
    x: np.ndarray
    taus: np.ndarray

    def payoff_rel(self) -> np.ndarray:
        """(1 - e^x)^+ on the spatial grid (payoff / strike)."""
        return np.maximum(1.0 - np.exp(self.x), 0.0)


def transform_constants(p: MarketParams) -> tuple[float, float]:
    alpha = p.r / p.sigma**2 - 0.5
    beta = 0.5 * p.r + p.sigma**2 / 8.0 + p.r**2 / (2.0 * p.sigma**2)
    return alpha, beta


#: most negative ln D allowed inside one scan block, so 1/D <= e^600 ~ 4e260
_SCAN_DEPTH = 600.0

#: below this bound on |y| the partial sums of b/D stay under
#: len(b) 2^100 e^600, far from overflow, so the scan is scaled only above it
_SCAN_SAFE = 2.0**100


class _LinearScan:
    """The first-order linear recurrence y_i = b_i + a_i y_{i-1} for fixed
    coefficients 0 < a_i <= 1, evaluated for any right-hand side b as
    prefix scans (Blelloch 1990): y = D cumsum(b/D) with D = cumprod(a).

    D decays geometrically, so the coefficients are cut once into blocks
    inside which D stays above e^-_SCAN_DEPTH; each block restarts D at 1
    and folds in the last y of the block before it.  The caller passes a
    bound on |y| (which also bounds |b|); when it could overflow the
    partial sums, every block is scaled by one power of 2 first, which is
    exact, so no intermediate value overflows while the result is finite.
    """

    def __init__(self, a: np.ndarray):
        self.a = a = np.asarray(a, dtype=float)
        depth = np.zeros(a.size)
        np.cumsum(-np.log(a[1:]), out=depth[1:])
        D = np.ones(a.size)
        self.bounds = [0]
        while self.bounds[-1] < a.size:
            s = self.bounds[-1]
            e = max(s + 1, int(np.searchsorted(depth, depth[s] + _SCAN_DEPTH, side="right")))
            np.cumprod(a[s + 1 : e], out=D[s + 1 : e])
            self.bounds.append(e)
        self.D = D
        self.inv_D = 1.0 / D
        self.blocks = list(zip(self.bounds[:-1], self.bounds[1:]))

    def __call__(self, b: np.ndarray, start: int, bound: float) -> np.ndarray:
        """Overwrite b[start:] with y[start:] for the recurrence started at
        y_start = b_start (a_start is not used) and return that view; bound
        must be at least max |y_i| over it."""
        y = b[start:]
        exp2 = math.frexp(bound)[1] if bound > _SCAN_SAFE else 0
        for s, e in self.blocks:
            if e <= start:
                continue
            lo = max(s, start)
            seg = y[lo - start : e - start]
            if lo > start:
                seg[0] += self.a[lo] * y[lo - start - 1]
            if exp2:
                np.ldexp(seg, -exp2, out=seg)
            seg *= self.inv_D[lo:e]
            np.add.accumulate(seg, out=seg)
            seg *= self.D[lo:e]
            if exp2:
                np.ldexp(seg, exp2, out=seg)
        return y


def psor_solve(p: MarketParams, cfg: PsorConfig) -> PsorSolution:
    """March the obstacle problem over all time levels.

    Crank-Nicolson weighting on the heat operator for the scaled levels
    w_j = e^{-beta tau_j} u_j: each level solves the LCP with right-hand
    side e^{-beta k} times the explicit half-step of w_{j-1} and the one
    fixed obstacle g = e^{alpha x}(1 - e^x)^+, by the Brennan-Schwartz
    step.  The elimination diagonal d'_i = d - c^2/d'_{i+1}
    (d = 1 + lam, c = lam/2) is the same at every level and is computed
    once.  Both passes are first-order linear recurrences with these fixed
    coefficients, so each level runs them as two prefix scans
    (_LinearScan):

    - elimination, right to left: r'_i = r_i + (c/d'_{i+1}) r'_{i+1};
    - contact prefix: while w_{i-1} sits on the obstacle g_{i-1}, the
      substitution's value is v_i = (r'_i + c g_{i-1})/d'_i at every node
      at once, and the first v_i > g_i is the first node off the obstacle;
    - free suffix, left to right from there:
      w_i = r'_i/d'_i + (c/d'_i) w_{i-1}, clipped to the obstacle.

    The left boundary is pinned to the obstacle (the deep-exercise value,
    where V(0, t) = E in the untruncated problem), the right boundary to 0.
    """
    alpha, beta = transform_constants(p)
    n, m = cfg.n, cfg.m
    h, k = cfg.h, cfg.k
    lam = p.sigma**2 * k / (2.0 * h * h)
    c = 0.5 * lam
    if not math.isfinite(c * c):
        raise DomainError(f"lambda = sigma^2 k/(2 h^2) = {lam:g} too large: h = {h:g}, k = {k:g}")
    decay = math.exp(-beta * k)
    c_rhs, mid_rhs = c * decay, (1.0 - lam) * decay
    x = np.linspace(-cfg.L, cfg.L, 2 * n + 1)
    taus = np.linspace(0.0, cfg.T, m + 1)
    x.flags.writeable = taus.flags.writeable = False
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        g = np.exp(alpha * x) * np.maximum(1.0 - np.exp(x), 0.0)
    if not np.all(np.isfinite(g)):
        raise DomainError("transformed payoff not finite on the grid; reduce L")

    # one contiguous row per level; the solution is its transpose
    U = np.empty((m + 1, 2 * n + 1))
    U[:, 0], U[:, -1] = g[0], 0.0
    U[0] = g

    last = 2 * n - 1  # last interior node; w = 0 beyond it
    dp = [1.0 + lam]
    for _ in range(last - 1):
        dp.append(1.0 + lam - c * c / dp[-1])
    dp = np.array(dp[::-1])  # d'_1 .. d'_last
    ratio = c / dp
    # elimination runs over nodes last..1 with coefficient c/d'_{i+1}; the
    # first coefficient is never used
    eliminate = _LinearScan(np.concatenate(([0.0], ratio[:0:-1])))
    substitute = _LinearScan(ratio)
    gi = g[1:-1]
    cg = c * g[:-2]
    # scan bounds: w >= g >= 0 at every level, so
    # |rhs| <= (2c + |1 - lam|) e^{-beta k} max w_{j-1}; a scan whose
    # coefficients are at most max(c/d') multiplies a bound by at most grow,
    # and the substitution's input adds c max g and divides by min d'
    grow = 1.0 / (1.0 - float(ratio.max()))
    r_gain = (2.0 * c + abs(1.0 - lam)) * decay * grow
    cg_max, dp_min = float(cg.max()), float(dp.min())

    for j in range(1, m + 1):
        prev = U[j - 1]
        r = c_rhs * (prev[:-2] + prev[2:]) + mid_rhs * prev[1:-1]
        bound = r_gain * float(prev.max())
        eliminate(r[::-1], 0, bound)  # right to left, in place: r is now r'_1 .. r'_last
        v = (r + cg) / dp
        off = v > gi
        i0 = int(off.argmax())
        w = U[j, 1:-1]
        if off[i0]:
            w[:i0] = gi[:i0]
            r /= dp
            r[i0] = v[i0]
            y = substitute(r, i0, (bound + cg_max) / dp_min * grow)
            np.maximum(y, gi[i0:], out=w[i0:])
        else:
            w[:] = gi
    return PsorSolution(U.T, cfg, p, alpha, x, taus)


def extract_boundary(sol: PsorSolution, contact_tol: float = 1e-8) -> BoundaryCurve:
    """Exercise boundary per time level: the largest price still on the payoff.

    The exercise region is the connected interval starting at the left edge,
    so the boundary sits between the last node whose detachment gap
    (V - payoff, relative to the strike) is within contact_tol and the first
    node beyond it; linear interpolation of the gap across that cell places
    the crossing.  A detached leftmost node means the grid does not reach
    the exercise region (NoContactError, at the first such level).  The gaps
    of all levels are one array, u e^{-alpha x} - payoff, built in place.
    """
    if not contact_tol > 0:
        raise DomainError(f"contact_tol must be positive, got {contact_tol}")
    x = sol.x
    taus = sol.taus
    E = sol.params.strike
    gap = sol.u[:, 1:].T * np.exp(-sol.alpha * x)
    gap -= sol.payoff_rel()
    detached = gap > contact_tol
    ifd = detached.argmax(axis=1)
    detaches = detached.any(axis=1)
    edge = detaches & (ifd <= 1)
    if edge.any():
        # only the pinned edge node is on the payoff: the exercise region
        # lies outside the grid
        j = int(edge.argmax()) + 1
        raise NoContactError(
            f"level {j}: contact region does not reach past the left edge at "
            f"tau={taus[j]:g} on the grid L={sol.config.L:g}, n={sol.config.n}, m={sol.config.m}"
        )
    rows = np.flatnonzero(detaches)
    ifd = ifd[rows]
    ic = ifd - 1
    g0, g1 = gap[rows, ic], gap[rows, ifd]
    frac = (contact_tol - g0) / (g1 - g0)
    xf = x[ic] + frac * (x[ifd] - x[ic])
    rhos = np.full(taus.size, E, dtype=float)
    rhos[rows + 1] = [E * math.exp(v) for v in xf.tolist()]
    return BoundaryCurve(TauGrid(taus), rhos)


def price_at(sol: PsorSolution, S: float, t: float) -> float:
    """Price lookup V(S, t) on the solved grid: linear in x on the two time
    levels around tau = T - t, then linear in tau between them."""
    p = sol.params
    cfg = sol.config
    if not S > 0:
        raise DomainError(f"price must be positive, got S={S}")
    xq = math.log(S / p.strike)
    if not -cfg.L <= xq <= cfg.L:
        raise DomainError(f"ln(S/E)={xq:.6g} outside [-{cfg.L}, {cfg.L}]")
    tau = cfg.T - t
    if not -1e-12 <= tau <= cfg.T + 1e-12:
        raise DomainError(f"t={t} outside [0, {cfg.T}]")
    tau = min(max(tau, 0.0), cfg.T)

    j = min(int(tau / cfg.k), cfg.m - 1)
    wt = (tau - sol.taus[j]) / cfg.k
    u0, u1 = (np.interp(xq, sol.x, sol.u[:, level]) for level in (j, j + 1))
    value = p.strike * math.exp(-sol.alpha * xq) * ((1 - wt) * u0 + wt * u1)
    # interpolation can dip below the obstacle between nodes; the true
    # price never does
    return max(value, p.strike - S, 0.0)
