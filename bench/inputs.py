"""Seeded request inputs for the three workloads.

A long-horizon or near-expiry run holds only about fifteen requests, so
their markets are drawn by stratified blocks: within a block of B requests
every input dimension visits each of its B strata once, with a uniform
jitter inside the stratum.  The first dimension, which sets the cost of a
request, visits its strata in bit-reversed order, so any prefix of a block
is spread over the whole range.  The other dimensions are paired with the
first by a fixed rank-1 lattice (stratum g*i mod B), which keeps the mix of
markets in a run of a dozen requests nearly the same for every seed.  Every
seed still draws different markets.  A param-scan run holds hundreds of
requests and uses plain seeded draws.

This module does not import putboundary: the program only ever sees the
values generated here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: convexity threshold of the integral formula (zhu.gamma_critical)
GAMMA0 = 0.0167821

#: times to maturity of the paper's long-horizon comparison table
TABLE_TAUS = (0.02, 0.04, 0.06, 0.08, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)

#: closed forms scored by the near-expiry sweep, as named on the command line
CLOSED_FORMS = ("kk", "ekk", "ssc-a", "chen-chadam", "zhu-asymptote")

#: methods of one param-scan request; zhu is the reference column
SCAN_METHODS = CLOSED_FORMS + ("zhu",)


def _bit_reversed(n: int) -> list[int]:
    bits = max(1, (n - 1).bit_length())
    order = sorted(range(1 << bits), key=lambda k: int(f"{k:0{bits}b}"[::-1], 2))
    return [k for k in order if k < n]


class Stratified:
    """Unit-cube samples, one per request, in stratified blocks.

    lattice holds one multiplier per dimension after the first."""

    def __init__(self, seed: int, block: int, lattice: tuple[int, ...]):
        self.rng = random.Random(seed)
        self._block = block
        self._lattice = lattice
        self._first = _bit_reversed(block)
        self._pending: list[tuple[float, ...]] = []

    def _new_block(self):
        B = self._block
        columns = [self._first] + [[(g * i) % B for i in self._first] for g in self._lattice]
        self._pending = [
            tuple((col[i] + self.rng.random()) / B for col in columns) for i in range(B)
        ]
        self._pending.reverse()

    def next(self) -> tuple[float, ...]:
        if not self._pending:
            self._new_block()
        return self._pending.pop()


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(_uniform(u, math.log(lo), math.log(hi)))


@dataclass(frozen=True)
class Market:
    r: float
    sigma: float
    strike: float

    @property
    def gamma(self) -> float:
        return 2.0 * self.r / self.sigma**2


@dataclass(frozen=True)
class ScanRequest:
    """One `compare` invocation: a market, four taus and its stratum."""

    market: Market
    taus: tuple[float, ...]
    stratum: str

    def argv(self) -> list[str]:
        m = self.market
        return [
            "compare",
            "--method", ",".join(SCAN_METHODS),
            "--benchmark", "zhu",
            "--tau", ",".join(repr(t) for t in self.taus),
            "--r", repr(m.r),
            "--sigma", repr(m.sigma),
            "--E", repr(m.strike),
            "--precision", "10",
        ]


def long_horizon(seed: int):
    """Markets r in [0.05, 0.15], sigma in [0.2, 0.4], E in {1, 100}."""
    s = Stratified(seed, 16, lattice=(5,))
    while True:
        u_sigma, u_r = s.next()
        yield Market(
            r=_uniform(u_r, 0.05, 0.15),
            sigma=_uniform(u_sigma, 0.2, 0.4),
            strike=s.rng.choice((1.0, 100.0)),
        )


def near_expiry(seed: int):
    """Unit-strike markets r in [0.05, 0.15], sigma in [0.2, 0.4]."""
    s = Stratified(seed, 16, lattice=(5,))
    while True:
        u_sigma, u_r = s.next()
        yield Market(r=_uniform(u_r, 0.05, 0.15), sigma=_uniform(u_sigma, 0.2, 0.4), strike=1.0)


#: every eighth request per special stratum, the other half from the base band
_SCAN_STRATA = ("base", "below-gamma0", "base", "above-gamma0", "base", "gamma-1", "base", "gamma-5+")


def _scan_market(stratum: str, u_a: float, u_b: float, strike: float) -> Market:
    if stratum == "base":
        return Market(r=_log_uniform(u_a, 0.005, 0.2), sigma=_uniform(u_b, 0.15, 0.8), strike=strike)
    if stratum == "gamma-5+":
        # r and sigma = sqrt(2r/gamma) both stay inside the base ranges
        r = _log_uniform(u_a, 0.06, 0.2)
        gamma = _log_uniform(u_b, 5.0, 2.0 * r / 0.15**2)
        return Market(r=r, sigma=math.sqrt(2.0 * r / gamma), strike=strike)
    sigma = _uniform(u_b, 0.15, 0.8)
    if stratum == "gamma-1":
        # 2 * (0.5 * s^2) == s^2 in binary floating point, so gamma is exactly 1
        return Market(r=0.5 * sigma**2, sigma=sigma, strike=strike)
    lo, hi = (0.7, 0.95) if stratum == "below-gamma0" else (1.05, 1.5)
    gamma = GAMMA0 * _uniform(u_a, lo, hi)
    return Market(r=0.5 * gamma * sigma**2, sigma=sigma, strike=strike)


def param_scan(seed: int):
    """`compare` requests over r log-uniform [0.005, 0.2], sigma [0.15, 0.8]
    and four taus log-uniform in [1e-5, 5], with fixed shares near gamma0,
    at gamma = 1 and at gamma >= 5."""
    rng = random.Random(seed)
    k = 0
    while True:
        u = [rng.random() for _ in range(7)]
        stratum = _SCAN_STRATA[k % len(_SCAN_STRATA)]
        k += 1
        market = _scan_market(stratum, u[1], u[2], 1.0 if u[3] < 0.5 else 100.0)
        taus = tuple(sorted(_log_uniform(x, 1e-5, 5.0) for x in (u[0], *u[4:7])))
        yield ScanRequest(market, taus, stratum)


GENERATORS = {
    "long-horizon": long_horizon,
    "near-expiry": near_expiry,
    "param-scan": param_scan,
}
