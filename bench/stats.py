"""Order statistics shared by the runner and the tracer."""

from __future__ import annotations

import statistics
from typing import NamedTuple

#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


class Percentile(NamedTuple):
    value: float
    percentile: float
    beyond: int
    n: int

    def describe(self) -> str:
        return f"p{self.percentile:.4g} of {self.n} samples, {self.beyond} beyond it"


def tail(values) -> Percentile:
    """The highest nearest-rank percentile that has at least TAIL_BEYOND
    samples beyond it.  Below 2 * TAIL_BEYOND samples that percentile lies
    under the median; runs of at most TAIL_BEYOND samples report their
    smallest.  An empty list gives 0."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return Percentile(0.0, 0.0, 0, 0)
    k = max(0, n - 1 - TAIL_BEYOND)
    return Percentile(xs[k], 100.0 * (k + 1) / n, n - 1 - k, n)


def median(values) -> float:
    return statistics.median(values) if values else 0.0
