"""Output checks of the three workloads.

Each check takes what one request produced and returns a Verdict: whether
the output is right, the request's cross-check error (the worst normalised
disagreement between two independent routes, or the worst bound
violation), and a reason when it is not right.  The thresholds sit well
above the disagreement measured on correct output and well below what a
1 % corruption of one route produces, so a check passes today and bites on
a wrong number.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from inputs import CLOSED_FORMS, GAMMA0, SCAN_METHODS, Market

#: |rho_psor - rho_ssch| / E on taus >= 0.4 (largest seen over the band: 4.1e-3)
LONG_XCHECK_TOL = 5e-3
LONG_XCHECK_MIN_TAU = 0.4
#: |full - direct| / direct between the two price-gap routes (seen: ~3e-8)
GAP_XCHECK_TOL = 1e-4
#: slack for ten printed significant digits, relative to the strike
PRINT_TOL = 1e-9
#: finite-difference boundaries may sit a little under the perpetual level
LEVEL_TOL = 1e-3


class Verdict(NamedTuple):
    ok: bool
    xcheck: float
    reason: str = ""
    #: parts of the output that are an expected n/a
    na: int = 0


def _finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _levels_problem(name: str, values: Sequence[float], m: Market, floor: float | None) -> str:
    """Why a boundary column is not a boundary: non-finite, above the
    strike, under the floor, or rising in tau."""
    if not _finite(values):
        return f"{name}: non-finite value"
    if max(values) > m.strike * (1.0 + PRINT_TOL):
        return f"{name}: above the strike"
    if floor is not None and min(values) < floor - LEVEL_TOL * m.strike:
        return f"{name}: under the perpetual level"
    if any(b > a + PRINT_TOL * m.strike for a, b in zip(values, values[1:])):
        return f"{name}: rises in tau"
    return ""


def perpetual(m: Market) -> float:
    return m.gamma * m.strike / (1.0 + m.gamma)


def check_long_horizon(m: Market, taus, psor, ssch, zhu) -> Verdict:
    """psor and zhu columns at the table taus; ssch is None when its solve
    failed.  The cross check is psor against ssch on taus >= 0.4."""
    for name, col in (("psor", psor), ("zhu", zhu), ("ssch", ssch)):
        if col is None:
            continue
        problem = _levels_problem(name, col, m, perpetual(m))
        if problem:
            return Verdict(False, math.inf, problem)
    if ssch is None:
        return Verdict(True, 0.0)
    err = max(
        abs(a - b) / m.strike
        for t, a, b in zip(taus, psor, ssch)
        if t >= LONG_XCHECK_MIN_TAU
    )
    if not err <= LONG_XCHECK_TOL:
        return Verdict(False, err, f"psor and ssch differ by {err:.3g} E")
    return Verdict(True, err)


def check_near_expiry(m: Market, truth_rhos, cells, gaps) -> Verdict:
    """truth_rhos: the solved curve's samples; cells: (eps, err) per scored
    method and tau, None where the expected n/a applied; gaps: (direct,
    full) pairs of the two price-gap routes at the true boundary."""
    problem = _levels_problem("truth", list(truth_rhos), m, None)
    if problem:
        return Verdict(False, math.inf, problem)
    for eps, err in cells:
        if eps is not None and not (math.isfinite(eps) and abs(eps) < 1.0):
            return Verdict(False, math.inf, f"boundary error {eps!r} out of range")
        if err is not None and not (math.isfinite(err) and err >= 0.0):
            return Verdict(False, math.inf, f"mispricing error {err!r} out of range")
    worst = 0.0
    for direct, full in gaps:
        if not (math.isfinite(direct) and math.isfinite(full) and direct > 0.0):
            return Verdict(False, math.inf, f"price gaps {direct!r}, {full!r} not positive")
        worst = max(worst, abs(full - direct) / direct)
    if not worst <= GAP_XCHECK_TOL:
        return Verdict(False, worst, f"gap routes differ by {worst:.3g}")
    return Verdict(True, worst, na=sum(x is None for cell in cells for x in cell))


def parse_compare(text: str):
    """CSV of `putboundary compare` -> (header, rows of str cells)."""
    lines = text.strip().splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def expected_header() -> list[str]:
    return ["tau", *SCAN_METHODS, *(f"relerr_{k}" for k in CLOSED_FORMS)]


def check_param_scan(m: Market, taus, exit_code: int, text: str) -> Verdict:
    """One `compare` run with zhu as the reference column.  The cross-check
    error is the largest violation, relative to the strike, of the zhu
    bounds: zhu <= E always, and zhu >= perpetual and non-increasing in tau
    when gamma >= gamma0 (below gamma0 the formula loses convexity)."""
    if exit_code != 0:
        return Verdict(False, math.inf, f"exit code {exit_code}")
    header, rows = parse_compare(text)
    if header != expected_header():
        return Verdict(False, math.inf, f"unexpected header {header}")
    if len(rows) != len(taus) or any(len(r) != len(header) for r in rows):
        return Verdict(False, math.inf, "wrong table shape")
    may_be_na = {k for k, col in enumerate(header) if col in CLOSED_FORMS or col.startswith("relerr_")}
    zcol = header.index("zhu")
    zhu = []
    for row in rows:
        if any(cell == "n/a" and k not in may_be_na for k, cell in enumerate(row)):
            return Verdict(False, math.inf, "n/a outside a closed-form column")
        try:
            zhu.append(float(row[zcol]))
        except ValueError:
            return Verdict(False, math.inf, f"zhu cell {row[zcol]!r}")
    if not _finite(zhu):
        return Verdict(False, math.inf, "zhu not finite")
    violation = max(0.0, max(zhu) - m.strike)
    if m.gamma >= GAMMA0:
        violation = max(violation, perpetual(m) - min(zhu))
        violation = max([violation, *(b - a for a, b in zip(zhu, zhu[1:]))])
    violation /= m.strike
    if violation > PRINT_TOL:
        return Verdict(False, violation, f"zhu violates its bounds by {violation:.3g} E")
    return Verdict(True, violation)
