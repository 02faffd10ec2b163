"""One request of each workload, and the warm-up that precedes a run.

Every call into the program goes through the `putboundary` package (or
`putboundary.cli`) looked up at call time, so a traced run sees the
wrappers the tracer bound there.  The end-to-end path uses only API that
the planned refactors keep: MarketParams, solve_boundary, MeshKind,
PsorConfig(n, m, T, L, omega, tol), psor_solve, extract_boundary, the five
rho_* closed forms, rho_zhu, the pricing functions and cli.main.
"""

from __future__ import annotations

import contextlib
import importlib
import io

import checks
from inputs import CLOSED_FORMS, TABLE_TAUS, Market, ScanRequest

NEAR_EXPIRY_T = 0.006
NEAR_EXPIRY_POINTS = 40
GAP_TAUS = (1e-4, 1e-3, 6e-3)

#: CLI method name -> package function, as `putboundary compare` maps them
CLOSED_FORM_FUNCTIONS = {
    "kk": "rho_kk",
    "ekk": "rho_ekk",
    "ssc-a": "rho_ssc_analytic",
    "chen-chadam": "rho_chen_chadam",
    "zhu-asymptote": "rho_zhu_asymptote",
}


class ProgramFailure(Exception):
    """The program reported a failure of its own: a typed error or a
    non-zero exit code of the CLI.  The request fails; the output is not
    wrong."""


def _pb():
    return importlib.import_module("putboundary")


def _closed_form(pb, method: str, p):
    """tau -> rho with the strike at tau = 0, wrapped the way the CLI does."""
    fn = getattr(pb, CLOSED_FORM_FUNCTIONS[method])
    return lambda tau: p.strike if tau == 0.0 else fn(tau, p)


def long_horizon_table(m: Market):
    """The five-year comparison table for one market: ssch, psor and zhu at
    the table taus, and the relative errors against psor.  Every step runs
    even when an earlier one fails.  Returns the columns (None where the
    step failed) and the typed errors raised."""
    pb = _pb()
    p = pb.MarketParams(r=m.r, sigma=m.sigma, strike=m.strike)
    failures = []
    ssch = psor = zhu = None
    try:
        ssch_curve = pb.solve_boundary(p, 5.0, 100, pb.MeshKind.QUADRATIC)
        ssch = [float(ssch_curve.value(t)) for t in TABLE_TAUS]
    except (pb.DomainError, pb.NumericalError) as exc:
        failures.append(exc)
    try:
        sol = pb.psor_solve(p, pb.PsorConfig(n=200, m=200, T=5.0, L=1.0, omega=1.6, tol=1e-9))
        psor_curve = pb.extract_boundary(sol)
        psor = [float(psor_curve.value(t)) for t in TABLE_TAUS]
    except (pb.DomainError, pb.NumericalError) as exc:
        failures.append(exc)
    try:
        zhu = [pb.rho_zhu(t, p) for t in TABLE_TAUS]
    except (pb.DomainError, pb.NumericalError) as exc:
        failures.append(exc)
    if psor is not None:
        for col in (ssch, zhu):
            for t, v in zip(TABLE_TAUS, col or ()):
                pb.boundary_rel_err(psor_curve, lambda _t, v=v: v, t)
    return {"psor": psor, "ssch": ssch, "zhu": zhu}, failures


#: the known ssch defect at T = 5: for gamma >~ 2.4 eta reaches 0 before
#: tau = 5 and the solver, which admits only eta < 0, raises one of these.
#: The table then gets an n/a ssch column, like a closed form out of its
#: domain in the other workloads; the request counts it in Verdict.na.
SSCH_KNOWN_DEFECT = ("BracketError", "LogDomainError")


def long_horizon(m: Market) -> checks.Verdict:
    """A table whose psor or zhu column failed, or whose ssch column failed
    other than by the known defect, raises the first typed error."""
    cols, failures = long_horizon_table(m)
    if cols["psor"] is None or cols["zhu"] is None:
        raise failures[0]
    verdict = checks.check_long_horizon(m, TABLE_TAUS, cols["psor"], cols["ssch"], cols["zhu"])
    if not verdict.ok:
        return verdict
    unexpected = [e for e in failures if type(e).__name__ not in SSCH_KNOWN_DEFECT]
    if unexpected:
        raise unexpected[0]
    return verdict._replace(na=len(failures))


def near_expiry_taus(tau1: float) -> list[float]:
    """40 geometric taus from twice the first mesh node to T."""
    lo, hi = 2.0 * tau1, NEAR_EXPIRY_T
    k = NEAR_EXPIRY_POINTS - 1
    return [lo * (hi / lo) ** (i / k) for i in range(NEAR_EXPIRY_POINTS)]


def near_expiry_outputs(m: Market):
    """Mispricing sweep of the five closed forms against the ssch truth
    curve, and the two price-gap routes at the true boundary.  Returns the
    truth samples, the (eps, err) cells with None for the expected n/a of a
    DomainError, and the (direct, full) gap pairs."""
    pb = _pb()
    p = pb.MarketParams(r=m.r, sigma=m.sigma, strike=m.strike)
    truth = pb.solve_boundary(p, NEAR_EXPIRY_T, 80)
    taus = near_expiry_taus(float(truth.grid.taus[1]))
    cells = []
    gaps = []
    for method in CLOSED_FORMS:
        app = _closed_form(pb, method, p)
        for t in taus:
            try:
                eps = pb.boundary_rel_err(truth, app, t)
            except pb.DomainError:
                eps = None
            try:
                err = pb.mispricing_err(truth, app, t, p)
            except pb.DomainError:
                err = None
            cells.append((eps, err))
        for t in GAP_TAUS:
            try:
                direct = pb.price_gap_at_boundary(truth, app, t, p)
                full = pb.price_gap_full(truth, app, float(truth.value(t)), t, p)
            except pb.DomainError:
                continue
            gaps.append((direct, full))
    return truth.rhos.tolist(), cells, gaps


def near_expiry(m: Market) -> checks.Verdict:
    return checks.check_near_expiry(m, *near_expiry_outputs(m))


def compare_output(req: ScanRequest) -> tuple[int, str]:
    """Exit code and stdout of one in-process `putboundary compare`."""
    cli = importlib.import_module("putboundary.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(req.argv())
    return code, out.getvalue()


def param_scan(req: ScanRequest) -> checks.Verdict:
    code, text = compare_output(req)
    if code in (1, 2):
        raise ProgramFailure(f"compare exited with {code}")
    return checks.check_param_scan(req.market, req.taus, code, text)


def warm_up(workload: str):
    """Fixed small calls along the workload's path, outside the timed loop."""
    pb = _pb()
    if workload == "param-scan":
        req = ScanRequest(Market(0.1, 0.3, 100.0), (1e-3, 0.1, 1.0, 5.0), "warm-up")
        param_scan(req)
        return
    p = pb.MarketParams(r=0.1, sigma=0.3, strike=1.0)
    if workload == "long-horizon":
        curve = pb.solve_boundary(p, 0.05, 8, pb.MeshKind.QUADRATIC)
        cfg = pb.PsorConfig(n=20, m=4, T=0.05, L=1.0, omega=1.6, tol=1e-9)
        fd = pb.extract_boundary(pb.psor_solve(p, cfg))
        pb.boundary_rel_err(fd, curve, 0.05)
        pb.rho_zhu(0.05, p)
        return
    truth = pb.solve_boundary(p, NEAR_EXPIRY_T, 8)
    for method in CLOSED_FORMS:
        app = _closed_form(pb, method, p)
        pb.boundary_rel_err(truth, app, 1e-3)
    app = _closed_form(pb, "zhu-asymptote", p)
    pb.mispricing_err(truth, app, 1e-3, p)
    pb.price_gap_full(truth, app, float(truth.value(1e-3)), 1e-3, p)


REQUESTS = {
    "long-horizon": long_horizon,
    "near-expiry": near_expiry,
    "param-scan": param_scan,
}

def typed_failures():
    """Failures the program reports itself, as opposed to wrong numbers."""
    pb = _pb()
    return (ProgramFailure, pb.DomainError, pb.NumericalError)
