"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

The output checks must bite on corrupted output, and a smoke-size run of
every workload must print every metric by name and unit.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from inputs import Market, ScanRequest  # noqa: E402

#: a long-horizon market on which every solver succeeds
GOOD = Market(r=0.1, sigma=0.3, strike=100.0)

SEVEN = ("setup_s", "goodput_rps", "req_ms.p50", "req_ms.tail", "fail_ratio",
         "xcheck_err", "peak_rss_mb")


def _contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- output checks bite -------------------------------------------------------

@pytest.fixture(scope="module")
def table():
    cols, failures = workloads.long_horizon_table(GOOD)
    assert not failures
    return cols


def test_long_horizon_check_passes_and_bites_on_shifted_psor(table):
    ok = checks.check_long_horizon(GOOD, inputs.TABLE_TAUS, table["psor"], table["ssch"], table["zhu"])
    assert ok.ok and 0.0 < ok.xcheck < checks.LONG_XCHECK_TOL
    for sign in (1.0, -1.0):
        shifted = [v + sign * 0.01 * GOOD.strike for v in table["psor"]]
        bad = checks.check_long_horizon(GOOD, inputs.TABLE_TAUS, shifted, table["ssch"], table["zhu"])
        assert not bad.ok


def test_long_horizon_check_bites_on_rising_column(table):
    rising = list(table["zhu"])
    rising[-1] = rising[-2] + 0.01 * GOOD.strike
    assert not checks.check_long_horizon(GOOD, inputs.TABLE_TAUS, table["psor"], None, rising).ok


def test_known_ssch_defect_is_an_expected_na_column():
    # gamma = 3, sigma = 0.25: eta reaches 0 near tau = 4.3 and ssch raises
    m = Market(r=0.5 * 3.0 * 0.25**2, sigma=0.25, strike=1.0)
    cols, failures = workloads.long_horizon_table(m)
    assert cols["ssch"] is None
    assert [type(e).__name__ for e in failures] in (["BracketError"], ["LogDomainError"])
    verdict = workloads.long_horizon(m)
    assert verdict.ok and verdict.na == 1


@pytest.fixture(scope="module")
def sweep():
    m = Market(r=0.1, sigma=0.3, strike=1.0)
    return m, workloads.near_expiry_outputs(m)


def test_near_expiry_check_passes_and_bites_on_scaled_gap_route(sweep):
    m, (truth, cells, gaps) = sweep
    ok = checks.check_near_expiry(m, truth, cells, gaps)
    assert ok.ok and ok.xcheck < 1e-6
    for k in range(len(gaps)):
        scaled = list(gaps)
        direct, full = scaled[k]
        scaled[k] = (direct, 1.01 * full)
        assert not checks.check_near_expiry(m, truth, cells, scaled).ok
        scaled[k] = (1.01 * direct, full)
        assert not checks.check_near_expiry(m, truth, cells, scaled).ok


def test_near_expiry_check_bites_on_negative_mispricing(sweep):
    m, (truth, cells, gaps) = sweep
    bad = [(eps, -err if err else err) for eps, err in cells]
    assert not checks.check_near_expiry(m, truth, bad, gaps).ok


def _scan_request(gamma_factor: float) -> ScanRequest:
    sigma = 0.3
    r = 0.5 * gamma_factor * sigma**2
    return ScanRequest(Market(r, sigma, 100.0), (1e-4, 0.01, 0.5, 5.0), "test")


def _swap_zhu(text: str, i: int, j: int) -> str:
    header, rows = checks.parse_compare(text)
    z = header.index("zhu")
    rows[i][z], rows[j][z] = rows[j][z], rows[i][z]
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def test_param_scan_check_passes_and_bites_on_non_monotone_zhu():
    req = _scan_request(1.0)
    code, text = workloads.compare_output(req)
    ok = checks.check_param_scan(req.market, req.taus, code, text)
    assert ok.ok and ok.xcheck == 0.0
    assert not checks.check_param_scan(req.market, req.taus, code, _swap_zhu(text, 1, 2)).ok
    assert not checks.check_param_scan(req.market, req.taus, 1, text).ok
    na_in_zhu = text.replace(text.splitlines()[1].split(",")[6], "n/a")
    assert not checks.check_param_scan(req.market, req.taus, code, na_in_zhu).ok


def test_param_scan_below_gamma0_only_needs_finite_values_under_the_strike():
    req = _scan_request(0.7 * inputs.GAMMA0)
    code, text = workloads.compare_output(req)
    assert checks.check_param_scan(req.market, req.taus, code, text).ok
    assert checks.check_param_scan(req.market, req.taus, code, _swap_zhu(text, 1, 2)).ok


# -- inputs ---------------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_inputs_and_repeats_them(workload):
    def draw(seed):
        gen = inputs.GENERATORS[workload](seed)
        return [next(gen) for _ in range(40)]

    assert draw(1) == draw(1)
    assert draw(1) != draw(2)


def test_param_scan_strata():
    reqs = [next(g) for g in [inputs.param_scan(3)] for _ in range(64)]
    by = {}
    for q in reqs:
        by.setdefault(q.stratum, []).append(q.market.gamma)
    assert len(by["base"]) == 32 and all(len(by[k]) == 8 for k in by if k != "base")
    assert all(g == 1.0 for g in by["gamma-1"])
    assert all(g < inputs.GAMMA0 for g in by["below-gamma0"])
    assert all(g > inputs.GAMMA0 for g in by["above-gamma0"])
    assert all(g >= 5.0 * (1 - 1e-12) for g in by["gamma-5+"])
    assert all(1e-5 <= t <= 5.0 for q in reqs for t in q.taus)


# -- smoke-size runs ------------------------------------------------------------

def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _run(workload, seed, trace):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            printed[parts[0]] = parts[2]
    report = json.loads(next(x for x in lines if x.startswith("report "))[len("report "):])
    return result, printed, report


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end(workload):
    result, printed, report = _run(workload, 1, 0)
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    e2e = {m["name"]: m["unit"] for m in _contract()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == e2e
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    for name in SEVEN:
        assert name in printed
    env = report["environment"]
    assert env["pins"] == run.PINS and env["nproc"] >= 1 and "numba_importable" in env
    assert report["seed"] == 1

    other, printed_other, report_other = _run(workload, 2, 0)
    assert report_other["inputs_sha256"] != report["inputs_sha256"]
    assert set(other["metrics"]) == set(result["metrics"])
    assert set(printed_other) == set(printed)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_per_layer(workload):
    result, printed, report = _run(workload, 1, 1)
    per_layer = {m["name"]: m["unit"] for m in _contract()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    assert report["notes"]["absent"] == []
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert (values["psor.solves"] > 0) == (workload == "long-horizon")
    assert (values["cli.requests"] > 0) == (workload == "param-scan")
    assert values["pricing.gap_calls"] > 0 or workload != "near-expiry"
    assert values["zhu.rho_zhu.calls"] > 0 or workload == "near-expiry"


def test_tracer_reports_removed_functions_as_absent():
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import putboundary.ssch as s\n"
        "s.__all__ = [n for n in s.__all__ if n != 'g_eval']; del s.g_eval\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install(); print(t.absent)\n"
    ) % (str(BENCH), str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['ssch.g_eval']"


def test_fails_without_the_package(tmp_path):
    for rel in _contract()["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "param-scan", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_contract_names_match_the_runner():
    c = _contract()
    assert [w["name"] for w in c["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in c["end_to_end"]] == list(run.RESULT_METRICS)
    assert c["command"] == ["python3", "bench/run.py"]
