import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from putboundary import (
    DomainError,
    MarketParams,
    SmallTauSubstitution,
    cli,
    gamma_critical,
    rho_zhu,
)
from putboundary.cli import (
    EXIT_DOMAIN,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    _method_evaluator,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestBoundaryCommand:
    def test_single_analytic_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "boundary", "--method", "ekk",
            "--E", "100", "--r", "0.1", "--sigma", "0.3", "--tau", "1e-4",
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["tau", "rho"]
        assert len(rows) == 1
        assert float(rows[0][0]) == 1e-4
        assert float(rows[0][1]) == pytest.approx(99.14, abs=0.01)

    def test_zhu_row(self, capsys):
        code, out, _ = run_cli(capsys, "boundary", "--method", "zhu", "--tau", "1")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(75.458, abs=1e-3)

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "boundary", "--method", "kk", "--tau", "10")
        assert code == EXIT_DOMAIN
        assert "log" in err  # names the violated logarithm condition

    def test_psor_extreme_market_exit_code(self, capsys):
        """gamma = 800 on a narrow grid: a numerical failure with its exit
        code and one typed line on stderr, not a traceback or a warning."""
        code, out, err = run_cli(
            capsys,
            "boundary", "--method", "psor", "--r", "1", "--sigma", "0.05",
            "--T", "5", "--n", "20", "--m", "50", "--L", "0.5",
        )
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("putboundary: numerical failure: level 1: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (("--method", "ssc-a", "--tau", "1e5"), "tau too large"),
            (("--method", "ssch", "--T", "1e5", "--m", "2"), "tau_1=25000 inadmissible"),
        ],
        ids=["ssc-a", "ssch"],
    )
    def test_large_tau_log_argument_exit_code(self, capsys, argv, detail):
        """e^(r tau) of the lowest-order log argument overflows a float once
        r tau > 709 (here 10^4 and 2,500); in log space the argument is
        simply >= 1, a domain error with one line on stderr."""
        code, out, err = run_cli(capsys, "boundary", *argv)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("putboundary: domain error: ")
        assert detail in err

    def test_unknown_method_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "boundary", "--method", "bogus", "--tau", "1")
        assert code == EXIT_USAGE

    def test_missing_tau_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "boundary", "--method", "ekk")
        assert code == EXIT_USAGE

    def test_solver_natural_grid(self, capsys):
        """Without --tau each solver prints its own grid: the ssch mesh nodes
        or the psor time levels, tau = 0 included."""
        for argv, nodes in (
            (("--method", "ssch", "--T", "0.01", "--m", "10"), 11),
            (("--method", "psor", "--T", "0.5", "--n", "50", "--m", "8"), 9),
        ):
            code, out, _ = run_cli(capsys, "boundary", *argv)
            assert code == EXIT_OK, argv
            _, rows = parse_csv(out)
            assert len(rows) == nodes, argv
            assert float(rows[0][1]) == 100.0, argv

    def test_analytic_method_on_horizon_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "boundary", "--method", "ekk", "--T", "0.01", "--m", "4"
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 5
        assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 100.0
        assert float(rows[-1][1]) < 100.0

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, "boundary", "--method", "ekk", "--tau", "1e-4", "--out", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith("tau,rho\n") and text.endswith("\n")


class TestCompareCommand:
    def test_relative_errors_and_na_cells(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--method", "ekk,zhu,ssc-a", "--benchmark", "ekk",
            "--tau", "1e-4,0.5",
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["tau", "ekk", "zhu", "ssc-a", "relerr_zhu", "relerr_ssc-a"]
        # the sqrt-log formulas are undefined at tau = 0.5 for these parameters
        assert rows[1][1] == "n/a" and rows[1][3] == "n/a"
        assert rows[1][2] != "n/a"  # the integral formula still applies
        assert rows[1][4] == "n/a"  # relative error against an undefined benchmark
        assert float(rows[0][4]) == pytest.approx(0.00427, abs=1e-4)

    def test_self_comparison_zero_relerr(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--method", "ekk,ekk", "--benchmark", "ekk", "--tau", "1e-4,1e-3",
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert all(row[-1] == "0" for row in rows)

    def test_benchmark_must_be_listed(self, capsys):
        code, _, _ = run_cli(
            capsys, "compare", "--method", "ekk,zhu", "--benchmark", "psor", "--tau", "1e-4"
        )
        assert code == EXIT_USAGE

    def test_needs_two_methods(self, capsys):
        code, _, _ = run_cli(
            capsys, "compare", "--method", "ekk", "--benchmark", "ekk", "--tau", "1e-4"
        )
        assert code == EXIT_USAGE

    def test_near_expiry_cluster_reproduction(self, capsys):
        """Near-expiry comparison row: all five methods cluster at the
        published values for tau = 1e-4."""
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--method", "ekk,zhu,ssc-a,ssch,psor",
            "--benchmark", "psor",
            "--tau", "1e-4",
            "--m", "400", "--n", "400", "--L", "0.05", "--omega", "1.7",
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        vals = [float(v) for v in rows[0][1:6]]
        assert vals[0] == pytest.approx(99.14, abs=0.01)  # sqrt-log formula
        assert vals[1] == pytest.approx(98.72, abs=0.01)  # integral formula
        assert vals[2] == pytest.approx(99.15, abs=0.01)  # lowest-order formula
        assert vals[3] == pytest.approx(99.111, abs=0.05)  # iterative solver
        assert vals[4] == pytest.approx(99.2, abs=0.1)  # finite-difference benchmark


#: defined closed forms whose value leaves (0, E]: kk and ekk go negative at
#: a five-year tau, zhu's asymptote at sigma = 5, and the series underflows to 0
OUT_OF_RANGE = [
    ("kk", ("--r", "0.005", "--sigma", "0.8", "--tau", "5")),
    ("ekk", ("--r", "0.005", "--sigma", "0.8", "--tau", "5")),
    ("zhu-asymptote", ("--sigma", "5", "--tau", "0.1")),
    ("chen-chadam", ("--r", "1e-6", "--sigma", "5", "--tau", "1e4")),
]


class TestClosedFormRange:
    @pytest.mark.parametrize("method, market", OUT_OF_RANGE, ids=[m for m, _ in OUT_OF_RANGE])
    def test_outside_zero_to_strike_is_a_domain_error(self, capsys, method, market):
        """`boundary` exits 2 naming the method, and `compare` prints the
        cell and its relative error as n/a next to a live zhu column."""
        code, out, err = run_cli(capsys, "boundary", "--method", method, *market)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith(f"putboundary: domain error: {method} formula leaves (0, E]")
        assert err.count("\n") == 1
        argv = ("compare", "--method", f"{method},zhu", "--benchmark", "zhu", *market)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        _, rows = parse_csv(out)
        assert rows[0][1] == rows[0][3] == "n/a" and float(rows[0][2]) > 0.0

    def test_gamma_whose_a_squared_overflows(self, capsys):
        argv = ("compare", "--method", "ekk,zhu", "--benchmark", "ekk", "--sigma", "1e-150",
                "--tau", "1e-3")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == (
            "putboundary: domain error: gamma = 2r/sigma^2 = 2e+299 too large: a^2 overflows\n"
        )

    def test_zhu_below_zero_at_small_gamma_is_a_domain_error(self, capsys):
        """gamma = 2.2e-5: the integral formula itself gives rho(1) = -0.243547.
        rho_zhu raises naming tau and rho, on a scalar and on an array;
        `boundary` exits 2, and `compare` prints n/a in that cell alone."""
        p = MarketParams(r=1e-6, sigma=0.3, strike=100.0)
        message = r"zhu formula leaves \(0, E\] at tau=1: rho=-0\.243547"
        for tau in (1.0, np.array([0.01, 1.0])):
            with pytest.raises(DomainError, match=message):
                rho_zhu(tau, p)
        argv = ("boundary", "--method", "zhu", "--r", "1e-6", "--tau", "1")
        assert run_cli(capsys, *argv) == (EXIT_DOMAIN, "", (
            "putboundary: domain error: zhu formula leaves (0, E] at tau=1: rho=-0.243547\n"
        ))
        argv = ("compare", "--method", "zhu,ssc-a", "--benchmark", "ssc-a", "--r", "1e-6",
                "--tau", "0.01,1")
        assert run_cli(capsys, *argv) == (EXIT_OK, (
            "tau,zhu,ssc-a,relerr_zhu\n"
            "0.01,69.8636,85.7026,0.184814\n"
            "1,n/a,25.6125,n/a\n"
        ), "")


class TestGamma0Command:
    def test_value_and_determinism(self, capsys):
        code1, out1, _ = run_cli(capsys, "gamma0")
        code2, out2, _ = run_cli(capsys, "gamma0")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert float(out1) == pytest.approx(0.0167821, abs=1e-5)


class TestMispricingCommand:
    def test_sweep_with_fast_benchmark(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mispricing", "--benchmark", "ssch", "--E", "1", "--points", "12", "--m", "80",
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["tau", "eps", "err"]
        assert len(rows) == 12
        for row in rows:
            for cell in row:
                if cell != "n/a":
                    assert math.isfinite(float(cell))
        eps = [float(r[1]) for r in rows if r[1] != "n/a"]
        assert max(eps) == pytest.approx(0.0031, abs=0.0015)

    def test_identical_method_zero_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mispricing", "--benchmark", "ssch", "--method", "ssc-a",
            "--E", "1", "--points", "6", "--m", "60",
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        # the lowest-order formula is the solver's own seed: near expiry the
        # two coincide to a few parts in 1e4
        eps = [abs(float(r[1])) for r in rows if r[1] != "n/a"]
        assert eps[0] < 5e-4


#: stdout of `putboundary mispricing --benchmark ssch --E 1 --points 6 --m 60`
#: at the default precision; faster pricing code must print these bytes
#: unchanged, and a change to the price-gap rule regenerates them and lists
#: the moved cells (zhu frozen with the integral at every pricing node, the
#: same to 9 digits on 300, 1,200 and 4,800 trapezoid nodes)
MISPRICING_GOLDEN = {
    "ssc-a": (
        "tau,eps,err\n"
        "1.66667e-06,0,0.0954459\n"
        "8.57253e-06,2.21345e-05,0.0197566\n"
        "4.4093e-05,-6.23473e-05,0.0145701\n"
        "0.000226793,-0.000209958,0.0247845\n"
        "0.00116652,-0.000692716,0.0378256\n"
        "0.006,-0.00242065,0.0603645\n"
    ),
    "kk": (
        "tau,eps,err\n"
        "1.66667e-06,-4.48141e-05,0.0671971\n"
        "8.57253e-06,-8.58891e-05,0.0474701\n"
        "4.4093e-05,-0.000324062,0.0673689\n"
        "0.000226793,-0.000850032,0.0839297\n"
        "0.00116652,-0.00229905,0.104836\n"
        "0.006,-0.00676963,0.139356\n"
    ),
    "zhu": (
        "tau,eps,err\n"
        "1.66667e-06,0.000937058,0.754445\n"
        "8.57253e-06,0.00178712,0.644386\n"
        "4.4093e-05,0.00316546,0.570199\n"
        "0.000226793,0.00547746,0.510852\n"
        "0.00116652,0.00889846,0.44156\n"
        "0.006,0.0131704,0.358141\n"
    ),
}


@pytest.mark.parametrize("method", sorted(MISPRICING_GOLDEN))
def test_mispricing_golden_stdout(capsys, method):
    code, out, _ = run_cli(
        capsys,
        "mispricing", "--benchmark", "ssch", "--method", method,
        "--E", "1", "--points", "6", "--m", "60",
    )
    assert code == EXIT_OK
    assert out == MISPRICING_GOLDEN[method]


def test_mispricing_psor_benchmark_golden_stdout(capsys):
    """`putboundary mispricing --E 1 --points 6 --n 200 --m 100`: the psor
    benchmark, whose sweep starts at max(2k, T/1000) for the time step k."""
    code, out, _ = run_cli(
        capsys, "mispricing", "--E", "1", "--points", "6", "--n", "200", "--m", "100"
    )
    assert code == EXIT_OK
    assert out == (
        "tau,eps,err\n"
        "0.00012,0.00291596,0.493132\n"
        "0.000262407,0.00338669,0.418754\n"
        "0.000573811,0.00342797,0.320807\n"
        "0.00125477,0.0029914,0.22135\n"
        "0.00274383,0.00176912,0.120557\n"
        "0.006,-0.000899493,0.0387745\n"
    )


COMPARE_HEADER = (
    "tau,kk,ekk,ssc-a,chen-chadam,zhu-asymptote,zhu,relerr_kk,relerr_ekk,"
    "relerr_ssc-a,relerr_chen-chadam,relerr_zhu-asymptote\n"
)

#: stdout of `putboundary compare --method kk,ekk,ssc-a,chen-chadam,zhu-asymptote,zhu
#: --benchmark zhu --tau 1e-5,1e-3,0.1,5` at the default precision, frozen from
#: the fixed-step Newton-Cotes zhu integral; keys are (r, sigma, E) for one
#: market each below gamma0 (0.011), at gamma = 1 and at gamma >= 5 (8.9).
#: kk and ekk at gamma = 0.011 and tau = 5 fall below 0: n/a cells
COMPARE_GOLDEN = {
    ("0.0005", "0.3", "100"): (
        COMPARE_HEADER
        + "1e-05,99.5729,99.5644,99.5654,99.5644,99.5643,99.1084,0.00468646,0.0046011,"
        "0.00461111,0.00460073,0.00459975\n"
        "0.001,96.245,96.1491,96.2266,96.2085,97.3856,93.0189,0.0346826,0.0336511,"
        "0.0344841,0.0342905,0.0469447\n"
        "0.1,68.4481,67.312,72.4388,71.9506,91.2854,57.1432,0.197835,0.177953,"
        "0.267671,0.259128,0.597485\n"
        "5,n/a,n/a,18.8331,14.636,n/a,4.94667,n/a,n/a,2.80723,1.95876,n/a\n"
    ),
    ("0.045", "0.3", "100"): (
        COMPARE_HEADER
        + "1e-05,99.6815,99.6702,99.6708,99.6685,99.5643,99.4467,0.00236052,0.00224731,"
        "0.00225277,0.0022302,0.0011818\n"
        "0.001,97.5505,97.4058,97.4391,97.3954,97.3856,96.2541,0.0134682,0.0119649,"
        "0.0123116,0.0118569,0.0117556\n"
        "0.1,86.3781,83.9209,85.1684,80.8234,91.2854,80.8298,0.0686421,0.0382414,"
        "0.053676,7.9715e-05,0.129353\n"
        "5,n/a,n/a,n/a,n/a,n/a,55.68,n/a,n/a,n/a,n/a,n/a\n"
    ),
    ("0.1", "0.15", "1"): (
        COMPARE_HEADER
        + "1e-05,0.998634,0.998569,0.998569,0.998553,0.997821,0.997791,0.000845264,"
        "0.000779874,0.000780012,0.000763929,3.04548e-05\n"
        "0.001,0.990896,0.989944,0.989907,0.989469,0.986928,0.986493,0.00446296,"
        "0.00349764,0.00345988,0.00301596,0.00044063\n"
        "0.1,n/a,n/a,n/a,n/a,0.956427,0.942549,n/a,n/a,n/a,n/a,0.0147244\n"
        "5,n/a,n/a,n/a,n/a,n/a,0.899998,n/a,n/a,n/a,n/a,n/a\n"
    ),
}


@pytest.mark.parametrize("market", sorted(COMPARE_GOLDEN))
def test_compare_golden_stdout(capsys, market):
    r, sigma, strike = market
    code, out, _ = run_cli(
        capsys,
        "compare", "--method", "kk,ekk,ssc-a,chen-chadam,zhu-asymptote,zhu",
        "--benchmark", "zhu", "--tau", "1e-5,1e-3,0.1,5",
        "--r", r, "--sigma", sigma, "--E", strike,
    )
    assert code == EXIT_OK
    assert out == COMPARE_GOLDEN[market]


class TestZhuEvaluator:
    def test_zhu_evaluator_takes_arrays(self):
        """An array of taus after expiry goes to rho_zhu whole.  tau = 0 is
        not the evaluator's case: the rows of boundary and compare take the
        strike there (SOLO_RUNS covers both)."""
        p = MarketParams(r=0.1, sigma=0.3, strike=1.0)
        ev = _method_evaluator("zhu", p, 0.006, None)
        taus = np.array([2e-6, 1e-3, 0.006])
        got = ev(taus)
        assert got.shape == taus.shape
        assert [ev(float(t)) for t in taus] == list(got)
        assert got[1] == rho_zhu(1e-3, p)


COLUMN_METHODS = ("kk", "ekk", "ssc-a", "chen-chadam", "zhu-asymptote", "zhu")

#: each holds tau = 0, 5e-7, a duplicate and values out of order; the last
#: also holds 5e-17, below zhu's small-tau cutoff of 1e-16
COLUMN_TAUS = (
    "0.5,0,5e-7,1e-3,1e-3,1e-5", "2,1e-4,0,5e-7,2,0.05", "2,5e-17,0,5e-7,1e-3,1e-3"
)


def _column_markets():
    g0 = gamma_critical()
    for gamma in (0.7 * g0, 1.2 * g0, 1.0, 2.2, 8.0):
        for strike in (1.0, 100.0):
            yield MarketParams(r=0.5 * gamma * 0.3**2, sigma=0.3, strike=strike)


def _market_argv(p):
    return ("--r", repr(p.r), "--sigma", repr(p.sigma), "--E", repr(p.strike))


def _scalar_rho(method, tau, p):
    """One scalar call per cell, the strike at tau = 0, None where undefined."""
    if tau == 0.0:
        return p.strike
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallTauSubstitution)
        try:
            return cli._FORMULAS[method](tau, p)
        except DomainError:
            return None


def _cells(values, precision=17):
    return ",".join("n/a" if v is None else f"{v:.{precision}g}" for v in values)


class TestColumns:
    """boundary and compare evaluate each method once per command; the rows
    equal those of one scalar call per tau."""

    @pytest.mark.parametrize("taus", COLUMN_TAUS)
    def test_compare_matches_scalar_calls(self, capsys, taus):
        na = 0
        for p in _column_markets():
            code, out, _ = run_cli(
                capsys, "compare", "--method", ",".join(COLUMN_METHODS), "--benchmark", "zhu",
                "--tau", taus, "--precision", "17", *_market_argv(p),
            )
            others = COLUMN_METHODS[:-1]
            lines = ["tau," + ",".join(COLUMN_METHODS + tuple(f"relerr_{m}" for m in others))]
            for t in map(float, taus.split(",")):
                row = [_scalar_rho(m, t, p) for m in COLUMN_METHODS]
                bv = row[-1]
                rel = [None if v is None or bv == 0.0 else abs(v - bv) / bv for v in row[:-1]]
                lines.append(_cells([t, *row, *rel]))
                na += row.count(None)
            assert (code, out) == (EXIT_OK, "\n".join(lines) + "\n"), p
        assert na > 0  # some closed forms are undefined on these lists

    def test_boundary_on_the_horizon_grid_matches_scalar_calls(self, capsys):
        taus = np.linspace(0.0, 0.5, 5)
        for p in _column_markets():
            code, out, _ = run_cli(
                capsys, "boundary", "--method", "zhu", "--T", "0.5", "--m", "4",
                "--precision", "17", *_market_argv(p),
            )
            want = ["tau,rho"] + [_cells([t, _scalar_rho("zhu", float(t), p)]) for t in taus]
            assert (code, out) == (EXIT_OK, "\n".join(want) + "\n"), p

    @pytest.mark.parametrize("argv", [
        ("compare", "--method", "kk,zhu,ekk,zhu", "--benchmark", "zhu",
         "--tau", "1e-5,0,1e-3,0.1,5"),
        ("boundary", "--method", "zhu", "--tau", "0.3,1e-5,0,2"),
        ("boundary", "--method", "zhu", "--T", "0.5", "--m", "4"),
    ])
    def test_one_zhu_call_per_command(self, capsys, monkeypatch, argv):
        calls = []

        def spy(tau, p):
            calls.append(tau)
            return rho_zhu(tau, p)

        monkeypatch.setitem(cli._FORMULAS, "zhu", spy)
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        assert len(calls) == 1 and np.all(np.asarray(calls[0]) > 0.0)

    def test_one_warning_for_the_small_taus_of_a_column(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--method", "kk,zhu", "--benchmark", "zhu",
            "--tau", "2e-17,5e-17,1e-3",
        )
        assert (code, err) == (EXIT_OK, (
            "putboundary: warning: tau=2e-17 below 1e-16: using the small-tau asymptote "
            "in 2 of 3 values\n"
        ))


class TestOutputContract:
    def test_byte_determinism(self, capsys):
        args = ("compare", "--method", "ekk,zhu", "--benchmark", "ekk",
                "--tau", "1e-5,1e-4,1e-3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_newlines_and_decimal_separator(self, capsys):
        _, out, _ = run_cli(capsys, "boundary", "--method", "ekk", "--tau", "1e-4")
        assert "\r" not in out
        assert out.endswith("\n")
        assert "," in out and ";" not in out

    def test_precision_flag_widens(self, capsys):
        _, narrow, _ = run_cli(capsys, "boundary", "--method", "ekk", "--tau", "1e-4")
        _, wide, _ = run_cli(
            capsys, "boundary", "--method", "ekk", "--tau", "1e-4", "--precision", "12"
        )
        val_narrow = narrow.strip().split("\n")[1].split(",")[1]
        val_wide = wide.strip().split("\n")[1].split(",")[1]
        assert len(val_wide) > len(val_narrow)


GOLDEN_MARKET = ("0.1", "0.15", "1")

#: (argv, exit code, stdout, stderr) of each command run alone; a stderr of
#: None is argparse's usage text, whose wrapping follows the terminal width
SOLO_RUNS = [
    (
        ("compare", "--method", "kk,ekk,ssc-a,chen-chadam,zhu-asymptote,zhu",
         "--benchmark", "zhu", "--tau", "1e-5,1e-3,0.1,5",
         "--r", GOLDEN_MARKET[0], "--sigma", GOLDEN_MARKET[1], "--E", GOLDEN_MARKET[2]),
        EXIT_OK, COMPARE_GOLDEN[GOLDEN_MARKET], "",
    ),
    (("boundary", "--method", "bogus", "--tau", "1"), EXIT_USAGE, "", None),
    (
        ("compare", "--method", "ekk", "--benchmark", "ekk", "--tau", "1e-4"),
        EXIT_USAGE, "", "putboundary: error: compare needs at least two methods\n",
    ),
    (
        ("boundary", "--method", "kk", "--tau", "10"),
        EXIT_DOMAIN, "",
        "putboundary: domain error: kk formula undefined: log argument 7.92665 >= 1\n",
    ),
    (
        ("boundary", "--method", "ekk", "--tau", "1e-4,1e-3"),
        EXIT_OK, "tau,rho\n0.0001,99.1418\n0.001,97.6994\n", "",
    ),
    (("gamma0",), EXIT_OK, "0.01678208\n", ""),
    # tau = 0, where every formula gives the strike
    (("boundary", "--method", "kk", "--tau", "0,1e-4"), EXIT_OK,
     "tau,rho\n0,100\n0.0001,99.1854\n", ""),
    (
        ("compare", "--method", "kk,ekk,zhu,ssc-a", "--benchmark", "zhu", "--tau", "0,1e-5,1e-3"),
        EXIT_OK,
        "tau,kk,ekk,zhu,ssc-a,relerr_kk,relerr_ekk,relerr_ssc-a\n"
        "0,100,100,100,100,0,0,0\n"
        "1e-05,99.7049,99.6928,99.5067,99.6932,0.00199177,0.00187,0.00187418\n"
        "0.001,97.8639,97.6994,96.8269,97.7203,0.0107101,0.00901121,0.00922732\n",
        "",
    ),
]


class TestRepeatedCalls:
    """main parses every call with one parser built at import."""

    def test_sequence_matches_solo_runs(self, capsys):
        results = []
        for _ in range(2):
            for argv, code, out, err in SOLO_RUNS + SOLO_RUNS[:1]:
                got = run_cli(capsys, *argv)
                assert got[:2] == (code, out), argv
                if err is not None:
                    assert got[2] == err, argv
                results.append(got)
        half = len(results) // 2
        assert results[half:] == results[:half]
        usage_err = results[1][2]
        assert usage_err.startswith("usage: putboundary boundary [-h] --method")
        assert usage_err.endswith(
            "putboundary boundary: error: argument --method: invalid choice: 'bogus' "
            "(choose from 'kk', 'ekk', 'ssc-a', 'chen-chadam', 'zhu-asymptote', "
            "'zhu', 'ssch', 'psor')\n"
        )

    def test_main_does_not_rebuild_the_parser(self, capsys, monkeypatch):
        def no_rebuild():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", no_rebuild)
        assert run_cli(capsys, "gamma0") == (EXIT_OK, "0.01678208\n", "")
        code, out, err = run_cli(capsys, "gamma0", "--help")
        assert code == EXIT_OK and out.startswith("usage: putboundary gamma0") and err == ""


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*argv, hash_seed=None):
    """`python -m putboundary.cli argv` in a fresh process on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "putboundary.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


#: out-of-range flags (usage errors, 64) and degenerate markets or grids
#: (domain errors, 2)
NO_TRACEBACK_ARGV = [
    (("boundary", "--method", "kk", "--tau", "1e-3", "--precision", "-1"), EXIT_USAGE),
    (("mispricing", "--method", "kk", "--points", "-1"), EXIT_USAGE),
    (("boundary", "--method", "kk", "--T", "1e-3", "--m", "-3"), EXIT_USAGE),
    (("boundary", "--method", "kk", "--tau", "1e-3", "--out", "/nonexistent/x.csv"), EXIT_USAGE),
    (("boundary", "--method", "zhu", "--sigma", "1e-200", "--tau", "1e-3"), EXIT_DOMAIN),
    (("boundary", "--method", "psor", "--T", "1", "--n", "20", "--m", "20", "--L", "1e-300"),
     EXIT_DOMAIN),
    (("boundary", "--method", "psor", "--T", "inf", "--n", "20", "--m", "20"), EXIT_DOMAIN),
    # h^2 is a normal float, but lambda = sigma^2 k/(2 h^2) ~ 9e303 and its square overflow
    (("boundary", "--method", "psor", "--T", "1", "--n", "20", "--m", "20", "--L", "1e-152",
      "--tau", "0.5,1"), EXIT_DOMAIN),
]


@pytest.mark.parametrize(
    "argv, code", NO_TRACEBACK_ARGV, ids=[" ".join(a) for a, _ in NO_TRACEBACK_ARGV]
)
def test_bad_input_is_one_typed_line(argv, code):
    """Each fails with its exit code, nothing on stdout and one typed
    stderr line last, in a fresh process: no traceback, no warning."""
    run = run_module(*argv)
    assert (run.returncode, run.stdout) == (code, "")
    assert "Traceback" not in run.stderr and "RuntimeWarning" not in run.stderr
    kind = "error" if code == EXIT_USAGE else "domain error"
    last = run.stderr.splitlines()[-1]
    assert last.startswith(f"putboundary: {kind}: ") and run.stderr.count("\n") == 1


#: ssc-a where its exponent is positive (an OverflowError, and rho > E), a
#: market whose a^2 = ((1 + gamma)/2)^2 overflows, and zhu's asymptote
STDERR_CONTRACT_ARGV = [
    ("boundary", "--method", "ssc-a", "--r", "1e-8", "--sigma", "2.3", "--tau", "720"),
    ("boundary", "--method", "ssc-a", "--r", "1e-8", "--sigma", "1.6", "--tau", "289"),
    ("compare", "--method", "ssc-a,kk", "--benchmark", "kk", "--r", "1e-8", "--sigma", "2.3",
     "--tau", "720,1e-3"),
    ("compare", "--method", "ekk,zhu", "--benchmark", "ekk", "--sigma", "1e-150", "--tau", "1e-3"),
    ("boundary", "--method", "zhu", "--tau", "1e-17,1e-3"),
]


@pytest.mark.parametrize("argv", STDERR_CONTRACT_ARGV, ids=" ".join)
def test_stderr_is_typed_lines(argv):
    """In a fresh process: a documented exit code, and every stderr line is
    one of the program's own, with no traceback or numpy warning."""
    run = run_module(*argv)
    assert run.returncode in (EXIT_OK, EXIT_NUMERICAL, EXIT_DOMAIN, EXIT_USAGE)
    for line in run.stderr.splitlines():
        assert line.startswith("putboundary: "), line
        assert "Traceback" not in line and "encountered in" not in line, line


class TestEntryPoint:
    """The `if __name__ == "__main__"` path: exit codes reach the shell."""

    def test_exit_codes_and_stdout(self, capsys):
        gamma0 = run_module("gamma0")
        assert (gamma0.returncode, gamma0.stderr) == (EXIT_OK, "")
        assert gamma0.stdout == run_cli(capsys, "gamma0")[1]
        assert run_module("boundary", "--method", "kk", "--tau", "10").returncode == EXIT_DOMAIN
        assert run_module("--bogus").returncode == EXIT_USAGE

    def test_compare_failure_independent_of_hash_seed(self, capsys):
        """Two solvers fail here, each on its own: ssch at node 10, and psor
        at level 1 of a grid too narrow for the exercise region.  The first
        listed, ssch, is reported under every hash seed."""
        grid = ("--tau", "1e4", "--m", "200", "--n", "50", "--L", "0.05")
        code, out, err = run_cli(
            capsys, "compare", "--method", "psor,kk", "--benchmark", "psor", *grid
        )
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.startswith("putboundary: numerical failure: level 1: ")
        argv = ("compare", "--method", "ssch,psor,kk", "--benchmark", "ssch", *grid)
        runs = [run_module(*argv, hash_seed=seed) for seed in (0, 4)]
        for run in runs:
            assert run.returncode == EXIT_NUMERICAL and run.stdout == ""
            assert run.stderr.startswith(
                "putboundary: numerical failure: boundary solve failed at node 10"
            )
        assert runs[0].stderr == runs[1].stderr


def test_warnings_are_typed_lines(capsys):
    """zhu hands two sweep points below 1e-16 to its small-tau asymptote:
    each warning is one `putboundary: warning:` line, with no file path or
    source line, and stdout is the sweep (err is n/a so near expiry: the
    early-exercise premium is too small to normalise by)."""
    argv = ("mispricing", "--E", "1", "--T", "1e-15", "--points", "3", "--m", "20",
            "--benchmark", "ssch", "--method", "zhu")
    run = run_module(*argv)
    assert (run.returncode, run.stdout) == (EXIT_OK, (
        "tau,eps,err\n"
        "2.5e-18,4.68842e-09,n/a\n"
        "5e-17,1.90168e-08,n/a\n"
        "1e-15,8.15809e-08,n/a\n"
    ))
    note = "below 1e-16: using the small-tau asymptote in"
    assert run.stderr == (
        f"putboundary: warning: tau=2.5e-18 {note} 1 of 1 values\n"
        f"putboundary: warning: tau=5e-17 {note} 1 of 1 values\n"
    )
    # in process too, and again on a second call
    assert run_cli(capsys, *argv) == (EXIT_OK, run.stdout, run.stderr)
    assert run_cli(capsys, *argv) == (EXIT_OK, run.stdout, run.stderr)
    # a sweep whose pricing nodes reach 2.8e-11 integrates them and warns nothing
    argv = ("mispricing", "--E", "1", "--points", "6", "--n", "200", "--m", "100",
            "--method", "zhu")
    assert run_cli(capsys, *argv) == (EXIT_OK, (
        "tau,eps,err\n"
        "0.00012,0.00489965,0.655259\n"
        "0.000262407,0.00631423,0.603654\n"
        "0.000573811,0.00775518,0.532625\n"
        "0.00125477,0.00940413,0.468793\n"
        "0.00274383,0.0113143,0.413901\n"
        "0.006,0.0134094,0.365469\n"
    ), "")


def _mostly(ordinary, edges):
    """One of the ordinary values three times in four, else an edge."""
    return st.one_of(*[st.sampled_from(ordinary)] * 3, st.sampled_from(edges))


#: flag values as a script spells them: ordinary markets and times, and the
#: edges of the float range
_RATES = _mostly(["0.005", "0.05", "0.1", "0.3"], ["1e-6", "2", "0", "-0.1", "nan", "1e300"])
_SIGMAS = _mostly(["0.05", "0.15", "0.3", "0.8"], ["1e-150", "5", "0", "inf"])
_STRIKES = st.sampled_from(["1", "37.5", "100"])
_TAUS = _mostly(
    [",".join(ts) for ts in (["1e-3"], ["1e-5", "0.1"], ["0", "0.02", "1"], ["0.5", "5"])],
    ["1e-17,1e-9", "1e4", "-1", "x", ""],
)
#: solver grids small enough for a Tier-1 run
_GRIDS = st.tuples(st.integers(2, 12), st.integers(8, 30)).map(
    lambda mn: (f"--m={mn[0]}", f"--n={mn[1]}", "--L=1")
)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["boundary", "compare", "mispricing", "gamma0"]))
    if command == "gamma0":
        return [command]
    argv = [command, f"--r={draw(_RATES)}", f"--sigma={draw(_SIGMAS)}", f"--E={draw(_STRIKES)}"]
    argv += [f"--precision={draw(st.integers(0, 12))}", *draw(_GRIDS)]
    taus = draw(_TAUS)
    if command == "boundary":
        argv += [f"--method={draw(st.sampled_from(cli.ALL_METHODS))}", f"--tau={taus}"]
    elif command == "compare":
        methods = draw(st.lists(st.sampled_from(cli.ALL_METHODS), min_size=2, max_size=4))
        argv += [f"--method={','.join(methods)}", f"--benchmark={draw(st.sampled_from(methods))}"]
        argv += [f"--tau={taus}"]
    else:
        argv += [f"--method={draw(st.sampled_from(tuple(cli._FORMULAS)))}"]
        argv += [f"--benchmark={draw(st.sampled_from(cli.SOLVER_METHODS))}", "--points=2"]
        argv += [f"--T={draw(st.sampled_from(['1e-3', '0.006', '0.1']))}"]
    return argv


#: the flags common to both examples of test_cli_contract
_EXAMPLE_GRID = ["--precision=6", "--m=4", "--n=8", "--L=1"]


@given(command_lines())
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
# three nodes that a bracketed search once rescued gave rho(5) = 4.24 E
@example(["boundary", "--r=0.3", "--sigma=5", "--E=37.5", *_EXAMPLE_GRID, "--method=ssch",
          "--tau=0.5,5"])
# the integral formula's own value at gamma = 2.2e-5 is rho(1) = -0.243547
@example(["boundary", "--r=1e-6", "--sigma=0.3", "--E=100", *_EXAMPLE_GRID, "--method=zhu",
          "--tau=1"])
def test_cli_contract(argv):
    """Over the flag space: a documented exit code, stderr only in the
    program's own typed lines, and on success every rho cell of every
    method in (0, E], as printed at the requested precision."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_OK, EXIT_NUMERICAL, EXIT_DOMAIN, EXIT_USAGE), argv
    for line in err.splitlines():
        assert line.startswith("putboundary: "), (argv, line)
        assert "Traceback" not in line and "encountered in" not in line, (argv, line)
    if code != EXIT_OK or argv[0] not in ("boundary", "compare"):
        return
    flags = dict(a[2:].split("=", 1) for a in argv[1:])
    strike = float(f"{float(flags['E']):.{flags['precision']}g}")
    header, rows = parse_csv(out)
    methods = header[1:] if argv[0] == "compare" else [flags["method"]]
    for k, method in enumerate(methods, start=1):
        if method in cli.ALL_METHODS:
            for row in rows:
                assert row[k] == "n/a" or 0.0 < float(row[k]) <= strike, (argv, method, row)
