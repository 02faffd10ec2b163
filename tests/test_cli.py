import math

import numpy as np
import pytest

from putboundary import MarketParams, rho_zhu
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

    def test_psor_overflow_exit_code(self, capsys):
        """The transform's growth e^(beta tau) overflows at level 36: a
        numerical failure with its exit code, not a traceback."""
        code, out, err = run_cli(
            capsys,
            "boundary", "--method", "psor", "--r", "1", "--sigma", "0.05",
            "--T", "5", "--n", "20", "--m", "50", "--L", "0.5",
        )
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert "level 36 (tau=3.6)" in err

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
        code, out, _ = run_cli(
            capsys, "boundary", "--method", "ssch", "--T", "0.01", "--m", "10"
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 11  # mesh nodes including tau = 0
        assert float(rows[0][1]) == 100.0

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
#: unchanged (zhu frozen from the fixed-step Newton-Cotes integral)
MISPRICING_GOLDEN = {
    "ssc-a": (
        "tau,eps,err\n"
        "1.66667e-06,0,0.0954459\n"
        "8.57253e-06,2.21345e-05,0.0197572\n"
        "4.4093e-05,-6.23473e-05,0.01457\n"
        "0.000226793,-0.000209958,0.0247843\n"
        "0.00116652,-0.000692716,0.0378247\n"
        "0.006,-0.00242065,0.0603643\n"
    ),
    "kk": (
        "tau,eps,err\n"
        "1.66667e-06,-4.48141e-05,0.067197\n"
        "8.57253e-06,-8.58891e-05,0.0474694\n"
        "4.4093e-05,-0.000324062,0.0673692\n"
        "0.000226793,-0.000850032,0.0839293\n"
        "0.00116652,-0.00229905,0.104835\n"
        "0.006,-0.00676963,0.139356\n"
    ),
    "zhu": (
        "tau,eps,err\n"
        "1.66667e-06,0.000937058,0.677823\n"
        "8.57253e-06,0.00178712,0.642425\n"
        "4.4093e-05,0.00316546,0.570154\n"
        "0.000226793,0.00547746,0.510849\n"
        "0.00116652,0.00889846,0.441558\n"
        "0.006,0.0131704,0.358139\n"
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


COMPARE_HEADER = (
    "tau,kk,ekk,ssc-a,chen-chadam,zhu-asymptote,zhu,relerr_kk,relerr_ekk,"
    "relerr_ssc-a,relerr_chen-chadam,relerr_zhu-asymptote\n"
)

#: stdout of `putboundary compare --method kk,ekk,ssc-a,chen-chadam,zhu-asymptote,zhu
#: --benchmark zhu --tau 1e-5,1e-3,0.1,5` at the default precision, frozen from
#: the fixed-step Newton-Cotes zhu integral; keys are (r, sigma, E) for one
#: market each below gamma0 (0.011), at gamma = 1 and at gamma >= 5 (8.9)
COMPARE_GOLDEN = {
    ("0.0005", "0.3", "100"): (
        COMPARE_HEADER
        + "1e-05,99.5729,99.5644,99.5654,99.5644,99.5643,99.1084,0.00468646,0.0046011,"
        "0.00461111,0.00460073,0.00459975\n"
        "0.001,96.245,96.1491,96.2266,96.2085,97.3856,93.0189,0.0346826,0.0336511,"
        "0.0344841,0.0342905,0.0469447\n"
        "0.1,68.4481,67.312,72.4388,71.9506,91.2854,57.1432,0.197835,0.177953,"
        "0.267671,0.259128,0.597485\n"
        "5,-79.3654,-89.2647,18.8331,14.636,n/a,4.94667,17.0442,19.0454,"
        "2.80723,1.95876,n/a\n"
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
        p = MarketParams(r=0.1, sigma=0.3, strike=1.0)
        ev = _method_evaluator("zhu", p, 0.006, None)
        taus = np.array([0.0, 2e-6, 1e-3, 0.006])
        got = ev(taus)
        assert got.shape == taus.shape and got[0] == 1.0
        assert [ev(float(t)) for t in taus] == list(got)
        assert got[2] == rho_zhu(1e-3, p)


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
