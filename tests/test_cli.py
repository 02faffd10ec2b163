import math

import pytest

from putboundary.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
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
#: at the default precision; faster pricing code must print these bytes unchanged
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
