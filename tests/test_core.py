import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from putboundary import (
    BoundaryCurve,
    BracketError,
    DomainError,
    MarketParams,
    MaxIterationsError,
    QuadratureNodeError,
    TauGrid,
    boundary_rel_err,
    find_root_bracketed,
    norm_cdf,
)
from putboundary import core

import oracles


class TestNormCdf:
    def test_symmetry_point(self):
        assert norm_cdf(0.0) == 0.5

    def test_saturation(self):
        assert abs(norm_cdf(40.0) - 1.0) <= 1e-15
        assert norm_cdf(-40.0) <= 1e-300

    def test_against_series_oracle(self):
        # frozen from oracles.norm_cdf_series(1.0)
        assert abs(norm_cdf(1.0) - 0.8413447460685429) < 1e-14

    @given(st.floats(min_value=-10, max_value=10))
    def test_complement_identity(self, x):
        assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) < 1e-15

    def test_monotone_and_bounded_on_sweep(self):
        xs = np.linspace(-10, 10, 10_000)
        vals = np.array([norm_cdf(x) for x in xs])
        assert np.all(np.diff(vals) >= 0)
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_array_form_is_elementwise_equal(self):
        x = np.concatenate(
            [np.linspace(-40.0, 40.0, 4001), [40.0, -40.0, np.inf, -np.inf, np.nan, -0.0, 1e-300]]
        )
        got = norm_cdf(x)
        want = np.array([norm_cdf(float(v)) for v in x])
        assert type(norm_cdf(float(x[0]))) is float
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        x2 = x[:4005].reshape(89, 45)
        got2 = norm_cdf(x2)
        assert got2.dtype == np.float64 and got2.shape == x2.shape
        assert np.array_equal(got2.view(np.int64), want[:4005].reshape(89, 45).view(np.int64))


class TestNewtonCotes:
    """The oracle's composite rule on core's Boole weights, which the
    pricing and ssch quadratures use."""

    def test_linear_exact(self):
        got = oracles.integrate_newton_cotes(lambda x: x, 0.0, 1.0)
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_quintic_exact_single_panel(self):
        got = oracles.integrate_newton_cotes(lambda x: x**5, 0.0, 1.0, 4)
        assert got == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_sine_closed_form(self):
        got = oracles.integrate_newton_cotes(np.sin, 0.0, math.pi)
        assert got == pytest.approx(2.0, abs=1e-10)

    def test_gaussian_against_refinement_oracle(self):
        # frozen from oracles.refine_integral(exp(-x^2), 0, 1) at ~1e6 subintervals
        got = oracles.integrate_newton_cotes(lambda x: np.exp(-(x**2)), 0.0, 1.0)
        assert got == pytest.approx(0.7468241328124270, abs=1e-12)

    def test_nonfinite_node_reported_with_abscissa(self):
        def reciprocal(x):
            with np.errstate(divide="ignore"):
                return 1.0 / x

        with pytest.raises(QuadratureNodeError) as err:
            oracles.integrate_newton_cotes(reciprocal, 0.0, 1.0)
        assert err.value.abscissa == 0.0

    def test_interval_order_checked(self):
        with pytest.raises(DomainError):
            oracles.integrate_newton_cotes(lambda x: x, 1.0, 0.0)

    def test_empirical_order_on_exponential(self):
        exact = math.e - 1.0
        errs = []
        for n in (8, 16, 32):
            errs.append(abs(oracles.integrate_newton_cotes(np.exp, 0.0, 1.0, n) - exact))
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.5
        assert math.log2(errs[1] / errs[2]) >= 3.5


class TestRootFinding:
    def test_parabola(self):
        got = find_root_bracketed(lambda x: x * x - 4.0, 0.0, 10.0)
        assert got == pytest.approx(2.0, abs=core._ROOT_TOL)

    def test_identity(self):
        got = find_root_bracketed(lambda x: x, -1.0, 1.0)
        assert got == pytest.approx(0.0, abs=core._ROOT_TOL)

    def test_dottie_against_fixed_point_oracle(self):
        # frozen from oracles.dottie_fixed_point()
        got = find_root_bracketed(lambda x: math.cos(x) - x, 0.0, 1.0)
        assert got == pytest.approx(0.7390851332151607, abs=1e-9)
        assert abs(got - oracles.dottie_fixed_point()) < 1e-9

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root_bracketed(lambda x: x * x + 1.0, 0.0, 1.0)

    def test_iteration_cap(self, monkeypatch):
        # a sign function gives interpolation nothing to use, so the bracket
        # only halves and needs far more than three steps to close
        monkeypatch.setattr(core, "_ROOT_TOL", 1e-14)
        monkeypatch.setattr(core, "_MAX_ITER", 3)
        with pytest.raises(MaxIterationsError, match="in 3 iterations"):
            find_root_bracketed(lambda x: math.copysign(1.0, x - 1e-7), 0.0, 1e6)

    def test_infinite_endpoint_value(self):
        """g = +inf past a pole, as the ssch residual is where its log
        argument leaves (0, 1): bisection steps in until both ends are finite."""
        calls = []

        def g(x):
            calls.append(x)
            return 1.0 / (1.0 - x) - 3.0 if x < 1.0 else math.inf

        got = find_root_bracketed(g, 0.0, 1.0)
        assert got == pytest.approx(2.0 / 3.0, abs=core._ROOT_TOL)
        assert calls[2] == 0.5  # the first step bisects
        assert len(calls) < 20

    def test_residual_small_at_root(self):
        g = lambda x: math.cos(x) - x
        root = find_root_bracketed(g, 0.0, 1.0)
        # |g| at the root is bounded by |g'| times the final bracket width
        assert abs(g(root)) <= 2.0 * core._ROOT_TOL


class TestInterpolation:
    def test_midpoint(self):
        curve = BoundaryCurve(TauGrid(np.array([0.0, 1.0])), np.array([0.5, 1.5]))
        assert curve.value(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_flat_segment(self):
        curve = BoundaryCurve(TauGrid(np.array([0.0, 1.0, 2.0])), np.array([1.0, 3.0, 3.0]))
        assert curve.value(1.5) == 3.0

    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=8)
    def test_nodes_bit_exact(self, idx):
        taus = np.concatenate([[0.0], np.cumsum(np.linspace(0.1, 0.9, 7))])
        vals = np.sin(np.arange(8) * 1.7) + 2.0
        curve = BoundaryCurve(TauGrid(taus), vals)
        assert curve.value(float(taus[idx])) == vals[idx]

    def test_out_of_range(self):
        curve = BoundaryCurve(TauGrid(np.array([0.0, 1.0])), np.array([1.0, 0.5]))
        with pytest.raises(DomainError):
            curve.value(1.5)
        with pytest.raises(DomainError):
            curve.value(-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, bad):
        """NaN compares false with both ends of the range, so it used to
        pass the range check and come back as a NaN level."""
        curve = BoundaryCurve(TauGrid(np.array([0.0, 1.0])), np.array([1.0, 0.5]))
        with pytest.raises(DomainError, match="outside the curve's range"):
            curve.value(bad)
        with pytest.raises(DomainError, match="outside the curve's range"):
            curve.value(np.array([0.5, bad]))
        with pytest.raises(DomainError, match="outside the curve's range"):
            boundary_rel_err(curve, lambda tau: 0.7, bad)


class TestTypes:
    @given(
        st.floats(min_value=1e-4, max_value=1.0),
        st.floats(min_value=1e-3, max_value=3.0),
    )
    @settings(max_examples=50)
    def test_derived_constants(self, r, sigma):
        p = MarketParams(r=r, sigma=sigma, strike=100.0)
        assert p.gamma > 0
        assert p.a - p.b == pytest.approx(p.gamma, rel=1e-12)
        assert p.a + p.b == pytest.approx(1.0, rel=1e-12)

    def test_param_validation(self):
        for bad in (
            dict(r=-0.1, sigma=0.3, strike=100.0),
            dict(r=0.1, sigma=0.0, strike=100.0),
            dict(r=0.1, sigma=0.3, strike=-1.0),
        ):
            with pytest.raises(DomainError):
                MarketParams(**bad)

    @pytest.mark.parametrize("sigma", [1e-150, 1e-160])
    def test_gamma_whose_a_squared_overflows_rejected(self, sigma):
        """gamma = 2e299 is finite but a^2 is not; at sigma = 1e-160 gamma
        itself overflows."""
        with pytest.raises(DomainError, match=r"gamma = 2r/sigma\^2 = .* a\^2 overflows"):
            MarketParams(r=0.1, sigma=sigma, strike=100.0)
        # a^2 = 1e200 is finite, so this market stands
        assert MarketParams(r=1e-200, sigma=1e-150, strike=100.0).gamma == pytest.approx(2e100)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            TauGrid(np.array([0.1, 0.2]))  # must start at 0
        with pytest.raises(DomainError):
            TauGrid(np.array([0.0, 0.2, 0.2]))  # strictly increasing

    def test_curve_validation_and_eval(self):
        grid = TauGrid(np.array([0.0, 0.5, 1.0]))
        curve = BoundaryCurve(grid, np.array([100.0, 90.0, 85.0]))
        assert curve.value(0.0) == 100.0
        assert curve.value(0.75) == pytest.approx(87.5)
        with pytest.raises(DomainError):
            curve.value(1.5)
        with pytest.raises(DomainError):
            BoundaryCurve(grid, np.array([100.0, -5.0, 85.0]))
