import math

import numpy as np
import pytest

from putboundary import (
    BoundaryCurve,
    DegenerateDenominatorError,
    DomainError,
    MarketParams,
    PriceTransformConsts,
    QuadratureConfig,
    TauGrid,
    boundary_rel_err,
    european_put,
    green_kernel,
    integrate_newton_cotes,
    mispricing_err,
    price_gap_at_boundary,
    price_gap_full,
    rho_zhu_asymptote,
    solve_boundary,
)
from putboundary.psor import transform_constants

import oracles


@pytest.fixture(scope="module")
def short_curve(params):
    cfg = QuadratureConfig(finite_subintervals=500)
    return solve_boundary(params, 0.12, 60, cfg=cfg)


def asymptote_fn(params):
    return lambda t: params.strike if t == 0.0 else rho_zhu_asymptote(t, params)


class TestEuropeanPut:
    def test_expiry_payoff(self, params):
        assert european_put(80.0, 0.0, params) == 20.0
        assert european_put(120.0, 0.0, params) == 0.0

    def test_far_field(self, params):
        assert european_put(1e6, 1.0, params) < 1e-12

    def test_against_precision_oracle(self, params):
        # frozen from a 50-digit Black-Scholes evaluation with the series CDF
        assert european_put(100.0, 1.0, params) == pytest.approx(
            7.217875385982615, abs=1e-10
        )
        live = oracles.black_scholes_put_mp(100, 100, 0.1, 0.3, 1)
        assert european_put(100.0, 1.0, params) == pytest.approx(live, abs=1e-12)

    def test_below_intrinsic_with_rates(self, params):
        # deep ITM European put trades below parity under positive rates
        assert european_put(50.0, 1.0, params) < 50.0


class TestGreenKernel:
    @pytest.mark.parametrize("tau", [0.01, 0.1, 1.0])
    def test_normalisation(self, params, tau):
        width = 10.0 * params.sigma * math.sqrt(tau)
        cfg = QuadratureConfig(finite_subintervals=4000)
        total = integrate_newton_cotes(
            lambda x: green_kernel(x, tau, params.sigma), -width, width, cfg
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_requires_positive_tau(self, params):
        with pytest.raises(DomainError):
            green_kernel(0.0, 0.0, params.sigma)


class TestTransformConsts:
    def test_sign_flipped_pair(self, params):
        consts = PriceTransformConsts.from_params(params)
        alpha, beta = transform_constants(params)
        assert consts.alpha_p == pytest.approx(-alpha, rel=1e-14)
        assert consts.beta_p == pytest.approx(-beta, rel=1e-14)


class TestGapAtBoundary:
    def test_identical_curves_give_zero(self, params, short_curve):
        assert price_gap_at_boundary(short_curve, short_curve, 0.1, params) == 0.0

    def test_nonnegative(self, params, short_curve):
        app = asymptote_fn(params)
        for tau in (0.001, 0.01, 0.1):
            assert price_gap_at_boundary(short_curve, app, tau, params) >= 0.0

    def test_monotone_under_dominance(self, params, short_curve):
        """A uniformly lower approximate boundary misprices at least as much."""
        app_near = lambda t: 0.995 * float(short_curve.value(t))
        app_far = lambda t: 0.98 * float(short_curve.value(t))
        g_near = price_gap_at_boundary(short_curve, app_near, 0.1, params)
        g_far = price_gap_at_boundary(short_curve, app_far, 0.1, params)
        assert g_far >= g_near > 0.0

    def test_endpoint_grid_invariance(self, params, short_curve):
        app = asymptote_fn(params)
        a = price_gap_at_boundary(
            short_curve, app, 0.01, params, QuadratureConfig(finite_subintervals=1000)
        )
        b = price_gap_at_boundary(
            short_curve, app, 0.01, params, QuadratureConfig(finite_subintervals=2000)
        )
        assert abs(a - b) < 1e-8 * params.strike

    def test_curve_domain_enforced(self, params, short_curve):
        with pytest.raises(DomainError):
            price_gap_at_boundary(short_curve, short_curve, 0.2, params)


class TestGapFull:
    def test_identical_curves_give_zero(self, params, short_curve):
        got = price_gap_full(short_curve, short_curve, 95.0, 0.1, params)
        assert got == 0.0

    def test_nonnegative_off_boundary(self, params, short_curve):
        app = asymptote_fn(params)
        for S in (80.0, 95.0, 110.0):
            assert price_gap_full(short_curve, app, S, 0.1, params) >= 0.0

    @pytest.mark.parametrize("tau", [0.001, 0.01, 0.1])
    def test_agrees_with_boundary_route(self, params, short_curve, tau):
        """The double-integral route evaluated on the boundary must reproduce
        the CDF route: the package's independent cross-check."""
        app = asymptote_fn(params)
        S = float(short_curve.value(tau))
        full = price_gap_full(short_curve, app, S, tau, params)
        direct = price_gap_at_boundary(short_curve, app, tau, params)
        assert abs(full - direct) < 1e-6 * params.strike


    @pytest.mark.parametrize("n", [4, 252, 1000])
    def test_blocked_matches_row_loop(self, params, short_curve, n):
        """The blocked inner quadrature reproduces the row-by-row loop, with
        S on and off the boundary, and with curves that coincide for
        xi <= 0.03 so that those rows are exactly zero."""
        cfg = QuadratureConfig(finite_subintervals=n)
        app = asymptote_fn(params)
        partial = lambda t: np.where(np.asarray(t) <= 0.03, 1.0, 0.98) * short_curve.value(t)
        assert partial(0.02) == short_curve.value(0.02) and partial(0.04) != short_curve.value(0.04)
        cases = [
            (app, float(short_curve.value(0.01)), 0.01),
            (app, 95.0, 0.1),
            (partial, float(short_curve.value(0.1)), 0.1),
            (partial, 110.0, 0.1),
        ]
        for rho_app, S, tau in cases:
            want = oracles.price_gap_full_rows(short_curve, rho_app, S, tau, params, cfg)
            got = price_gap_full(short_curve, rho_app, S, tau, params, cfg)
            assert want > 0.0
            assert abs(got - want) <= 1e-13 * want


class TestErrorMetrics:
    def test_zero_for_identical_curves(self, params, short_curve):
        assert mispricing_err(short_curve, short_curve, 0.1, params) == 0.0
        assert boundary_rel_err(short_curve, short_curve, 0.1) == 0.0

    def test_degenerate_denominator(self, params):
        grid = TauGrid(np.array([0.0, 1e-12, 1.0]))
        curve = BoundaryCurve(grid, np.array([100.0, 99.99999, 90.0]))
        with pytest.raises(DegenerateDenominatorError):
            mispricing_err(curve, curve, 1e-12, params)

    def test_european_floor_strict_at_boundary(self, params, short_curve):
        for tau in (0.01, 0.05, 0.1):
            rho = float(short_curve.value(tau))
            assert european_put(rho, tau, params) < params.strike - rho

    def test_rel_err_sign_and_scale(self, params, short_curve):
        app = asymptote_fn(params)
        eps = boundary_rel_err(short_curve, app, 0.001)
        assert 0.0 < eps < 0.01  # the asymptote undershoots, mildly

    def test_table_point_rel_err(self):
        # arithmetic of the published long-horizon comparison at tau = 1
        assert abs(76.6695 - 75.4580) / 76.6695 == pytest.approx(0.0158, abs=2e-4)
