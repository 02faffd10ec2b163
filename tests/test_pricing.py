import math

import numpy as np
import pytest

from putboundary import (
    BoundaryCurve,
    DegenerateDenominatorError,
    DomainError,
    MarketParams,
    TauGrid,
    boundary_rel_err,
    european_put,
    mispricing_err,
    price_gap_at_boundary,
    price_gap_full,
    rho_zhu,
    rho_zhu_asymptote,
    solve_boundary,
)
from putboundary import pricing
from putboundary.psor import transform_constants

import oracles


@pytest.fixture(scope="module")
def short_curve(params):
    return solve_boundary(params, 0.12, 60)


#: markets spanning the gap formula's parameter space: gamma = 2r/sigma^2 near
#: the convexity threshold gamma0, gamma = 1 (b = 0), gamma > 5, and unit strike
GAP_MARKETS = {
    "gamma0": MarketParams(r=0.5 * 0.0167821 * 0.09, sigma=0.3, strike=100.0),
    "gamma1": MarketParams(r=0.045, sigma=0.3, strike=100.0),
    "gamma6.7": MarketParams(r=0.3, sigma=0.3, strike=100.0),
    "strike1": MarketParams(r=0.1, sigma=0.3, strike=1.0),
}


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

    @pytest.mark.parametrize("S, tau", [(100.0, math.nan), (100.0, math.inf), (math.inf, 1.0)])
    def test_non_finite_input_rejected(self, params, S, tau):
        with pytest.raises(DomainError):
            european_put(S, tau, params)


class TestGreenKernel:
    """The oracle's heat kernel, which the double-integral route integrates."""

    @pytest.mark.parametrize("tau", [0.01, 0.1, 1.0])
    def test_normalisation(self, params, tau):
        width = 10.0 * params.sigma * math.sqrt(tau)
        total = oracles.integrate_newton_cotes(
            lambda x: oracles.heat_kernel(x, tau, params.sigma), -width, width, 4000
        )
        assert total == pytest.approx(1.0, abs=1e-10)


class TestTransformConsts:
    def test_sign_flipped_pair(self, params):
        """The oracle's alpha_p, beta_p negate the finite-difference
        solver's pair, and beta_p + alpha_p^2 sigma^2 / 2 = -r is the
        identity that collapses the inner integral to a CDF difference."""
        alpha_p, beta_p = oracles.price_transform_consts(params)
        alpha, beta = transform_constants(params)
        assert alpha_p == pytest.approx(-alpha, rel=1e-14)
        assert beta_p == pytest.approx(-beta, rel=1e-14)
        for p in GAP_MARKETS.values():
            alpha_p, beta_p = oracles.price_transform_consts(p)
            assert beta_p + 0.5 * alpha_p**2 * p.sigma**2 == pytest.approx(-p.r, rel=1e-12)


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

    def test_endpoint_grid_invariance(self, params, short_curve, monkeypatch):
        app = asymptote_fn(params)
        assert pricing._GAP_SUBINTERVALS == 1000
        a = price_gap_at_boundary(short_curve, app, 0.01, params)
        monkeypatch.setattr(pricing, "_GAP_SUBINTERVALS", 2000)
        b = price_gap_at_boundary(short_curve, app, 0.01, params)
        assert a != b and abs(a - b) < 1e-8 * params.strike

    def test_curve_domain_enforced(self, params, short_curve):
        with pytest.raises(DomainError):
            price_gap_at_boundary(short_curve, short_curve, 0.2, params)


class TestExpiryNode:
    def test_curves_not_sampled_at_expiry(self, params):
        """The last node is expiry, where the strike is taken: each curve is
        evaluated on the n nodes before it, all at least tau/n from expiry."""
        n = pricing._GAP_SUBINTERVALS
        lowest = []

        def spy(xi):
            lowest.append(float(np.min(xi)))
            return np.full(np.shape(xi), 0.9 * params.strike)

        for tau in np.geomspace(1e-8, 5.0, 200).tolist():
            price_gap_full(spy, spy, 0.9 * params.strike, tau, params)
            assert lowest[-1] >= tau / n, tau


NAN_CURVE = lambda t: np.full(np.shape(t), np.nan)
INF_CURVE = lambda t: np.full(np.shape(t), np.inf)

#: calls on a curve c over [0, 0.01] that returned nan, a finite number
#: from an infinite input, or numpy RuntimeWarnings before they raised
NON_FINITE_CALLS = {
    "gap-nan-curve": lambda c, p: price_gap_full(c, NAN_CURVE, 99.0, 0.005, p),
    "gap-inf-curve": lambda c, p: price_gap_full(c, INF_CURVE, 99.0, 0.005, p),
    "gap-inf-spot": lambda c, p: price_gap_full(c, asymptote_fn(p), math.inf, 0.005, p),
    "gap-inf-tau": lambda c, p: price_gap_full(
        lambda t: rho_zhu(t, p), lambda t: rho_zhu(t, p), 99.0, math.inf, p
    ),
    "mispricing-nan-curve": lambda c, p: mispricing_err(c, NAN_CURVE, 0.005, p),
    "rel-err-nan-app": lambda c, p: boundary_rel_err(c, NAN_CURVE, 0.005),
    "rel-err-inf-benchmark": lambda c, p: boundary_rel_err(INF_CURVE, c, 0.005),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS)
def test_non_finite_input_is_a_domain_error(call):
    p = MarketParams(0.1, 0.3, 100.0)
    c = solve_boundary(p, 0.01, 20)
    with pytest.raises(DomainError):
        NON_FINITE_CALLS[call](c, p)


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
        """price_gap_at_boundary is price_gap_full at S = rho(tau), bit for bit."""
        app = asymptote_fn(params)
        S = float(short_curve.value(tau))
        full = price_gap_full(short_curve, app, S, tau, params)
        direct = price_gap_at_boundary(short_curve, app, tau, params)
        assert full == direct > 0.0

    @pytest.mark.parametrize("market", GAP_MARKETS)
    def test_matches_double_integral_oracle(self, market, monkeypatch):
        """The closed form against the oracle's numeric inner integral, with
        S on the boundary, below it and above the strike, and with curves
        that coincide for xi <= 0.03.  Both use the same outer rule, so the
        difference is the oracle's inner-quadrature error: at n = 1000 it is
        at most 2.5e-6 relative over these markets (gamma near gamma0, the
        smallest gaps), and it shrinks ~16x when n grows to 4000 wherever it
        stands above rounding."""
        p = GAP_MARKETS[market]
        truth = solve_boundary(p, 0.12, 60)
        app = asymptote_fn(p)
        partial = lambda t: np.where(np.asarray(t) <= 0.03, 1.0, 0.98) * truth.value(t)
        assert partial(0.02) == truth.value(0.02) and partial(0.04) != truth.value(0.04)
        cases = [(app, tau) for tau in (1e-4, 0.01, 0.1)] + [(partial, 0.1)]
        refined = 0
        for rho_app, tau in cases:
            rho_tau = float(truth.value(tau))
            for S in (rho_tau, 0.9 * rho_tau, 1.1 * p.strike):
                got = price_gap_full(truth, rho_app, S, tau, p)
                want = oracles.price_gap_full_rows(truth, rho_app, S, tau, p, 1000)
                diff = abs(got - want)
                # gaps that underflow to ~1e-230 E differ only in absolute terms
                assert diff <= 4e-6 * want + 1e-20 * p.strike, (market, tau, S)
                if diff > 1e-11 * want + 1e-20 * p.strike:
                    with monkeypatch.context() as fine:
                        fine.setattr(pricing, "_GAP_SUBINTERVALS", 4000)
                        got = price_gap_full(truth, rho_app, S, tau, p)
                    want = oracles.price_gap_full_rows(truth, rho_app, S, tau, p, 4000)
                    assert abs(got - want) < diff / 8.0, (market, tau, S)
                    refined += 1
        assert refined >= 1


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
