import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
    rho_chen_chadam,
    rho_ekk,
    rho_kk,
    rho_ssc_analytic,
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
        """Doubling the panels of the rule in theta moves the gap by less
        than 1e-8 E, and not by 0."""
        app = asymptote_fn(params)
        assert pricing._GAP_PANELS == 64
        a = price_gap_at_boundary(short_curve, app, 0.01, params)
        monkeypatch.setattr(pricing, "_GAP_PANELS", 128)
        b = price_gap_at_boundary(short_curve, app, 0.01, params)
        assert a != b and abs(a - b) < 1e-8 * params.strike

    def test_curve_domain_enforced(self, params, short_curve):
        with pytest.raises(DomainError):
            price_gap_at_boundary(short_curve, short_curve, 0.2, params)


class TestExpiryNode:
    def test_curves_not_sampled_at_expiry(self, params):
        """Each curve is evaluated once, on the 512 nodes of the rule, and
        every node lies strictly inside (0, tau): neither expiry nor tau
        itself is a node."""
        seen = []

        def spy(xi):
            seen.append(np.array(xi))
            return np.full(np.shape(xi), 0.9 * params.strike)

        for tau in np.geomspace(1e-8, 5.0, 200).tolist():
            seen.clear()
            price_gap_full(spy, spy, 0.9 * params.strike, tau, params)
            assert len(seen) == 2, tau
            for xi in seen:
                assert xi.size == 512 and np.all((0.0 < xi) & (xi < tau)), tau


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
    def test_matches_double_integral_oracle(self, market):
        """The closed form against the oracle's numeric inner integral, with
        S on the boundary, below it and above the strike, and with curves
        that coincide for xi <= 0.03.  Both use the package's outer nodes,
        so the difference is the oracle's inner-quadrature error: at n = 1000
        it is at most 1.4e-6 relative over these markets, and it shrinks at
        least 8x when n grows to 16000 wherever it stands above rounding.

        Nearly all of that error comes from the outer node nearest xi = tau,
        where the heat kernel's width sigma sqrt(tau - xi) is below one
        inner step (0.28 steps at gamma0, tau = 0.01, S = rho, n = 1000;
        1.1 at n = 4000).  So it is still pre-asymptotic at n = 4000, where
        that cell shrinks only 6.3x; at n = 16000 the kernel spans 4.4
        steps and the cell's error is 1e-14 relative."""
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
                    want = oracles.price_gap_full_rows(truth, rho_app, S, tau, p, 16000)
                    assert abs(got - want) < diff / 8.0, (market, tau, S)
                    refined += 1
        assert refined >= 1


#: the closed forms the mispricing sweep scores
CLOSED_FORMS = (rho_kk, rho_ekk, rho_ssc_analytic, rho_chen_chadam, rho_zhu_asymptote)


class TestGapRule:
    """The rule itself: 64 panels in theta of the 8-point Gauss-Legendre rule."""

    def test_literal_rule_is_gauss_legendre(self):
        from numpy.polynomial.legendre import leggauss

        x, w = leggauss(8)
        for got, want in ((pricing._GL8_NODES, x[4:]), (pricing._GL8_WEIGHTS, w[4:])):
            assert np.all(np.abs(np.array(got) - want) <= 2.0 * np.spacing(want))
        sin2, cos, weights = pricing._gap_nodes(pricing._GAP_PANELS)
        assert sin2.size == cos.size == weights.size == 512
        assert math.fsum(weights.tolist()) == pytest.approx(1.0, abs=1e-15)

    def test_no_numpy_polynomial_on_the_import_path(self):
        """The literal constants keep numpy.polynomial out of a process that
        imports the CLI and prices one gap."""
        code = (
            "import sys, putboundary.cli\n"
            "from putboundary import MarketParams, price_gap_full\n"
            "p = MarketParams(0.1, 0.3, 100.0)\n"
            "assert price_gap_full(lambda t: 95.0, lambda t: 94.0, 95.0, 0.01, p) > 0\n"
            "print('numpy.polynomial' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")

    def test_no_worse_than_boole_1000_against_split_reference(self):
        """Relative gap error of the rule against oracles.price_gap_split, the
        mesh- and crossing-split reference, on one near-expiry market with
        the m = 80 ssch truth: 5 closed forms x 8 geometric taus from twice
        the first mesh node to 0.006.  The bounds are what Boole's rule on
        1000 subintervals in sqrt(tau - xi) measures on this corpus, max
        6.31e-4 and median 4.80e-6; this rule measures 1.09e-4 and 7.7e-7,
        and 32 panels (256 nodes) 7.07e-4 and 6.7e-6, which fails both.
        The worst cells are chen-chadam, which crosses the piecewise-linear
        truth twice in most mesh cells."""
        p = MarketParams(r=0.1, sigma=0.3, strike=1.0)
        truth = solve_boundary(p, 0.006, 80)
        lo = 2.0 * float(truth.grid.taus[1])
        errors = []
        for form in CLOSED_FORMS:
            app = lambda t, form=form: p.strike if t == 0.0 else form(t, p)
            for tau in [lo * (0.006 / lo) ** (i / 7) for i in range(8)]:
                S = float(truth.value(tau))
                want = oracles.price_gap_split(truth, app, S, tau, p, truth.grid.taus)
                errors.append(abs(price_gap_full(truth, app, S, tau, p) - want) / want)
        assert max(errors) <= 6.4e-4
        assert np.median(errors) <= 4.8e-6

    @pytest.mark.parametrize("tau", [1e-6, 1e-4, 1e-3, 1e-2, 0.1])
    def test_smooth_pair_converged(self, params, monkeypatch, tau):
        """kk against ekk do not cross, so the integrand is smooth in theta
        and 64 panels already agree with 256 to rounding."""
        kk = lambda t: rho_kk(t, params)
        ekk = lambda t: rho_ekk(t, params)
        S = ekk(tau)
        coarse = price_gap_full(ekk, kk, S, tau, params)
        monkeypatch.setattr(pricing, "_GAP_PANELS", 256)
        fine = price_gap_full(ekk, kk, S, tau, params)
        assert coarse > 0.0 and abs(coarse - fine) <= 1e-10 * fine

    @pytest.mark.parametrize("tau", [1e-300, 1e-320, 5e-324])
    def test_subnormal_tau_stays_finite(self, params, tau):
        """sqrt(tau - xi) is built from sqrt(tau), so it stays positive even
        where tau cos^2 theta underflows, and at S on the true boundary
        gamma is 0 / (sigma s) = 0, not 0 / 0: a finite gap, no warning, and
        0 for identical curves."""
        low = lambda t: np.full(np.shape(t), 90.0)
        high = lambda t: np.full(np.shape(t), 95.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for S in (92.0, 95.0):
                gap = price_gap_full(high, low, S, tau, params)
                assert math.isfinite(gap) and gap >= 0.0, S
                assert price_gap_full(high, high, S, tau, params) == 0.0, S


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
