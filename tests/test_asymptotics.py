import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from putboundary import (
    CLOSED_FORMS,
    DomainError,
    MarketParams,
    eta_lowest_order,
    rho_chen_chadam,
    rho_ekk,
    rho_kk,
    rho_ssc_analytic,
    rho_zhu_asymptote,
)
from putboundary.asymptotics import _chen_chadam_alpha

_P = MarketParams(r=0.1, sigma=0.3, strike=100.0)

# near-expiry reference values for the benchmark parameter set
NEAR_EXPIRY_TABLE = {
    # tau: (ekk, ssc_analytic)
    1e-5: (99.69, 99.69),
    5e-5: (99.37, 99.37),
    1e-4: (99.14, 99.15),
    5e-4: (98.28, 98.29),
    1e-3: (97.70, 97.72),
    0.04: (91.12, 91.31),
    0.1: (89.29, 89.42),
}


class TestTableValues:
    @pytest.mark.parametrize("tau", sorted(NEAR_EXPIRY_TABLE))
    def test_ekk(self, params, tau):
        want = NEAR_EXPIRY_TABLE[tau][0]
        assert rho_ekk(tau, params) == pytest.approx(want, abs=0.01)

    @pytest.mark.parametrize("tau", sorted(NEAR_EXPIRY_TABLE))
    def test_ssc_analytic(self, params, tau):
        want = NEAR_EXPIRY_TABLE[tau][1]
        assert rho_ssc_analytic(tau, params) == pytest.approx(want, abs=0.01)

    def test_kk_in_cluster(self, params):
        # tracks the other near-expiry formulas to within a tenth
        assert rho_kk(1e-4, params) == pytest.approx(99.14, abs=0.1)

    def test_kk_against_direct_evaluation_oracle(self, params):
        # frozen from an arbitrary-precision evaluation of the printed formula
        assert rho_kk(1e-3, params) == pytest.approx(97.8639076819305, abs=1e-10)


class TestLimits:
    @pytest.mark.parametrize(
        "fn", [rho_kk, rho_ekk, rho_ssc_analytic, rho_zhu_asymptote, rho_chen_chadam]
    )
    def test_expiry_limit_is_strike(self, params, fn):
        assert fn(1e-30, params) == pytest.approx(params.strike, abs=1e-8)

    def test_common_limit_ratio(self, params):
        """The three sqrt-log formulas share (E - rho)/(sqrt(tau) sqrt(-ln tau))
        -> E sigma, approached monotonically from below."""
        target = params.strike * params.sigma
        for fn in (rho_kk, rho_ekk, rho_ssc_analytic):
            ratios = []
            for tau in (1e-6, 1e-8, 1e-10, 1e-12):
                r = (params.strike - fn(tau, params)) / (
                    math.sqrt(tau) * math.sqrt(-math.log(tau))
                )
                ratios.append(r)
            assert all(b > a for a, b in zip(ratios, ratios[1:])), fn.__name__
            assert abs(ratios[-1] - target) / target < 0.05, fn.__name__

    @given(st.floats(min_value=1e-12, max_value=0.99))
    @settings(max_examples=60)
    def test_zhu_asymptote_algebraic_ratio(self, tau):
        p = _P
        ratio = (p.strike - rho_zhu_asymptote(tau, p)) / (
            math.sqrt(tau) * (-math.log(tau))
        )
        assert ratio == pytest.approx(
            p.strike * p.sigma / math.sqrt(2 * math.pi), rel=1e-9
        )

    def test_undershoot_scaling(self, params):
        """The full-log asymptote sits deeper below the strike than the
        sqrt-log cluster by a factor sqrt(-ln tau)/sqrt(2 pi); the rescaled
        ratio converges to sqrt(2 pi)."""
        tau = 1e-12
        ratio = (
            (params.strike - rho_ssc_analytic(tau, params))
            / (params.strike - rho_zhu_asymptote(tau, params))
            * math.sqrt(-math.log(tau))
        )
        assert ratio == pytest.approx(math.sqrt(2 * math.pi), rel=0.10)


class TestValidityDomains:
    @pytest.mark.parametrize(
        "fn,bad_tau",
        [
            (rho_kk, 10.0),
            (rho_ekk, 10.0),
            (rho_ssc_analytic, 10.0),
            (rho_zhu_asymptote, 1.0),
            (rho_chen_chadam, 0.05),
        ],
    )
    def test_raises_outside_domain(self, params, fn, bad_tau):
        with pytest.raises(DomainError):
            fn(bad_tau, params)

    @pytest.mark.parametrize(
        "fn", [rho_kk, rho_ekk, rho_ssc_analytic, rho_zhu_asymptote, rho_chen_chadam]
    )
    def test_values_in_range_on_domain(self, params, fn):
        for tau in (1e-8, 1e-6, 1e-4, 1e-3):
            v = fn(tau, params)
            assert 0.0 < v <= params.strike

    @pytest.mark.parametrize(
        "r, sigma, strike, tau",
        [(1e-8, 2.3, 100.0, 720.0), (1e-8, 1.6, 100.0, 289.0), (1e-30, 0.01, 1e-300, 1e6)],
    )
    def test_ssc_analytic_stays_in_zero_to_strike(self, r, sigma, strike, tau):
        """eta is defined, but the exponent is positive (rho > E, or an
        OverflowError) in the first two and rho underflows to 0 in the last."""
        p = MarketParams(r=r, sigma=sigma, strike=strike)
        with pytest.raises(DomainError, match=re.escape(f"tau={tau:g}:")):
            rho_ssc_analytic(tau, p)

    @pytest.mark.parametrize(
        "fn, name, r, sigma, tau, rho",
        [
            (rho_kk, "kk", 0.005, 0.8, 5.0, "-279.718"),
            (rho_ekk, "ekk", 0.005, 0.8, 5.0, "-312.475"),
            (rho_zhu_asymptote, "zhu-asymptote", 0.1, 5.0, 0.1, "-45.2432"),
            (rho_chen_chadam, "chen-chadam", 1e-6, 5.0, 1e4, "0"),
        ],
    )
    def test_closed_forms_stay_in_zero_to_strike(self, fn, name, r, sigma, tau, rho):
        """Defined formulas whose value leaves (0, E]: three go negative and
        the series underflows to 0."""
        p = MarketParams(r=r, sigma=sigma, strike=100.0)
        message = f"{name} formula leaves (0, E] at tau={tau:g}: rho={rho}"
        with pytest.raises(DomainError, match=re.escape(message)):
            fn(tau, p)

    def test_eta_lowest_order_domain(self, params):
        with pytest.raises(DomainError):
            eta_lowest_order(10.0, params)


class TestSeriesExpansion:
    def test_alpha_term_by_term_at_minus_ten(self):
        # exact rational evaluation of the printed series at xi = -10
        xi = Fraction(-10)
        want = (
            -xi
            - Fraction(1, 2) / xi
            + Fraction(1, 8) / xi**2
            + Fraction(17, 24) / xi**3
            - Fraction(51, 64) / xi**4
            - Fraction(287, 120) / xi**5
            + Fraction(199, 32) / xi**6
        )
        assert _chen_chadam_alpha(-10.0) == pytest.approx(float(want), rel=1e-14)

    def test_alpha_leading_terms(self):
        # at xi = -10 the first three contributions are 10, +0.05, +0.00125
        assert _chen_chadam_alpha(-10.0) == pytest.approx(
            10.0 + 0.05 + 0.00125, abs=2e-3
        )

    def test_matches_lowest_order_near_expiry(self, params):
        a = rho_chen_chadam(1e-4, params)
        b = rho_ssc_analytic(1e-4, params)
        assert abs(a - b) < 0.05

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            _chen_chadam_alpha(-0.5)


def test_dispatch_covers_all_tags(params):
    assert list(CLOSED_FORMS) == ["kk", "ekk", "ssc-a", "chen-chadam", "zhu-asymptote"]
    for fn in CLOSED_FORMS.values():
        assert 0 < fn(1e-5, params) <= params.strike


AGREEMENT_MARKETS = [
    MarketParams(r=0.1, sigma=0.3, strike=100.0),
    MarketParams(r=0.05, sigma=0.2, strike=1.0),
    MarketParams(r=0.15, sigma=0.4, strike=1.0),
    MarketParams(r=0.02, sigma=0.5, strike=50.0),
]

ETA_EDGE_MESSAGE = "log argument (2r/sigma) sqrt(2 pi tau) e^(r tau) >= 1; tau too large"


class TestScalarArrayAgreement:
    @pytest.mark.parametrize("p", AGREEMENT_MARKETS)
    def test_eta_float_matches_array(self, p):
        """The math (float) and numpy (array) evaluations of eta agree to
        2 ulp while eta^2 = -ln(arg) >= 1.  Nearer the domain edge
        sqrt(-ln arg) amplifies a one-ulp difference of exp or log by
        1/eta^2, so there the bound is 2 ulp * (1 + 1/eta^2)."""
        edge = (p.sigma / (2.0 * p.r)) ** 2 / (2.0 * math.pi)  # ignores e^(r tau) > 1
        taus, scalar = [], []
        for t in np.geomspace(1e-12, edge, 4000).tolist():
            try:
                v = eta_lowest_order(t, p)
            except DomainError:
                break  # arg grows with tau
            assert type(v) is float
            taus.append(t)
            scalar.append(v)
        assert len(taus) > 3000
        for v, want in zip(scalar, eta_lowest_order(np.array(taus), p).tolist()):
            scale = 1.0 if want**2 >= 1.0 else 1.0 + 1.0 / want**2
            assert abs(v - want) <= 2.0 * math.ulp(want) * scale

    @pytest.mark.parametrize("fn", list(CLOSED_FORMS.values()))
    def test_closed_forms_return_python_floats(self, params, fn):
        for tau in (1e-6, 1e-3, np.float64(1e-3)):
            assert type(fn(tau, params)) is float

    @pytest.mark.parametrize("tau", [10.0, np.float64(10.0), np.array([1e-3, 10.0])])
    def test_eta_domain_message(self, params, tau):
        with pytest.raises(DomainError) as err:
            eta_lowest_order(tau, params)
        assert str(err.value) == ETA_EDGE_MESSAGE

    @pytest.mark.parametrize(
        "tau",
        [0.0, -1e-3, math.nan, np.array([math.nan]), np.array([0.0, 0.01]), np.array([-0.01])],
    )
    def test_eta_rejects_nonpositive_scalar(self, params, tau):
        """A scalar, or any element of an array, that is not positive."""
        with pytest.raises(DomainError, match="tau must be positive"):
            eta_lowest_order(tau, params)

    def test_ssc_analytic_domain_message(self, params):
        with pytest.raises(DomainError) as err:
            rho_ssc_analytic(10.0, params)
        assert str(err.value) == ETA_EDGE_MESSAGE
