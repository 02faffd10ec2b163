import math

import numpy as np
import pytest

from putboundary import (
    DomainError,
    MarketParams,
    QuadratureNodeError,
    SmallTauSubstitution,
    TailTooHeavyError,
    f2_max,
    gamma_critical,
    rho_zhu,
    rho_zhu_asymptote,
    zhu_kernels,
    zhu_second_derivative,
)
from putboundary import zhu
from putboundary.core import _ROOT_TOL
from putboundary.zhu import SMALL_TAU_CUTOFF, _tabulated_kernel

import oracles

# long-horizon reference column for the integral formula
ZHU_TABLE = {
    0.02: 90.8575,
    0.04: 88.6563,
    0.06: 87.2160,
    0.08: 86.1300,
    0.1: 85.2538,
    0.2: 82.3766,
    0.4: 79.3593,
    0.6: 77.5961,
    0.8: 76.3752,
    1.0: 75.4580,
    1.5: 73.8879,
    2.0: 72.8731,
    3.0: 71.6205,
    4.0: 70.8778,
    5.0: 70.3925,
}


class TestKernels:
    def test_zeta_zero_closed_form(self, params):
        f1, f2 = zhu_kernels(0.0, params)
        assert f1 == pytest.approx(math.log(params.a / params.gamma) / params.b, rel=1e-14)
        assert f2 == 0.0

    def test_decay_at_large_zeta(self, params):
        for zeta in (1e6, 1e8):
            f1, f2 = zhu_kernels(zeta, params)
            bound = 2.0 * math.log(zeta) / zeta
            assert abs(f1) < bound and abs(f2) < bound
        a1, a2 = zhu_kernels(1e6, params)
        b1, b2 = zhu_kernels(1e7, params)
        assert abs(b1) < abs(a1) and abs(b2) < abs(a2)

    def test_against_precision_oracle(self, params):
        # frozen from a 50-digit evaluation of the printed kernel formulas
        f1, f2 = zhu_kernels(1.0, params)
        assert f1 == pytest.approx(0.4750358245092477, abs=1e-13)
        assert f2 == pytest.approx(0.13165839941939332, abs=1e-13)

    def test_singular_point(self):
        p = MarketParams(r=0.045, sigma=0.3, strike=100.0)  # gamma = 1, b = 0
        with pytest.raises(DomainError):
            zhu_kernels(0.0, p)
        with pytest.raises(DomainError):
            zhu_kernels(np.array([0.5, 0.0]), p)
        assert math.isfinite(zhu_kernels(0.5, p)[0])

    def test_array_equals_scalars(self, params):
        zeta = np.geomspace(1e-6, 1e6, 97)
        f1, f2 = zhu_kernels(zeta, params)
        pairs = [zhu_kernels(float(z), params) for z in zeta]
        assert type(pairs[0][0]) is float and f1.shape == zeta.shape
        assert np.array_equal(f1, [q[0] for q in pairs])
        assert np.array_equal(f2, [q[1] for q in pairs])

    def test_negative_zeta_rejected(self, params):
        with pytest.raises(DomainError):
            zhu_kernels(-1.0, params)


class TestBoundary:
    @pytest.mark.parametrize("tau", [0.1, 1.0])
    def test_reference_values(self, params, tau):
        assert rho_zhu(tau, params) == pytest.approx(ZHU_TABLE[tau], abs=1e-3)

    def test_perpetual_limit(self, params):
        assert rho_zhu(200.0, params) == pytest.approx(
            params.perpetual_boundary, abs=1e-6
        )

    def test_above_perpetual(self, params):
        for tau in (0.01, 0.1, 1.0, 5.0, 20.0):
            assert rho_zhu(tau, params) > params.perpetual_boundary

    def test_small_tau_substitution_flagged(self, params):
        assert SMALL_TAU_CUTOFF == 1e-16
        with pytest.warns(SmallTauSubstitution):
            v = rho_zhu(1e-17, params)
        assert v == rho_zhu_asymptote(1e-17, params)

    def test_truncation_doubling_invariance(self, monkeypatch, params):
        # the grid ends at the Gaussian cutoff of the smallest integrated
        # tau; a quarter of that tau doubles the end and moves every node
        taus = np.array([1e-15, 1e-8, 1e-3, 0.01, 1.0])
        a = rho_zhu(taus, params)
        monkeypatch.setattr(zhu, "SMALL_TAU_CUTOFF", SMALL_TAU_CUTOFF / 4)
        _tabulated_kernel.cache_clear()
        b = rho_zhu(taus, params)
        _tabulated_kernel.cache_clear()
        assert np.max(np.abs(a - b)) < 1e-15 * params.strike

    @pytest.mark.parametrize("gamma", [0.222, 2.22, 9.6, 12.0, 80.0])
    def test_monotone_across_the_old_cutoff(self, gamma):
        """The asymptote once took over below 1e-6, where it is off by up to
        7e-3 E (gamma 0.002-800, sigma 0.05-1.5): at gamma = 9.6 rho rose."""
        p = MarketParams(r=0.5 * gamma * 0.25**2, sigma=0.25, strike=100.0)
        vals = rho_zhu(np.geomspace(1e-7, 1e-5, 201), p)
        assert np.all(np.diff(vals) < 0)

    def test_monotone_decreasing_and_convex(self, params):
        taus = [0.01 * k for k in range(1, 101)]
        vals = [rho_zhu(t, params) for t in taus]
        diffs = np.diff(vals)
        assert np.all(diffs < 0)
        second = np.diff(vals, 2)
        assert np.all(second > 0)


class TestSecondDerivative:
    def test_positive_above_critical_gamma(self):
        for gamma in (0.0167821, 0.1, 1.0, 2.2222):
            p = MarketParams(r=gamma * 0.09 / 2, sigma=0.3, strike=100.0)
            for tau in (0.05, 1.0, 5.0):
                assert zhu_second_derivative(tau, p) > 0.0

    def test_vanishes_at_long_horizon(self, params):
        assert abs(zhu_second_derivative(200.0, params)) < 1e-10

    def test_matches_finite_difference_oracle(self, params):
        # centered second difference of the boundary on the same grid
        h = 1e-3
        fd = (
            rho_zhu(1.0 + h, params) - 2.0 * rho_zhu(1.0, params) + rho_zhu(1.0 - h, params)
        ) / (h * h)
        direct = zhu_second_derivative(1.0, params)
        assert direct == pytest.approx(fd, rel=1e-4)

    def test_agreement_with_second_differences_across_horizons(self, params):
        for tau in (0.1, 0.5, 1.0, 2.0):
            h = 1e-3
            fd = (
                rho_zhu(tau + h, params) - 2.0 * rho_zhu(tau, params) + rho_zhu(tau - h, params)
            ) / (h * h)
            assert zhu_second_derivative(tau, params) == pytest.approx(fd, rel=1e-3)


#: max over zeta of f2 at gamma = 10^(k/2), k = -10..10, by golden-section
#: search to a bracket of 1e-10 relative after the 512-point log scan
F2_PEAKS = [
    10.412828117975296, 9.265988411266106, 8.12081422475118, 6.978616673703713,
    5.842244118014562, 4.718041944832473, 3.6199627704491193, 2.57697622910475,
    1.6425220047396223, 0.8950207473559594, 0.4023711712747059, 0.1519027124207115,
    0.05155464578079292, 0.016707603381960198, 0.005325860548199301,
    0.0016884972457684192, 0.000534383100186469, 0.0001690301815970224,
    5.345637965883442e-05, 1.69048258821479e-05, 5.34581876212596e-06,
]


class TestCriticalGamma:
    def test_peak_at_critical_value(self):
        assert f2_max(0.0167821) == pytest.approx(math.pi, abs=1e-3)

    def test_large_gamma_below_pi(self):
        for gamma in (1.0, 2.2222, 10.0):
            assert f2_max(gamma) < math.pi

    def test_against_dense_scan_oracle(self, params):
        got = f2_max(params.gamma)
        want = oracles.dense_scan_f2_max(params.gamma)
        assert got == pytest.approx(want, abs=1e-6)
        assert got >= want - 1e-12  # scan can only undershoot the true max

    def test_matches_golden_section_peaks(self):
        """f2_max at gamma = 10^(k/2), k = -10..10, against the peaks an
        exhaustive golden-section search of f2 gave: within 1e-13 relative
        and never below by more.  A search that stops early on a broad
        peak (large gamma) lands below it."""
        for k, want in zip(range(-10, 11), F2_PEAKS):
            got = f2_max(10.0 ** (k / 2))
            assert abs(got - want) <= 1e-13 * want, k
            assert got >= want * (1.0 - 1e-13), k

    def test_critical_gamma_value(self):
        g0 = gamma_critical()
        assert g0 == pytest.approx(0.0167821, abs=1e-5)
        assert f2_max(g0) == pytest.approx(math.pi, abs=1e-6)
        assert f2_max(2 * g0) < math.pi

    def test_critical_gamma_to_the_root_tolerance(self):
        """The bracket (1e-4, 1) spans four decades; the root still lands
        within 1e-12 relative of a narrow-bracket solve, so the search does
        not stop early, and f2_max is pi there to the root tolerance."""
        g0 = gamma_critical()
        assert abs(g0 / 0.01678207552590423 - 1.0) <= 1e-12
        assert abs(f2_max(g0) - math.pi) <= _ROOT_TOL

    def test_monotone_peak_in_gamma(self):
        gs = [0.005, 0.0167821, 0.05, 0.2, 1.0]
        peaks = [f2_max(g) for g in gs]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))


class TestArrayContract:
    def test_scalar_equals_array_element_bit_for_bit(self, params):
        taus = np.geomspace(SMALL_TAU_CUTOFF, 200.0, 301)
        got = rho_zhu(taus, params)
        want = np.array([rho_zhu(float(t), params) for t in taus])
        assert type(rho_zhu(1.0, params)) is float
        assert got.shape == taus.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        grid = rho_zhu(taus.reshape(7, 43), params)
        assert np.array_equal(grid.ravel().view(np.int64), want.view(np.int64))

    def test_mixed_array_substitutes_only_small_taus(self, params):
        taus = np.array([1.0, 1e-17, 1e-3, 5e-18, 0.1])
        with pytest.warns(SmallTauSubstitution, match="2 of 5"):
            got = rho_zhu(taus, params)
        assert got[1] == rho_zhu_asymptote(1e-17, params)
        assert got[3] == rho_zhu_asymptote(5e-18, params)
        for k in (0, 2, 4):
            assert got[k] == rho_zhu(float(taus[k]), params)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
    def test_any_invalid_tau_in_array_rejected(self, params, bad):
        with pytest.raises(DomainError, match="positive and finite"):
            rho_zhu(np.array([0.5, bad, 1.0]), params)
        with pytest.raises(DomainError, match="positive and finite"):
            rho_zhu(bad, params)

    def test_nonfinite_kernel_node_reported(self):
        # no RuntimeWarning escapes the table: pytest turns one into an error
        # gamma = 2e100 and a^2 = 1e200 are finite, but the grid's end
        # Z = 1.1e159 is not: the first node whose square overflows is reported
        p = MarketParams(r=1e-200, sigma=1e-150, strike=100.0)
        with pytest.raises(QuadratureNodeError) as err:
            rho_zhu(np.array([0.5, 1.0]), p)
        assert math.sqrt(np.finfo(float).max) < err.value.abscissa < 1e155


class TestKernelTable:
    """The tau-free kernel row is tabulated once per market and shared by
    every later call of rho_zhu and zhu_second_derivative."""

    TAUS = np.array([1e-3, 0.02, 0.4, 1.0, 5.0])

    def test_scalar_equals_array_element_from_a_warm_table(self, params):
        _tabulated_kernel.cache_clear()
        want = rho_zhu(self.TAUS, params)  # fills the table
        got = np.array([rho_zhu(float(t), params) for t in self.TAUS])
        assert _tabulated_kernel.cache_info().hits == self.TAUS.size
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        _tabulated_kernel.cache_clear()
        assert rho_zhu(1.0, params) == want[3]  # a cold table gives the same bits

    def test_one_table_for_rho_and_its_second_derivative(self, params):
        _tabulated_kernel.cache_clear()
        taus = (1e-16, 1e-12, 5e-7, 1e-3, 1.0, 5.0)
        rho_zhu(np.array(taus), params)
        for tau in taus:
            rho_zhu(tau, params)
            if tau > 1e-16:
                zhu_second_derivative(tau, params)
        info = _tabulated_kernel.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_tables_are_read_only(self, params):
        rho_zhu(1.0, params)
        kernel, q, *_ = _tabulated_kernel(params)
        for row in (kernel, q):
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 0.0

    def test_non_finite_kernel_raised_on_every_call(self):
        p = MarketParams(r=1e-200, sigma=1e-150, strike=100.0)  # Z^2 overflows
        before = _tabulated_kernel.cache_info()
        for _ in range(2):
            with pytest.raises(QuadratureNodeError):
                rho_zhu(1.0, p)
        after = _tabulated_kernel.cache_info()
        # both calls tabulated afresh, and the failure left no table behind
        assert (after.hits, after.misses, after.currsize) == (
            before.hits,
            before.misses + 2,
            before.currsize,
        )


class TestTailBound:
    """The tail beyond the last node Z, bounded from |f| at Z and 1.1 Z, must
    stay below the tail allowance for every tau of a call."""

    @pytest.mark.parametrize("sigma", [0.05, 1.5])
    def test_accepted_near_cutoff_at_default_tolerance(self, sigma):
        p = MarketParams(r=0.05 * sigma**2, sigma=sigma, strike=100.0)
        vals = rho_zhu(np.array([1e-16, 1.5e-16, 2e-16]), p)
        assert np.all(np.isfinite(vals)) and np.all(np.diff(vals) < 0)

    def test_second_derivative_accepted_near_cutoff(self):
        p = MarketParams(r=0.05 * 0.05**2, sigma=0.05, strike=100.0)
        # the one grid reaches far enough for the (a^2+zeta^2)^2 growth too
        for tau in (1e-14, 1e-10, 1e-8, 1e-7, 1.01e-6, 2e-6):
            assert zhu_second_derivative(tau, p) > 0.0

    def test_default_allowance_named(self, params):
        # at the cutoff the (a^2+zeta^2)^2 growth outruns the damping at Z
        with pytest.raises(TailTooHeavyError, match=r"over the 1\.0e-09 allowed"):
            zhu_second_derivative(1e-16, params)

    def test_tight_tolerance_rejected(self, params, monkeypatch):
        monkeypatch.setattr(zhu, "_TAIL_ALLOWANCE", 1e-39)
        with pytest.raises(TailTooHeavyError) as err:
            rho_zhu(1e-16, params)
        msg = str(err.value)
        assert "tau=1e-16" in msg and "Z=3.66667e+09" in msg and "1.0e-39" in msg
        assert "increase" not in msg
        # at the cutoff the (a^2+zeta^2)^2 growth outruns the damping at Z
        with pytest.raises(TailTooHeavyError, match="tau=1e-16"):
            zhu_second_derivative(1e-16, params)

    def test_every_tau_checked(self, params, monkeypatch):
        monkeypatch.setattr(zhu, "_TAIL_ALLOWANCE", 1e-39)
        # far from the cutoff the damped integrand underflows before Z
        assert np.all(np.isfinite(rho_zhu(np.array([1.0, 5.0]), params)))
        with pytest.raises(TailTooHeavyError, match="tau=1e-16"):
            rho_zhu(np.array([1.0, 5.0, 1e-16]), params)


ORACLE_GAMMAS = (0.005, 0.0125, 0.0167821, 0.033, 1.0, 2.22, 17.8, 60.0)
ORACLE_SIGMAS = (0.05, 0.15, 0.3, 0.8, 1.5)
ORACLE_TAUS = (1e-3, 0.1, 5.0, 200.0)
#: the Newton-Cotes oracle needs ~1/(sigma sqrt(tau)) nodes, so its smallest
#: taus run for every gamma at the largest sigma and for every sigma at gamma0
SMALL_ORACLE_TAUS = (1.01e-6, 1e-5)


@pytest.mark.parametrize("sigma", ORACLE_SIGMAS)
@pytest.mark.parametrize("gamma", ORACLE_GAMMAS)
def test_against_newton_cotes_oracle(gamma, sigma):
    """The log-substituted trapezoid rule against the fixed-step Newton-Cotes
    rule in zeta, within 1e-12 E for rho and 1e-12 relative (or 1e-12 E
    where d2 rho/d tau2 is smaller than E) for the second derivative."""
    p = MarketParams(r=0.5 * gamma * sigma**2, sigma=sigma, strike=100.0)
    taus = ORACLE_TAUS
    if sigma == ORACLE_SIGMAS[-1] or gamma == ORACLE_GAMMAS[2]:
        taus = SMALL_ORACLE_TAUS + taus
    got = rho_zhu(np.array(taus), p)
    for k, tau in enumerate(taus):
        want = oracles.rho_zhu_newton_cotes(tau, p)
        assert abs(got[k] - want) <= 1e-12 * p.strike, (tau, got[k], want)
        want = oracles.zhu_second_derivative_newton_cotes(tau, p)
        d2 = zhu_second_derivative(tau, p)
        assert abs(d2 - want) <= 1e-12 * max(abs(want), p.strike), (tau, d2, want)
