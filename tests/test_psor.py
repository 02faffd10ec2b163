import dataclasses
import math

import numpy as np
import pytest

from putboundary import (
    DomainError,
    MarketParams,
    NoContactError,
    NumericalError,
    PsorConfig,
    european_put,
    extract_boundary,
    price_at,
    psor_solve,
)
from putboundary.psor import _LinearScan, transform_constants

import oracles

SMALL = PsorConfig(n=200, m=100, T=1.0)


@pytest.fixture(scope="module")
def small_solution(params):
    return psor_solve(params, SMALL)


class TestTransform:
    def test_constants(self, params):
        alpha, beta = transform_constants(params)
        assert alpha == pytest.approx(0.1 / 0.09 - 0.5, rel=1e-14)
        assert beta == pytest.approx(0.05 + 0.09 / 8 + 0.01 / 0.18, rel=1e-14)

    @pytest.mark.parametrize(
        "r, sigma, grid",
        [
            # gamma = 800: e^(beta tau) would leave float range from tau ~ 3.54
            (1.0, 0.05, dict(n=20, m=50, T=5.0, L=0.5)),
            # e^(beta tau) = e^709.66 is finite, the payoff times it would not be
            (0.01, 10.0, dict(n=20, m=1, T=56.75, L=2.0)),
        ],
    )
    def test_extreme_market_levels_stay_finite(self, r, sigma, grid):
        """The scaled levels do not grow with tau, so markets whose
        untransformed levels e^(beta tau) u would overflow solve to finite
        levels without a floating-point warning (pytest turns one into an
        error).  Their grids are too narrow for the exercise region, so the
        extraction raises a typed error at level 1."""
        p = MarketParams(r=r, sigma=sigma, strike=100.0)
        sol = psor_solve(p, PsorConfig(**grid))
        assert np.all(np.isfinite(sol.u))
        with pytest.raises(NumericalError, match=r"^level 1: "):
            extract_boundary(sol)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            PsorConfig(n=200, m=100, T=1.0, omega=2.5)
        with pytest.raises(DomainError):
            PsorConfig(n=1, m=100, T=1.0)
        with pytest.raises(DomainError):
            PsorConfig(n=200, m=100, T=-1.0)


class TestSolution:
    def test_initial_row_is_transformed_payoff(self, params, small_solution):
        x = small_solution.x
        want = np.exp(small_solution.alpha * x) * np.maximum(1.0 - np.exp(x), 0.0)
        assert np.array_equal(small_solution.u[:, 0], want)

    def test_far_field_decay(self, params, small_solution):
        V = small_solution.u[-1, :] * math.exp(-small_solution.alpha * SMALL.L)
        assert np.all(V * params.strike <= 1e-6 * params.strike)

    def test_price_dominates_payoff_everywhere(self, small_solution):
        payoff = small_solution.payoff_rel()
        scale = np.exp(-small_solution.alpha * small_solution.x)
        for j in range(0, SMALL.m + 1, 10):
            assert np.all(small_solution.u[:, j] * scale - payoff >= -1e-12)

    def test_monotone_in_price_and_maturity(self, small_solution):
        interior = slice(1, -1)
        scale = np.exp(-small_solution.alpha * small_solution.x)
        for j in (10, 50, 100):
            V = small_solution.u[:, j] * scale
            assert np.all(np.diff(V[interior]) <= 1e-9)
        node = 220  # just above the strike, continuation region
        v_fixed = small_solution.u[node, :] * scale[node]
        assert np.all(np.diff(v_fixed) >= -1e-9)

    def test_complementarity_residual(self, params, small_solution):
        """At every level every interior node either sits on the obstacle or
        satisfies the time-step equation, whose right-hand side carries the
        scaling e^(-beta k), and is never pushed below it: the direct step
        leaves both at round-off."""
        lam = params.sigma**2 * SMALL.k / (2.0 * SMALL.h**2)
        decay = math.exp(-transform_constants(params)[1] * SMALL.k)
        U = small_solution.u
        g = small_solution.payoff_rel() * np.exp(small_solution.alpha * small_solution.x)
        rhs = decay * (0.5 * lam * (U[:-2, :-1] + U[2:, :-1]) + (1.0 - lam) * U[1:-1, :-1])
        residual = (1.0 + lam) * U[1:-1, 1:] - 0.5 * lam * (U[:-2, 1:] + U[2:, 1:]) - rhs
        gap = (U - g[:, None])[1:-1, 1:]
        tol = 1e-12 * np.abs(U).max()  # measured: 1.2e-15 of the max
        assert np.all(residual >= -tol)
        assert np.all(np.minimum(gap, np.abs(residual)) <= tol)


class TestExtraction:
    def test_expiry_node_is_strike(self, params, small_solution):
        curve = extract_boundary(small_solution)
        assert curve.rhos[0] == params.strike

    def test_nonincreasing_up_to_grid_jitter(self, params, small_solution):
        curve = extract_boundary(small_solution)
        rises = np.diff(curve.rhos)
        allowed = SMALL.h * curve.rhos[:-1] * 1.01  # one cell in log-price
        assert np.all(rises <= allowed)

    def test_reasonable_one_year_value(self, params, small_solution):
        # coarse grid still lands within half a dollar of the converged level
        curve = extract_boundary(small_solution)
        assert curve.value(1.0) == pytest.approx(76.16, abs=0.5)

    def test_no_contact_when_domain_too_narrow(self, params):
        cfg = PsorConfig(n=40, m=40, T=1.0, L=0.05)
        with pytest.raises(NoContactError):
            extract_boundary(psor_solve(params, cfg))


class TestPriceLookup:
    def test_deep_exercise_value(self, params, small_solution):
        assert price_at(small_solution, 60.0, 0.0) == pytest.approx(40.0, abs=1e-4)

    def test_far_field_value(self, params, small_solution):
        S = params.strike * math.exp(SMALL.L)
        assert price_at(small_solution, S, 0.0) <= 1e-6 * params.strike

    def test_dominates_european_floor(self, params, small_solution):
        euro = european_put(100.0, 1.0, params)
        v = price_at(small_solution, 100.0, 0.0)
        assert euro < v < euro + 1.5

    def test_domain_checks(self, params, small_solution):
        with pytest.raises(DomainError):
            price_at(small_solution, params.strike * math.exp(3.0), 0.0)
        with pytest.raises(DomainError):
            price_at(small_solution, 100.0, 2.0)


class TestAgainstSorOracle:
    """The Brennan-Schwartz step gives the point projected SOR converges to."""

    def test_direct_step_matches_sor(self):
        cfg = PsorConfig(n=40, m=20, T=1.0, L=1.5)
        for gamma in (0.6, 1.0, 3.0, 6.0):
            p = MarketParams(r=0.5 * gamma * 0.3**2, sigma=0.3, strike=100.0)
            sol = psor_solve(p, cfg)
            scale = np.exp(-transform_constants(p)[1] * sol.taus)
            ref = oracles.psor_sor_levels(p, cfg, tol=1e-13) * scale
            # measured: <= 5.4e-14, SOR's own stopping error
            assert np.abs(sol.u - ref).max() <= 1e-13, gamma

    def test_long_horizon_boundary_matches_sor(self, params):
        # omega near the optimum for lam = 67.5 keeps the oracle at ~5 s
        cfg = PsorConfig(n=300, m=300, T=5.0, L=1.0, omega=1.75)
        sol = psor_solve(params, cfg)
        scale = np.exp(-transform_constants(params)[1] * sol.taus)
        ref = dataclasses.replace(sol, u=oracles.psor_sor_levels(params, cfg, tol=1e-11) * scale)
        direct, sor = extract_boundary(sol), extract_boundary(ref)
        for tau in (0.02, 1.0, 3.0, 4.0, 5.0):
            # measured: <= 2.5e-9 at E = 100
            assert float(direct.value(tau)) == pytest.approx(float(sor.value(tau)), abs=1e-8)

    def test_omega_and_tol_do_not_change_the_result(self, params):
        cfg = PsorConfig(n=30, m=10, T=0.5)
        other = dataclasses.replace(cfg, omega=0.3, tol=1e-3)
        assert np.array_equal(psor_solve(params, cfg).u, psor_solve(params, other).u)


def _recurrence(a, b, start=0):
    """y_start = b_start, y_i = b_i + a_i y_{i-1}, one step at a time."""
    y = [float(b[start])]
    for i in range(start + 1, len(b)):
        y.append(float(b[i]) + float(a[i]) * y[-1])
    return np.array(y)


def _y_bound(a, b, start=0):
    """max |b| / (1 - max a) over the scanned range: the bound on |y| that
    psor_solve derives the same way for its scans."""
    return float(np.abs(b[start:]).max()) / (1.0 - float(a.max()))


class TestLinearScan:
    """The prefix-scan form of y_i = b_i + a_i y_{i-1} against the plain
    recurrence, with the bound on |y| passed in."""

    rng = np.random.default_rng(7)

    @pytest.mark.parametrize("a_lo, a_hi", [(1e-6, 1e-3), (0.3, 0.7), (1.0 - 1e-9, 1.0)])
    def test_matches_recurrence(self, a_lo, a_hi):
        a = self.rng.uniform(a_lo, a_hi, 3000)
        b = self.rng.uniform(-1.0, 1.0, 3000)
        scan = _LinearScan(a)
        for start in (0, 1, 1234):
            want = _recurrence(a, b, start)
            buf = b.copy()
            got = scan(buf, start, _y_bound(a, b, start))
            # the scan overwrites b[start:] and returns that view
            assert np.shares_memory(got, buf) and np.array_equal(buf[:start], b[:start])
            # measured: <= 7.1e-15, with a near 1 where y sums ~3000 terms
            assert np.abs(got - want).max() <= 2e-14 * np.abs(want).max(), (a_lo, start)

    def test_reversed_view_in_place(self):
        """psor's elimination scans the level's buffer right to left through
        a reversed view."""
        a = self.rng.uniform(0.3, 0.7, 500)
        b = self.rng.uniform(-1.0, 1.0, 500)
        buf = b[::-1].copy()
        _LinearScan(a)(buf[::-1], 0, _y_bound(a, b))
        assert np.abs(buf[::-1] - _recurrence(a, b)).max() <= 1e-15 * np.abs(buf).max()

    def test_block_boundaries(self):
        """With a = 1e-3 a block holds 87 coefficients (D = 1e-258 ~ e^-594
        at its end), so 1000 coefficients make 12 blocks; starts on, just
        before and just after a block boundary all agree with the
        recurrence."""
        a = np.full(1000, 1e-3)
        b = self.rng.uniform(0.5, 1.0, 1000)
        scan = _LinearScan(a)
        assert len(scan.bounds) - 1 == 12
        edge = scan.bounds[3]
        for start in (0, edge - 1, edge, edge + 1, 999):
            want = _recurrence(a, b, start)
            got = scan(b.copy(), start, _y_bound(a, b, start))
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_coefficient_near_zero_starts_a_block(self):
        a = np.full(50, 0.5)
        a[[10, 11, 30]] = 1e-300
        b = self.rng.uniform(-1.0, 1.0, 50)
        scan = _LinearScan(a)
        assert {10, 11, 30} <= set(scan.bounds)
        want = _recurrence(a, b)
        assert np.abs(scan(b.copy(), 0, _y_bound(a, b)) - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("size", [1e300, 1e-300])
    def test_extreme_values_stay_finite(self, size):
        """b near 1e300 and y up to ~7e300 stay finite, though b/D alone
        would overflow: 1/D reaches 0.875^-1999 ~ 1e116 in the one block.
        The bound 8e300 scales the blocks; 8e-300 leaves them as they are."""
        a = np.full(2000, 0.875)
        b = size * self.rng.uniform(0.5, 1.0, 2000)
        want = _recurrence(a, b)
        got = _LinearScan(a)(b.copy(), 0, _y_bound(a, b))
        assert np.all(np.isfinite(got))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_zero_right_hand_side(self):
        assert np.array_equal(_LinearScan(np.full(5, 0.5))(np.zeros(5), 0, 0.0), np.zeros(5))


# (n, m, T, L) with lam = sigma^2 k / (2 h^2) at sigma = 0.3 from 9e-4 to
# 2.3e3; at lam = 9e-4 c/d' ~ 4.5e-4, so each scan of 199 nodes runs in 3
# blocks
ORACLE_GRIDS = [
    (100, 50, 1e-4, 1.0),  # lam 9e-4
    (300, 30, 5e-4, 1.5),  # lam 0.03
    (100, 400, 1.0, 1.0),  # lam 1.1
    (1000, 1000, 1.0, 2.5),  # CLI boundary/compare defaults at T = 1, lam 7.2
    (200, 200, 5.0, 1.0),  # long-horizon table grid, lam 45
    (1200, 600, 0.006, 0.06),  # mispricing defaults, lam 180
    (1000, 20, 1.0, 1.0),  # lam 2.3e3
]


class TestAgainstLoopOracle:
    """The two prefix scans per level against the Brennan-Schwartz step
    written as two Python loops."""

    @pytest.mark.parametrize("n, m, T, L", ORACLE_GRIDS)
    def test_scans_match_loops(self, n, m, T, L):
        cfg = PsorConfig(n=n, m=m, T=T, L=L)
        for gamma in (0.6, 1.0, 3.0, 6.0):
            p = MarketParams(r=0.5 * gamma * 0.3**2, sigma=0.3, strike=100.0)
            ref = oracles.psor_brennan_schwartz_levels(p, cfg)
            # measured: <= 8.6e-14
            assert np.abs(psor_solve(p, cfg).u - ref).max() <= 1e-13 * np.abs(ref).max(), gamma


class TestScaledLevels:
    """The scaled levels w = e^(-beta tau) u stay between the fixed obstacle
    g and its maximum at every horizon, so the march has no growth that
    could leave float range."""

    @staticmethod
    def assert_bounded(p, cfg):
        w = psor_solve(p, cfg).u
        g = w[:, :1]
        assert np.all(w >= g)
        assert np.all(w <= g.max())

    @pytest.mark.parametrize("n, m, T, L", ORACLE_GRIDS)
    def test_levels_between_obstacle_and_its_max(self, n, m, T, L):
        cfg = PsorConfig(n=n, m=m, T=T, L=L)
        for gamma in (0.6, 1.0, 3.0, 6.0):
            self.assert_bounded(MarketParams(r=0.5 * gamma * 0.3**2, sigma=0.3, strike=100.0), cfg)

    def test_long_horizon_levels_bounded(self, params):
        # the unscaled levels e^(beta tau) w overflow at level 121 (tau = 6050)
        self.assert_bounded(params, PsorConfig(n=50, m=200, T=1e4, L=2.5))


class TestScanBounds:
    """The bound psor_solve passes to each scan dominates the largest |b|
    and |y| of that scan at every level, so the overflow guard sees a true
    bound."""

    @staticmethod
    def assert_bounds_dominate(monkeypatch, p, cfg):
        scan = _LinearScan.__call__
        seen = []

        def spy(self, b, start, bound):
            peak = float(np.abs(b[start:]).max())
            y = scan(self, b, start, bound)
            seen.append((max(peak, float(np.abs(y).max())), bound))
            return y

        monkeypatch.setattr(_LinearScan, "__call__", spy)
        psor_solve(p, cfg)
        assert len(seen) >= cfg.m
        assert all(peak <= bound < math.inf for peak, bound in seen)

    @pytest.mark.parametrize("n, m, T, L", ORACLE_GRIDS)
    def test_oracle_grids(self, monkeypatch, n, m, T, L):
        cfg = PsorConfig(n=n, m=m, T=T, L=L)
        for gamma in (0.6, 1.0, 3.0, 6.0):
            p = MarketParams(r=0.5 * gamma * 0.3**2, sigma=0.3, strike=100.0)
            self.assert_bounds_dominate(monkeypatch, p, cfg)

    def test_long_horizon_grid(self, monkeypatch, params):
        self.assert_bounds_dominate(monkeypatch, params, PsorConfig(n=50, m=200, T=1e4, L=2.5))


class TestOnePassExtraction:
    """extract_boundary reads all levels in one array pass, against the
    per-level loop (tests/oracles.py)."""

    @pytest.mark.parametrize("n, m, T, L", ORACLE_GRIDS)
    def test_matches_level_loop_bit_for_bit(self, n, m, T, L):
        cfg = PsorConfig(n=n, m=m, T=T, L=L)
        for gamma in (0.6, 1.0, 3.0, 6.0):
            p = MarketParams(r=0.5 * gamma * 0.3**2, sigma=0.3, strike=100.0)
            sol = psor_solve(p, cfg)
            for ct in (1e-8, 1e-6):
                try:
                    want = oracles.psor_extract_levels(sol, ct)
                except NoContactError as exc:
                    with pytest.raises(NoContactError) as info:
                        extract_boundary(sol, ct)
                    assert str(info.value) == str(exc)
                    continue
                assert np.array_equal(extract_boundary(sol, ct).rhos, want), (gamma, ct)

    @pytest.mark.parametrize("L, level", [(0.05, 1), (0.1, 3)])
    def test_narrow_domain_fails_at_the_same_level(self, params, L, level):
        sol = psor_solve(params, PsorConfig(n=40, m=40, T=1.0, L=L))
        with pytest.raises(NoContactError) as want:
            oracles.psor_extract_levels(sol)
        with pytest.raises(NoContactError) as got:
            extract_boundary(sol)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"level {level}: ")
