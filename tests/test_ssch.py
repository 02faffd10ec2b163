import math

import numpy as np
import pytest

from putboundary import (
    LogDomainError,
    MarketParams,
    MeshError,
    MeshKind,
    NumericalError,
    PsorConfig,
    build_mesh,
    eta_lowest_order,
    extract_boundary,
    psor_solve,
    solve_boundary,
)
from putboundary import ssch
from putboundary.core import _ROOT_TOL
from putboundary.asymptotics import _log_eta_argument
from putboundary.ssch import _f_of_eta, _log_a, _newton, _sample, _solve_node, _theta_nodes

import oracles

# long-horizon reference column for the iterative solver
SSCH_TABLE = {
    0.02: 92.3461,
    0.1: 86.7636,
    0.2: 83.7476,
    1.0: 76.1632,
    2.0: 73.2722,
    5.0: 70.5100,
}

# the standard market, gamma = 0.22 and gamma = 9.6, solved over five years
NEWTON_MARKETS = [
    MarketParams(r=0.1, sigma=0.3, strike=100.0),
    MarketParams(r=0.01, sigma=0.3, strike=100.0),
    MarketParams(r=0.3, sigma=0.25, strike=100.0),
]


def path(grid, solved):
    """eta array on the grid with the given values on nodes 1, 2, ... and
    NaN on node 0 and every unsolved node."""
    etas = np.full(len(grid), math.nan)
    etas[1 : len(solved) + 1] = solved
    return etas


def increment(taus, etas, i, eta_i, theta, p):
    """G = [eta_i - eta(tau_i sin^2 th) sin(th)] / cos(th) on the path
    sampled with eta_i as the value at node i."""
    st = np.sin(theta)
    base, slope = _sample(taus, etas, i, taus[i] * st * st, p)
    return (eta_i - (base + slope * eta_i) * st) / np.cos(theta)


def f_on_path(taus, etas, i, eta_i, p):
    """F at node i for the trial eta_i, with the path sampled on the nodes
    of the theta rule."""
    tau_i = float(taus[i])
    st = _theta_nodes()[0]
    base, slope = _sample(taus, etas, i, tau_i * st * st, p)
    return _f_of_eta(tau_i, base, slope, p)(eta_i)[0]


def _spy_on_nodes(monkeypatch):
    """Record (i, etas) for every _solve_node call of solve_boundary; etas
    is the solve's own array, so it is complete once the solve returns."""
    nodes = []

    def spy(taus, etas, i, p):
        nodes.append((i, etas))
        return _solve_node(taus, etas, i, p)

    monkeypatch.setattr(ssch, "_solve_node", spy)
    return nodes


class TestMesh:
    def test_quadratic_nodes(self, params):
        grid = build_mesh(1.0, 4, MeshKind.QUADRATIC, params)
        assert np.allclose(grid.taus, [0.0, 1 / 16, 4 / 16, 9 / 16, 1.0])

    def test_uniform_nodes(self, params):
        grid = build_mesh(1.0, 4, MeshKind.UNIFORM, params)
        assert np.allclose(grid.taus, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_first_node_condition(self, params):
        with pytest.raises(MeshError):
            build_mesh(5.0, 2, MeshKind.QUADRATIC, params)

    def test_too_few_steps(self, params):
        with pytest.raises(MeshError):
            build_mesh(1.0, 1, MeshKind.QUADRATIC, params)


class TestPathAndMappings:
    def test_g_at_theta_zero(self, params):
        grid = build_mesh(0.02, 2, MeshKind.QUADRATIC, params)
        etas = path(grid, [eta_lowest_order(grid.taus[1], params)])
        assert increment(grid.taus, etas, 2, -1.25, np.array([0.0]), params)[0] == -1.25

    def test_g_constant_path(self, params):
        """With a flat path eta == c the increment is c (1 - sin)/cos -> 0."""
        c = -0.8
        grid = build_mesh(0.04, 4, MeshKind.QUADRATIC, params)
        etas = path(grid, [c, c, c])
        theta = np.array([0.3, 1.0, 1.4])
        assert np.all(0.04 * np.sin(theta) ** 2 >= grid.taus[1])  # clear of the head formula
        want = c * (1 - np.sin(theta)) / np.cos(theta)
        assert increment(grid.taus, etas, 4, c, theta, params) == pytest.approx(want, rel=1e-12)
        edge = np.array([math.pi / 2 - 1e-6])
        assert abs(increment(grid.taus, etas, 4, c, edge, params)[0]) < 1e-5

    def test_g_against_precision_oracle(self, params):
        # grid [0, 0.005, 0.02]; node 1 holds the closed-form seed, the trial
        # value sits at tau = 0.02; frozen from a 50-digit evaluation at
        # theta = pi/4, the middle node of the theta rule
        grid = build_mesh(0.02, 2, MeshKind.QUADRATIC, params)
        eta1 = float(eta_lowest_order(0.005, params))
        trial = float(eta_lowest_order(0.02, params))
        assert eta1 == pytest.approx(-1.4612273122883756, abs=1e-13)
        st, ct = _theta_nodes()[:2]
        k = ssch._THETA_SUBINTERVALS // 2
        base, slope = _sample(grid.taus, path(grid, [eta1]), 2, 0.02 * st * st, params)
        got = (trial - (base[k] + slope[k] * trial) * st[k]) / ct[k]
        assert got == pytest.approx(-0.32314704296296677, abs=1e-12)

    def test_sample_matches_interpolation_with_trial(self, params):
        """base + slope * eta is the head formula below tau_1 and linear
        interpolation through the solved nodes and the trial node above."""
        grid = build_mesh(0.1, 6, MeshKind.QUADRATIC, params)
        etas = [float(eta_lowest_order(grid.taus[1], params)), -1.3, -1.25, -1.22]
        tau_i, trial = float(grid.taus[5]), -1.2
        s = np.linspace(0.0, tau_i, 101)[1:]
        base, slope = _sample(grid.taus, path(grid, etas), 5, s, params)
        head = s < grid.taus[1]
        want = np.interp(s, grid.taus[1:6], etas + [trial])
        want[head] = eta_lowest_order(s[head], params)
        assert base + slope * trial == pytest.approx(want, abs=1e-14)
        assert np.all(slope[s <= grid.taus[4]] == 0.0)

    def test_f_flat_zero_path_closed_form(self):
        """G == 0 collapses F to 2 int (sigma sqrt(tau)/sqrt(2)) sin = sigma sqrt(2 tau)."""
        p = MarketParams(r=1e-12, sigma=0.3, strike=100.0)
        got = _f_of_eta(0.04, 0.0, 0.0, p)(0.0)[0]
        assert got == pytest.approx(p.sigma * math.sqrt(2 * 0.04), abs=1e-10)

    def test_f_tau_dependence_collapses_like_sqrt_tau(self, params):
        # with a frozen path shape only the sigma sqrt(tau) sin-term and the
        # e^{-r tau cos^2} damping depend on tau, both O(sqrt(tau)) and O(tau)
        f_a = _f_of_eta(1e-6, -1.0, 0.0, params)(-1.0)[0]
        f_b = _f_of_eta(1e-10, -1.0, 0.0, params)(-1.0)[0]
        bound = params.sigma * math.sqrt(2.0) * (math.sqrt(1e-6) + math.sqrt(1e-10))
        assert abs(f_a - f_b) < bound

    def test_f_against_fine_grid_oracle(self, params):
        # grid [0, 0.0025, 0.01]; frozen from an adaptive mpmath quadrature
        grid = build_mesh(0.01, 2, MeshKind.QUADRATIC, params)
        eta1 = float(eta_lowest_order(0.0025, params))
        trial = float(eta_lowest_order(0.01, params))
        got = f_on_path(grid.taus, path(grid, [eta1]), 2, trial, params)
        assert got == pytest.approx(-0.7958124774202444, abs=1e-6)


class TestNodeSolve:
    def test_first_node_is_closed_form(self, params, monkeypatch):
        """Node 1 takes the closed small-tau value; root finding starts at
        node 2."""
        nodes = _spy_on_nodes(monkeypatch)
        curve = solve_boundary(params, 0.1, 10)
        i, etas = nodes[0]
        assert i == 2
        assert etas[1] == eta_lowest_order(float(curve.grid.taus[1]), params)

    def test_residual_contract(self, params):
        grid = build_mesh(0.1, 10, MeshKind.QUADRATIC, params)
        etas = path(grid, [eta_lowest_order(grid.taus[1], params)])
        eta2 = _solve_node(grid.taus, etas, 2, params)
        F = f_on_path(grid.taus, etas, 2, eta2, params)
        log_a = _log_a(F, _log_eta_argument(float(grid.taus[2]), params) - math.log(2.0))
        assert eta2 < 0.0  # the near-expiry branch eta = -sqrt(-ln A)
        assert abs(eta2 * eta2 + log_a) <= _ROOT_TOL

    def test_log_a_matches_linear_space_argument(self, params):
        """ln A in log space equals the log of
        A = (r sqrt(2 pi tau)/sigma) e^{r tau} (1 - F/sqrt(pi)) where that
        does not overflow, and is -inf where F >= sqrt(pi)."""
        for tau, F in ((0.004, -0.8), (1.0, 0.3), (50.0, 1.7)):
            A = (
                (params.r * math.sqrt(2.0 * math.pi * tau) / params.sigma)
                * math.exp(params.r * tau)
                * (1.0 - F / math.sqrt(math.pi))
            )
            log_c = _log_eta_argument(tau, params) - math.log(2.0)
            assert _log_a(F, log_c) == pytest.approx(math.log(A), rel=1e-14, abs=1e-14)
        assert _log_a(math.sqrt(math.pi), 0.0) == -math.inf
        assert _log_a(2.0, 0.0) == -math.inf

    @staticmethod
    def _flat_log_argument(monkeypatch, A):
        """H(eta) = eta^2 + ln A, whatever F is, with ln A = -inf for
        A <= 0, so Newton's first step meets ln A = -inf and the node
        fails."""
        log_a = math.log(A) if A > 0.0 else -math.inf
        monkeypatch.setattr(ssch, "_log_a", lambda F, log_c: log_a)

    def test_log_argument_never_positive_names_the_node(self, params, monkeypatch):
        self._flat_log_argument(monkeypatch, -1.0)
        grid = build_mesh(0.1, 10, MeshKind.QUADRATIC, params)
        with pytest.raises(LogDomainError, match=r"node 2 \(tau=0\.004\)"):
            _solve_node(grid.taus, path(grid, [-1.0]), 2, params)

    def test_overflowing_growth_factor_is_typed_and_names_the_node(self, params):
        """r tau_i = 720 > 709: e^{r tau_i} overflows a float, but ln A is
        summed in log space, so the node fails as a typed NumericalError
        that names it rather than an OverflowError."""
        taus = np.array([0.0, 1e-4, 7200.0])
        etas = np.array([math.nan, eta_lowest_order(1e-4, params), math.nan])
        with pytest.raises(NumericalError, match=r"node 2 \(tau=7200\)"):
            _solve_node(taus, etas, 2, params)

    def test_non_finite_integrand_is_a_numerical_error(self, params):
        base = np.full(ssch._THETA_SUBINTERVALS + 1, -1.0)
        base[17] = math.nan
        with pytest.raises(NumericalError, match=r"non-finite integrand .* tau=0\.5"):
            _f_of_eta(0.5, base, 0.0, params)(-0.5)

    def test_log_argument_never_positive_names_a_later_node(self, params, monkeypatch):
        """ln A = -inf at the extrapolated start 2 eta_3 - eta_2 = -0.9
        fails a later node too, naming it, its tau and the start."""
        self._flat_log_argument(monkeypatch, -1.0)
        grid = build_mesh(0.1, 10, MeshKind.QUADRATIC, params)
        etas = path(grid, [-1.2, -1.1, -1.0])
        with pytest.raises(LogDomainError, match=r"node 4 \(tau=0\.016\): .* from eta=-0\.9 "):
            _solve_node(grid.taus, etas, 4, params)


class TestBoundarySolve:
    def test_starts_at_strike(self, params):
        curve = solve_boundary(params, 0.1, 20)
        assert curve.rhos[0] == params.strike

    def test_near_expiry_reference_value(self, params):
        curve = solve_boundary(params, 0.1, 100)
        assert curve.value(0.1) == pytest.approx(86.762, abs=0.05)

    def test_sequential_locality(self, params, monkeypatch):
        """Re-solving node i with every later value NaN reproduces the full
        solve's eta_i bit for bit: values depend only on the earlier history."""
        nodes = _spy_on_nodes(monkeypatch)
        curve = solve_boundary(params, 0.04, 6)
        full = nodes[-1][1].copy()  # the solve's own array, complete once it returns
        assert np.all(np.isfinite(full[1:]))
        for i in (2, 4, 6):
            truncated = full.copy()
            truncated[i:] = math.nan
            assert _solve_node(curve.grid.taus, truncated, i, params) == full[i]

    def test_non_finite_integrand_names_the_node(self, params, monkeypatch):
        """A NaN in the sampled path (here from the small-tau formula on
        (0, tau_1)) stops the solve at the first node that integrates it."""
        monkeypatch.setattr(ssch, "_eta", lambda t, p, xp: np.full(np.shape(t), math.nan))
        with pytest.raises(NumericalError, match=r"failed at node 2: non-finite integrand"):
            solve_boundary(params, 0.1, 20)

    def test_monotone_and_in_range(self, params):
        curve = solve_boundary(params, 5.0, 60)
        assert np.all(np.diff(curve.rhos) < 0)
        lo = 0.9 * params.perpetual_boundary
        assert np.all(curve.rhos > lo)
        assert np.all(curve.rhos <= params.strike)

    def test_mesh_self_convergence(self, params):
        vals = {}
        for m in (25, 50, 100):
            vals[m] = float(solve_boundary(params, 1.0, m).value(1.0))
        d1 = abs(vals[50] - vals[25])
        d2 = abs(vals[100] - vals[50])
        assert d2 < d1  # converging
        assert math.log2(d1 / d2) >= 0.75  # at least first order, with slack

    def test_near_expiry_ratio_trend(self, params):
        curve = solve_boundary(params, 0.1, 50)
        t1 = float(curve.grid.taus[1])
        ratio = (params.strike - float(curve.rhos[1])) / (
            math.sqrt(t1) * math.sqrt(-math.log(t1))
        )
        target = params.strike * params.sigma
        assert abs(ratio - target) / target < 0.15

    def test_long_horizon_solves_across_eta_zero(self):
        """For gamma > 1 eta turns positive at long horizons.  Both markets
        solve to T = 5, stay above the perpetual boundary, and agree with
        the finite-difference benchmark within 5e-3 E at tau >= 0.4
        (measured: 3.2e-3 E and 2.8e-3 E)."""
        for gamma, sigma, eta_max in ((3.0, 0.25, 0.050), (6.0, 0.2, 0.548)):
            p = MarketParams(r=0.5 * gamma * sigma**2, sigma=sigma, strike=100.0)
            curve = solve_boundary(p, 5.0, 100)
            taus, rhos = curve.grid.taus[1:], curve.rhos[1:]
            etas = (np.log(rhos / p.strike) + (p.r - 0.5 * sigma**2) * taus) / (
                sigma * np.sqrt(2.0 * taus)
            )
            assert etas.max() == pytest.approx(eta_max, abs=1e-3)
            assert np.all(curve.rhos >= p.perpetual_boundary)
            fd = extract_boundary(psor_solve(p, PsorConfig(n=200, m=200, T=5.0, L=1.0)))
            for tau in curve.grid.taus[curve.grid.taus >= 0.4]:
                assert abs(float(curve.value(tau)) - float(fd.value(tau))) <= 5e-3 * p.strike


class TestNewtonSteps:
    """The node solve by Newton steps on H's analytic slope, against the
    bracketed root finder it replaced (tests/oracles.py)."""

    def test_newton_gives_up_where_it_should(self):
        assert _newton(lambda x: (x * x - 2.0, 2.0 * x), 1.5, 1e-12) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )
        # |h| grows: Newton on atan overshoots from 2
        assert _newton(lambda x: (math.atan(x), 1.0 / (1.0 + x * x)), 2.0, 1e-12) is None
        # |h| shrinks too slowly: a ninefold root loses 1/9 of the error a step
        assert _newton(lambda x: ((x - 1.0) ** 9, 9.0 * (x - 1.0) ** 8), 2.0, 1e-12) is None
        assert _newton(lambda x: (-math.inf, math.nan), 0.0, 1e-12) is None

    @staticmethod
    def _slopes(monkeypatch, p, T, m):
        """Solve the boundary and keep each node's H-and-slope function."""
        seen = []

        def spy(h_and_slope, eta, tol):
            seen.append(h_and_slope)
            return _newton(h_and_slope, eta, tol)

        monkeypatch.setattr(ssch, "_newton", spy)
        curve = solve_boundary(p, T, m)
        return curve, seen

    @pytest.mark.parametrize("p", NEWTON_MARKETS, ids=["standard", "gamma0.22", "gamma9.6"])
    def test_slope_matches_central_difference(self, p, monkeypatch):
        """H' = 2 eta - F'/(sqrt(pi) - F) against (H(eta + d) - H(eta - d))/(2d)
        at the solved eta and beside it (measured: <= 1.9e-8 relative)."""
        curve, seen = self._slopes(monkeypatch, p, 5.0, 60)
        taus = curve.grid.taus
        for i in (2, 5, 20, 40, 60):
            h_and_slope = seen[i - 2]  # node 1 is the closed form
            eta_i = (math.log(curve.rhos[i] / p.strike) + (p.r - 0.5 * p.sigma**2) * taus[i]) / (
                p.sigma * math.sqrt(2.0 * taus[i])
            )
            # beside the root, where H has moved by about 0.01
            off = 0.01 / max(1.0, abs(h_and_slope(eta_i)[1]))
            for eta in (eta_i, eta_i - off, eta_i + off):
                slope = h_and_slope(eta)[1]
                # ln A's derivatives grow like powers of |H'| as A nears 0
                d = 1e-5 / max(1.0, abs(slope))
                numeric = (h_and_slope(eta + d)[0] - h_and_slope(eta - d)[0]) / (2.0 * d)
                assert slope == pytest.approx(numeric, rel=1e-6), (i, eta)

    @pytest.mark.parametrize("p", NEWTON_MARKETS, ids=["standard", "gamma0.22", "gamma9.6"])
    def test_matches_bracket_solve(self, p):
        """rho at every node within 1e-11 E of the node solve by the
        bracketed root finder alone (measured: <= 9.6e-12 E, at gamma = 9.6)."""
        got = solve_boundary(p, 5.0, 200).rhos
        want = oracles.ssch_bracket_boundary(p, 5.0, 200)
        assert np.abs(got - want).max() <= 1e-11 * p.strike

    @pytest.mark.parametrize("p", NEWTON_MARKETS, ids=["standard", "gamma0.22", "gamma9.6"])
    def test_f_evaluation_budget(self, p, monkeypatch):
        """At most 3.6 evaluations of F per solved node on average at
        T = 5, m = 200 (measured: 3.06, 3.03 and 3.52; the bracketed root
        finder alone took 8.25, 7.35 and 10.5)."""
        calls = [0]

        def counted(*args):
            F = _f_of_eta(*args)

            def F_counted(eta_i):
                calls[0] += 1
                return F(eta_i)

            return F_counted

        monkeypatch.setattr(ssch, "_f_of_eta", counted)
        solve_boundary(p, 5.0, 200)
        assert calls[0] / 199 <= 3.6  # node 1 is the closed form

    @pytest.mark.parametrize("r", [0.05, 0.15])
    @pytest.mark.parametrize("sigma", [0.2, 0.4])
    def test_newton_solves_every_node_of_the_long_horizon_band(self, r, sigma, monkeypatch):
        """The corners of the benchmark's long-horizon band, r in
        [0.05, 0.15] and sigma in [0.2, 0.4], over T = 5 on 100 nodes:
        Newton's steps solve every node."""
        results = []

        def spy(h_and_slope, eta, tol):
            results.append(_newton(h_and_slope, eta, tol))
            return results[-1]

        monkeypatch.setattr(ssch, "_newton", spy)
        solve_boundary(MarketParams(r=r, sigma=sigma, strike=100.0), 5.0, 100)
        assert len(results) == 99 and None not in results

    def test_unsolved_node_is_an_error_not_a_boundary(self):
        """gamma = 0.024 on four quadratic steps to T = 5: Newton's steps do
        not solve node 2.  A bracketed search once rescued it and two later
        nodes and returned rho(5) = 4.24 E."""
        with pytest.raises(LogDomainError, match=r"failed at node 2: node 2 \(tau=1\.25\)"):
            solve_boundary(MarketParams(r=0.3, sigma=5.0, strike=37.5), 5.0, 4)

    def test_high_gamma_failure_is_typed_and_named(self):
        """gamma = 12 over five years still stops, with a typed error that
        names the node and tau."""
        p = MarketParams(r=0.54, sigma=0.3, strike=100.0)
        with pytest.raises(NumericalError, match=r"node \d+ \(tau=[0-9.]+\)"):
            solve_boundary(p, 5.0, 200)

    @pytest.mark.parametrize(
        "r, sigma, m", [(0.405, 0.258, 200), (0.349, 0.2, 100), (0.438, 0.272, 200)]
    )
    def test_high_gamma_stops_or_stays_above_perpetual(self, r, sigma, m):
        """gamma = 12-17 over five years: the path drops below the perpetual
        boundary gamma E/(1+gamma) before the last node, and only a later
        node that Newton's steps do not solve stops the solve.  A change of
        the node solve may make it accurate, or keep it stopping, but must
        not turn it into a boundary below the perpetual one with no error."""
        p = MarketParams(r=r, sigma=sigma, strike=100.0)
        try:
            curve = solve_boundary(p, 5.0, m)
        except NumericalError:
            return
        assert curve.rhos.min() >= p.perpetual_boundary
