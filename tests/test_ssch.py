import math

import numpy as np
import pytest

from putboundary import (
    BracketError,
    DomainError,
    EtaPath,
    LogDomainError,
    MarketParams,
    MeshError,
    MeshKind,
    NumericalError,
    PsorConfig,
    QuadratureConfig,
    build_mesh,
    eta_lowest_order,
    extract_boundary,
    psor_solve,
    solve_boundary,
    solve_eta_at,
)
from putboundary import ssch
from putboundary.ssch import _f_of_eta, _log_argument, _theta_nodes

# long-horizon reference column for the iterative solver
SSCH_TABLE = {
    0.02: 92.3461,
    0.1: 86.7636,
    0.2: 83.7476,
    1.0: 76.1632,
    2.0: 73.2722,
    5.0: 70.5100,
}

SMOKE = QuadratureConfig(finite_subintervals=252)  # reduced-fidelity profile


def increment(path, eta_i, tau_i, theta):
    """G = [eta_i - eta(tau_i sin^2 th) sin(th)] / cos(th) on the path
    sampled with eta_i as the value at the next node tau_i."""
    st = np.sin(theta)
    base, slope = path.sample(tau_i * st * st)
    return (eta_i - (base + slope * eta_i) * st) / np.cos(theta)


def f_on_path(path, eta_i, tau_i, p, cfg=None):
    """F at the next node for the trial eta_i, with the path sampled on the
    nodes of the theta rule."""
    cfg = cfg or QuadratureConfig()
    st = _theta_nodes(cfg.finite_subintervals)[0]
    base, slope = path.sample(tau_i * st * st)
    return _f_of_eta(tau_i, base, slope, p, cfg)(eta_i)


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
        path = EtaPath(grid, params, [float(eta_lowest_order(grid.taus[1], params))])
        assert increment(path, -1.25, 0.02, np.array([0.0]))[0] == -1.25

    def test_g_constant_path(self, params):
        """With a flat path eta == c the increment is c (1 - sin)/cos -> 0."""
        c = -0.8
        grid = build_mesh(0.04, 4, MeshKind.QUADRATIC, params)
        path = EtaPath(grid, params, [c, c, c])
        theta = np.array([0.3, 1.0, 1.4])
        assert np.all(0.04 * np.sin(theta) ** 2 >= grid.taus[1])  # clear of the head formula
        want = c * (1 - np.sin(theta)) / np.cos(theta)
        assert increment(path, c, 0.04, theta) == pytest.approx(want, rel=1e-12)
        assert abs(increment(path, c, 0.04, np.array([math.pi / 2 - 1e-6]))[0]) < 1e-5

    def test_g_against_precision_oracle(self, params):
        # grid [0, 0.005, 0.02]; node 1 holds the closed-form seed, the trial
        # value sits at tau = 0.02; frozen from a 50-digit evaluation at
        # theta = pi/4, node 2 of the n = 4 rule
        grid = build_mesh(0.02, 2, MeshKind.QUADRATIC, params)
        eta1 = float(eta_lowest_order(0.005, params))
        trial = float(eta_lowest_order(0.02, params))
        assert eta1 == pytest.approx(-1.4612273122883756, abs=1e-13)
        st, ct = _theta_nodes(4)[:2]
        base, slope = EtaPath(grid, params, [eta1]).sample(0.02 * st * st)
        got = (trial - (base[2] + slope[2] * trial) * st[2]) / ct[2]
        assert got == pytest.approx(-0.32314704296296677, abs=1e-12)

    def test_sample_matches_interpolation_with_trial(self, params):
        """base + slope * eta is the head formula below tau_1 and linear
        interpolation through the solved nodes and the trial node above."""
        grid = build_mesh(0.1, 6, MeshKind.QUADRATIC, params)
        etas = [float(eta_lowest_order(grid.taus[1], params)), -1.3, -1.25, -1.22]
        path = EtaPath(grid, params, etas)
        tau_i, trial = float(grid.taus[5]), -1.2
        s = np.linspace(0.0, tau_i, 101)[1:]
        base, slope = path.sample(s)
        head = s < grid.taus[1]
        want = np.interp(s, grid.taus[1:6], etas + [trial])
        want[head] = eta_lowest_order(s[head], params)
        assert base + slope * trial == pytest.approx(want, abs=1e-14)
        assert np.all(slope[s <= grid.taus[4]] == 0.0)

    def test_f_flat_zero_path_closed_form(self):
        """G == 0 collapses F to 2 int (sigma sqrt(tau)/sqrt(2)) sin = sigma sqrt(2 tau)."""
        p = MarketParams(r=1e-12, sigma=0.3, strike=100.0)
        got = _f_of_eta(0.04, 0.0, 0.0, p, QuadratureConfig())(0.0)
        assert got == pytest.approx(p.sigma * math.sqrt(2 * 0.04), abs=1e-10)

    def test_f_tau_dependence_collapses_like_sqrt_tau(self, params):
        # with a frozen path shape only the sigma sqrt(tau) sin-term and the
        # e^{-r tau cos^2} damping depend on tau, both O(sqrt(tau)) and O(tau)
        f_a = _f_of_eta(1e-6, -1.0, 0.0, params, QuadratureConfig())(-1.0)
        f_b = _f_of_eta(1e-10, -1.0, 0.0, params, QuadratureConfig())(-1.0)
        bound = params.sigma * math.sqrt(2.0) * (math.sqrt(1e-6) + math.sqrt(1e-10))
        assert abs(f_a - f_b) < bound

    def test_f_against_fine_grid_oracle(self, params):
        # grid [0, 0.0025, 0.01]; frozen from an adaptive mpmath quadrature
        grid = build_mesh(0.01, 2, MeshKind.QUADRATIC, params)
        eta1 = float(eta_lowest_order(0.0025, params))
        trial = float(eta_lowest_order(0.01, params))
        got = f_on_path(EtaPath(grid, params, [eta1]), trial, 0.01, params)
        assert got == pytest.approx(-0.7958124774202444, abs=1e-6)

    def test_path_invariants(self, params):
        """eta may take either sign; it must be finite, and the path never
        holds more values than positive mesh nodes."""
        grid = build_mesh(0.02, 2, MeshKind.QUADRATIC, params)
        assert EtaPath(grid, params, [0.5]).etas == [0.5]
        with pytest.raises(DomainError):
            EtaPath(grid, params, [-1.0, -0.9, -0.8])
        with pytest.raises(DomainError):
            EtaPath(grid, params, [math.nan])
        path = EtaPath(grid, params, [])
        with pytest.raises(DomainError):
            path.append(math.inf)
        path.append(-0.5)
        path.append(0.0)
        with pytest.raises(DomainError):
            path.append(0.1)


class TestNodeSolve:
    def test_first_node_is_closed_form(self, params):
        grid = build_mesh(0.1, 10, MeshKind.QUADRATIC, params)
        path = EtaPath(grid, params)
        got = solve_eta_at(path, float(grid.taus[1]), params)
        assert got == float(eta_lowest_order(grid.taus[1], params))

    def test_residual_contract(self, params):
        cfg = QuadratureConfig()
        grid = build_mesh(0.1, 10, MeshKind.QUADRATIC, params)
        path = EtaPath(grid, params)
        path.append(solve_eta_at(path, float(grid.taus[1]), params, cfg))
        eta2 = solve_eta_at(path, float(grid.taus[2]), params, cfg)
        F = f_on_path(path, eta2, float(grid.taus[2]), params, cfg)
        A = _log_argument(F, float(grid.taus[2]), params)
        assert eta2 < 0.0  # the near-expiry branch eta = -sqrt(-ln A)
        assert abs(eta2 * eta2 + math.log(A)) <= cfg.root_tol

    @staticmethod
    def _flat_log_argument(monkeypatch, A):
        """H(eta) = eta^2 + ln A, whatever F is."""
        monkeypatch.setattr(ssch, "_log_argument", lambda F, tau_i, p: A)

    def test_root_in_last_widened_bracket(self, params, monkeypatch):
        """With H(eta) = eta^2 - 100 and the previous eta at -20, the first
        bracket to enclose the root -10 is the one after the eighth
        doubling, [-32.8, -7.2]; the one before it, [-26.4, -13.6], does not."""
        self._flat_log_argument(monkeypatch, math.exp(-100.0))
        assert ssch.BRACKET_DOUBLINGS == 8
        grid = build_mesh(0.1, 10, MeshKind.QUADRATIC, params)
        path = EtaPath(grid, params, [-20.0])
        eta = solve_eta_at(path, float(grid.taus[2]), params)
        assert eta == pytest.approx(-10.0, abs=1e-9)

    def test_root_beyond_last_bracket_names_the_node(self, params, monkeypatch):
        self._flat_log_argument(monkeypatch, math.exp(-100.0))
        grid = build_mesh(0.1, 10, MeshKind.QUADRATIC, params)
        path = EtaPath(grid, params, [-30.0])
        with pytest.raises(BracketError, match=r"node 2 \(tau=0\.004\)"):
            solve_eta_at(path, float(grid.taus[2]), params)

    def test_log_argument_never_positive_names_the_node(self, params, monkeypatch):
        self._flat_log_argument(monkeypatch, -1.0)
        grid = build_mesh(0.1, 10, MeshKind.QUADRATIC, params)
        path = EtaPath(grid, params, [-1.0])
        with pytest.raises(LogDomainError, match=r"node 2 \(tau=0\.004\)"):
            solve_eta_at(path, float(grid.taus[2]), params)

    def test_non_finite_integrand_is_a_numerical_error(self, params):
        path = np.full(QuadratureConfig().finite_subintervals + 1, -1.0)
        path[17] = math.nan
        with pytest.raises(NumericalError, match=r"non-finite integrand .* tau=0\.5"):
            _f_of_eta(0.5, path, 0.0, params, QuadratureConfig())(-0.5)

    def test_wrong_node_rejected(self, params):
        grid = build_mesh(0.1, 10, MeshKind.QUADRATIC, params)
        path = EtaPath(grid, params)
        with pytest.raises(DomainError):
            solve_eta_at(path, 0.05, params)


class TestBoundarySolve:
    def test_starts_at_strike(self, params):
        curve = solve_boundary(params, 0.1, 20, cfg=SMOKE)
        assert curve.rhos[0] == params.strike

    def test_near_expiry_reference_value(self, params):
        curve = solve_boundary(params, 0.1, 100)
        assert curve.value(0.1) == pytest.approx(86.762, abs=0.05)

    def test_sequential_locality(self, params):
        """Re-solving node i from the truncated path reproduces it bit for bit:
        values depend only on the earlier history."""
        cfg = SMOKE
        grid = build_mesh(0.04, 6, MeshKind.QUADRATIC, params)
        path = EtaPath(grid, params)
        for i in range(1, 7):
            path.append(solve_eta_at(path, float(grid.taus[i]), params, cfg))
        full = list(path.etas)
        for i in (2, 4):
            partial = EtaPath(grid, params, full[: i - 1])
            again = solve_eta_at(partial, float(grid.taus[i]), params, cfg)
            assert again == full[i - 1]

    def test_non_finite_integrand_names_the_node(self, params, monkeypatch):
        """A NaN in the sampled path (here from the small-tau formula on
        (0, tau_1)) stops the solve at the first node that integrates it."""
        closed = ssch.eta_lowest_order

        def nan_on_arrays(tau, p):
            return np.full(np.shape(tau), math.nan) if np.ndim(tau) else closed(tau, p)

        monkeypatch.setattr(ssch, "eta_lowest_order", nan_on_arrays)
        with pytest.raises(NumericalError, match=r"failed at node 2: non-finite integrand"):
            solve_boundary(params, 0.1, 20, cfg=SMOKE)

    def test_monotone_and_in_range(self, params):
        curve = solve_boundary(params, 5.0, 60, cfg=SMOKE)
        assert np.all(np.diff(curve.rhos) < 0)
        lo = 0.9 * params.perpetual_boundary
        assert np.all(curve.rhos > lo)
        assert np.all(curve.rhos <= params.strike)

    def test_mesh_self_convergence(self, params):
        vals = {}
        for m in (25, 50, 100):
            vals[m] = float(solve_boundary(params, 1.0, m, cfg=SMOKE).value(1.0))
        d1 = abs(vals[50] - vals[25])
        d2 = abs(vals[100] - vals[50])
        assert d2 < d1  # converging
        assert math.log2(d1 / d2) >= 0.75  # at least first order, with slack

    def test_near_expiry_ratio_trend(self, params):
        curve = solve_boundary(params, 0.1, 50, cfg=SMOKE)
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
