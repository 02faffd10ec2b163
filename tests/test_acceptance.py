"""Acceptance suite: one check per numbered criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py -v`).

Unless stated otherwise everything uses the benchmark parameter set
E = 100, sigma = 0.3, r = 0.1.  Expected values are reference numbers from
an external side-by-side comparison of these methods.  Three checks encode
reference numbers that converged solvers cannot reproduce:

* check 4 (finite-difference boundary column) and check 8 (relative-error
  columns derived from it): the mid-range rows are matched by a documented
  extraction recipe, but the tau = 0.02 row and the tau >= 3 tail deviate
  beyond the stated band.  At tau = 0.02 the reference reads 92.8672; the
  integral equation solver gives 92.3421 (m = 200) and 92.3418 (m = 800),
  and the exact finite-difference step on a grid fitted to that horizon
  (`putboundary boundary --method psor --T 0.02 --L 0.3 --n 1000
  --m 1000`) gives 92.3571, while check 4's five-year grid reads 93.1811.
  At tau = 3, 4 and 5 both solvers read below the reference 72.5786 /
  72.0121 / 71.7966: psor 72.3311 / 71.5003 / 70.9677 (check 4's grid) and
  ssch 71.8588 / 71.0311 / 70.4929 (`putboundary boundary --method ssch
  --T 5 --m 200`).  The checks assert the stated band and fail honestly
  rather than loosening it.
* check 9: the boundary-error sweep peak is reproduced, but the two
  mispricing-ratio targets (0.15 at tau = 4e-3, >0.70 below 5e-4) are not
  reachable from the exact gap/premium formulas these modules implement;
  computed values are printed alongside the FAIL line.
"""

import math

import numpy as np
import pytest

from putboundary import (
    MarketParams,
    MeshKind,
    PsorConfig,
    boundary_rel_err,
    european_put,
    extract_boundary,
    f2_max,
    gamma_critical,
    mispricing_err,
    norm_cdf,
    price_gap_at_boundary,
    psor_solve,
    rho_ekk,
    rho_kk,
    rho_ssc_analytic,
    rho_zhu,
    rho_zhu_asymptote,
    solve_boundary,
)

import oracles

# ---------------------------------------------------------------------------
# reference tables (near-expiry and long-horizon comparisons)

TABLE1_TAUS = (1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 0.04, 0.1)
TABLE1_EKK = (99.69, 99.37, 99.14, 98.28, 97.70, 91.12, 89.29)
TABLE1_SSC_A = (99.69, 99.37, 99.15, 98.29, 97.72, 91.31, 89.42)

TABLE2 = {
    0.0: dict(psor=100.0, zhu=100.0, ssch=100.0),
    0.02: dict(psor=92.8672, zhu=90.8575, ssch=92.3461),
    0.04: dict(psor=90.7707, zhu=88.6563, ssch=90.2088),
    0.06: dict(psor=89.3300, zhu=87.2160, ssch=88.7771),
    0.08: dict(psor=88.2350, zhu=86.1300, ssch=87.6695),
    0.1: dict(psor=87.3279, zhu=85.2538, ssch=86.7636),
    0.2: dict(psor=84.2962, zhu=82.3766, ssch=83.7476),
    0.4: dict(psor=81.0179, zhu=79.3593, ssch=80.4793),
    0.6: dict(psor=79.0571, zhu=77.5961, ssch=78.5391),
    0.8: dict(psor=77.6986, zhu=76.3752, ssch=77.1895),
    1.0: dict(psor=76.6695, zhu=75.4580, ssch=76.1632),
    1.5: dict(psor=74.9137, zhu=73.8879, ssch=74.4094),
    2.0: dict(psor=73.8107, zhu=72.8731, ssch=73.2722),
    3.0: dict(psor=72.5786, zhu=71.6205, ssch=71.8735),
    4.0: dict(psor=72.0121, zhu=70.8778, ssch=71.0464),
    5.0: dict(psor=71.7966, zhu=70.3925, ssch=70.5100),
}

TABLE2_RELERR = {  # percent columns of the long-horizon comparison
    0.02: (2.16, 0.56),
    0.04: (2.33, 0.62),
    0.06: (2.37, 0.62),
    0.08: (2.39, 0.64),
    0.1: (2.38, 0.65),
    0.2: (2.28, 0.65),
    0.4: (2.05, 0.66),
    0.6: (1.85, 0.66),
    0.8: (1.70, 0.66),
    1.0: (1.58, 0.66),
    1.5: (1.37, 0.67),
    2.0: (1.27, 0.73),
    3.0: (1.32, 0.97),
    4.0: (1.58, 1.34),
    5.0: (1.96, 1.79),
}

# documented reproduction recipe for the reference finite-difference column:
# converged solve on the published grid, boundary read where the gap between
# price and payoff crosses 4.5e-5 of the strike
RECIPE_CONTACT_TOL = 4.5e-5


def report(num: int, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))


def test_criterion_01_near_expiry_formulas(params):
    """EKK and lowest-order analytic values match the near-expiry table +-0.01."""
    bad = []
    for tau, want_e, want_s in zip(TABLE1_TAUS, TABLE1_EKK, TABLE1_SSC_A):
        got_e = rho_ekk(tau, params)
        got_s = rho_ssc_analytic(tau, params)
        if abs(got_e - want_e) > 0.01:
            bad.append(f"ekk({tau:g})={got_e:.4f}!={want_e}")
        if abs(got_s - want_s) > 0.01:
            bad.append(f"ssc-a({tau:g})={got_s:.4f}!={want_s}")
    report(1, not bad, f"{len(TABLE1_TAUS)} taus, tol 0.01")
    assert not bad, bad


def test_criterion_02_integral_formula_column(params):
    """All 16 long-horizon reference values of the integral formula +-2e-3."""
    bad = []
    for tau, row in TABLE2.items():
        got = params.strike if tau == 0.0 else rho_zhu(tau, params)
        if abs(got - row["zhu"]) > 2e-3:
            bad.append(f"zhu({tau:g})={got:.5f}!={row['zhu']}")
    report(2, not bad, "16 rows, tol 2e-3")
    assert not bad, bad


def test_criterion_03_iterative_solver_column(params, ssch_table2_curve):
    """Iterative solve (T=5, quadratic mesh, m=200) +-0.05 up to tau=2 and
    +-0.1 beyond; the coarse smoke mesh (m=60) stays within +-0.3."""
    bad = []
    for tau, row in TABLE2.items():
        got = float(ssch_table2_curve.value(tau))
        tol = 0.05 if tau <= 2.0 else 0.1
        if abs(got - row["ssch"]) > tol:
            bad.append(f"full({tau:g})={got:.4f}!={row['ssch']}+-{tol}")
    smoke = solve_boundary(params, 5.0, 60, MeshKind.QUADRATIC)
    for tau, row in TABLE2.items():
        got = float(smoke.value(tau))
        if abs(got - row["ssch"]) > 0.3:
            bad.append(f"smoke({tau:g})={got:.4f}!={row['ssch']}+-0.3")
    report(3, not bad, "full m=200 and smoke m=60 profiles")
    assert not bad, bad


def test_criterion_04_benchmark_column(params, psor_table2_solution):
    """Finite-difference column at n=m=1000, T=5 against the reference +-0.1.

    Known FAIL: rows 0.02 and 3..5 sit outside the band (see module
    docstring for what the solvers read there).
    """
    curve = extract_boundary(psor_table2_solution, contact_tol=RECIPE_CONTACT_TOL)
    bad = []
    for tau, row in TABLE2.items():
        got = float(curve.value(tau))
        if abs(got - row["psor"]) > 0.1:
            bad.append(f"psor({tau:g})={got:.4f} vs {row['psor']} (d={got - row['psor']:+.3f})")
    report(4, not bad, f"{16 - len(bad)}/16 rows within 0.1; deviating: {bad}")
    assert not bad, (
        "reference rows outside +-0.1 despite converged solve and documented "
        f"extraction recipe: {bad}"
    )


def test_criterion_05_critical_parameter():
    """Convexity threshold: gamma0 to 1e-5 and its defining peak condition."""
    g0 = gamma_critical()
    peak = f2_max(g0)
    ok = abs(g0 - 0.0167821) <= 1e-5 and abs(peak - math.pi) <= 1e-5
    report(5, ok, f"gamma0={g0:.7g}, peak={peak:.7f}")
    assert abs(g0 - 0.0167821) <= 1e-5
    assert abs(peak - math.pi) <= 1e-5


def test_criterion_06_convexity():
    """Second derivative positive and the curve's second differences positive
    across the rate/volatility sweep."""
    from putboundary import zhu_second_derivative

    bad = []
    taus = [0.05 * k for k in range(1, 101)]
    for gamma in (0.0167821, 0.1, 1.0, 2.222):
        p = MarketParams(r=gamma * 0.09 / 2.0, sigma=0.3, strike=100.0)
        d2 = [zhu_second_derivative(t, p) for t in taus]
        if min(d2) <= 0:
            bad.append(f"gamma={gamma}: min d2 {min(d2):.3e}")
        rho_vals = [rho_zhu(t, p) for t in taus]
        second = np.diff(rho_vals, 2)
        if second.min() <= 0:
            bad.append(f"gamma={gamma}: min second difference {second.min():.3e}")
    report(6, not bad, "gamma in {gamma0, 0.1, 1, 2.222} on tau = 0.05..5")
    assert not bad, bad


def test_criterion_07_asymptotic_limits(params, ssch_table2_curve):
    """Near-expiry scaling: closed forms within 5% of E sigma at tau=1e-12,
    the integral-formula asymptote ratio exact, and the solver's smallest
    nodes trending the same way within 15%."""
    target = params.strike * params.sigma
    bad = []
    for name, fn in (("kk", rho_kk), ("ekk", rho_ekk), ("ssc-a", rho_ssc_analytic)):
        tau = 1e-12
        ratio = (params.strike - fn(tau, params)) / (
            math.sqrt(tau) * math.sqrt(-math.log(tau))
        )
        if abs(ratio - target) / target > 0.05:
            bad.append(f"{name} ratio {ratio:.3f} vs {target}")
    for tau in (1e-10, 1e-6, 1e-3, 0.5):
        ratio = (params.strike - rho_zhu_asymptote(tau, params)) / (
            math.sqrt(tau) * (-math.log(tau))
        )
        want = target / math.sqrt(2.0 * math.pi)
        if abs(ratio - want) > 1e-9 * want:
            bad.append(f"asymptote ratio at {tau:g}: {ratio!r}")
    taus = ssch_table2_curve.grid.taus
    rhos = ssch_table2_curve.rhos
    ratios = [
        (params.strike - rhos[i]) / (math.sqrt(taus[i]) * math.sqrt(-math.log(taus[i])))
        for i in range(1, 7)
    ]
    if abs(ratios[0] - target) / target > 0.15:
        bad.append(f"solver smallest-node ratio {ratios[0]:.3f}")
    solved = ratios[1:6]  # node 1 is the closed-form seed, not a solver output
    if not all(a > b for a, b in zip(solved, solved[1:])):
        bad.append(f"solver ratios not monotone toward expiry: {solved}")
    report(7, not bad, "closed forms, asymptote identity, solver trend")
    assert not bad, bad


def test_criterion_08_relative_error_columns(params, psor_table2_solution, ssch_table2_curve):
    """Relative-error columns against the benchmark +-0.3 percentage points.

    Known FAIL at the rows inherited from check 4 (the benchmark column
    itself deviates there); mid-range rows reproduce.
    """
    curve = extract_boundary(psor_table2_solution, contact_tol=RECIPE_CONTACT_TOL)
    bad = []
    for tau, (want_zhu, want_ssch) in TABLE2_RELERR.items():
        bench = float(curve.value(tau))
        d_zhu = abs(rho_zhu(tau, params) - bench) / bench * 100.0
        d_ssch = abs(float(ssch_table2_curve.value(tau)) - bench) / bench * 100.0
        if abs(d_zhu - want_zhu) > 0.3:
            bad.append(f"zhu({tau:g})={d_zhu:.2f}% vs {want_zhu}%")
        if abs(d_ssch - want_ssch) > 0.3:
            bad.append(f"ssch({tau:g})={d_ssch:.2f}% vs {want_ssch}%")
    report(8, not bad, f"{2 * len(TABLE2_RELERR) - len(bad)}/30 cells within 0.3pp; deviating: {bad}")
    assert not bad, bad


def test_criterion_09_mispricing_sweep(mispricing_benchmark):
    """Near-expiry error sweep at unit strike against the benchmark solve.

    The boundary-gap part must peak at 0.0032 +- 0.001 inside
    tau in [3e-4, 1.5e-3].  The two mispricing-ratio targets are known
    FAILs (see module docstring); computed values are printed.
    """
    p1, bench = mispricing_benchmark
    app = lambda t: p1.strike if t == 0.0 else rho_zhu_asymptote(t, p1)
    k = bench.grid.taus[1]
    taus = np.geomspace(2.0 * float(k), 0.006, 60)
    eps = np.array([boundary_rel_err(bench, app, float(t)) for t in taus])
    i_peak = int(np.argmax(eps))
    peak, argmax = float(eps[i_peak]), float(taus[i_peak])

    bad = []
    if abs(peak - 0.0032) > 0.001:
        bad.append(f"eps peak {peak:.5f} outside 0.0032+-0.001")
    if not 3e-4 <= argmax <= 1.5e-3:
        bad.append(f"eps argmax {argmax:.2e} outside [3e-4, 1.5e-3]")
    err4 = mispricing_err(bench, app, 4e-3, p1)
    if abs(err4 - 0.15) > 0.05:
        bad.append(f"err(4e-3)={err4:.4f} outside 0.15+-0.05")
    small = [mispricing_err(bench, app, float(t), p1) for t in taus if t < 5e-4]
    if not any(e > 0.70 for e in small):
        bad.append(f"max err below tau=5e-4 is {max(small):.4f}, never exceeds 0.70")
    report(
        9,
        not bad,
        f"eps peak {peak:.5f}@{argmax:.2e}; err(4e-3)={err4:.4f}; "
        f"max err(<5e-4)={max(small):.4f}; deviating: {bad}",
    )
    assert not bad, bad


def test_criterion_10_oracle_equivalence(params):
    """The closed-form price gap against the double heat-kernel integral of
    the test oracles, the mass of that oracle's kernel, and the CDF oracle."""
    bad = []
    curve = solve_boundary(params, 0.12, 60)
    app = lambda t: params.strike if t == 0.0 else rho_zhu_asymptote(t, params)
    for tau in (0.001, 0.01, 0.1):
        S = float(curve.value(tau))
        full = oracles.price_gap_full_rows(curve, app, S, tau, params)
        direct = price_gap_at_boundary(curve, app, tau, params)
        if abs(full - direct) > 1e-6 * params.strike:
            bad.append(f"gap routes differ by {abs(full - direct):.2e} at tau={tau}")
    for tau in (0.01, 0.1, 1.0):
        width = 10.0 * params.sigma * math.sqrt(tau)
        total = oracles.integrate_newton_cotes(
            lambda x: oracles.heat_kernel(x, tau, params.sigma), -width, width, 4000
        )
        if abs(total - 1.0) > 1e-10:
            bad.append(f"kernel mass {total!r} at tau={tau}")
    xs = np.linspace(-8.0, 8.0, 1000)
    worst = max(abs(norm_cdf(float(x)) - oracles.norm_cdf_series(float(x))) for x in xs)
    if worst > 1e-12:
        bad.append(f"norm_cdf deviates from series oracle by {worst:.2e}")
    report(10, not bad, f"max cdf deviation {worst:.2e}")
    assert not bad, bad


def test_criterion_11_self_convergence(params, ssch_table2_curve, psor_table2_solution):
    """Mesh and grid doubling move the one-year boundary less than the
    tolerances claimed by checks 3 and 4."""
    fine = solve_boundary(params, 5.0, 400, MeshKind.QUADRATIC)
    d_ssch = abs(float(fine.value(1.0)) - float(ssch_table2_curve.value(1.0)))

    base_cfg = PsorConfig(n=500, m=500, T=5.0, L=1.0, omega=1.6, tol=1e-9)
    base = extract_boundary(psor_solve(params, base_cfg), contact_tol=1e-8)
    doubled = extract_boundary(psor_table2_solution, contact_tol=1e-8)
    d_psor = abs(float(doubled.value(1.0)) - float(base.value(1.0)))

    ok = d_ssch < 0.05 and d_psor < 0.1
    report(11, ok, f"ssch doubling moves rho(1) by {d_ssch:.4f}, psor by {d_psor:.4f}")
    assert d_ssch < 0.05
    assert d_psor < 0.1


def test_criterion_02_runtime_budget(params):
    """The 16-value integral-formula column evaluates in under a second."""
    import time

    t0 = time.perf_counter()
    for tau in TABLE2:
        if tau > 0:
            rho_zhu(tau, params)
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 1.0, f"runtime addendum: 15 evaluations in {elapsed:.3f}s")
    assert elapsed < 1.0
