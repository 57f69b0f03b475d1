"""Tests for the aggregated verification battery."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lawson_bipolar import hill_spectrum as hs
from lawson_bipolar import phi_system as ps
from lawson_bipolar import rk8
from lawson_bipolar import verification as vf
from lawson_bipolar.cli import main
from lawson_bipolar.phi_system import closed_form_theta
from lawson_bipolar.special_functions import EllipticModulus, complete_E
from lawson_bipolar.surface_model import (
    Topology,
    admissible_pairs,
    derive_params,
    period_a,
)

from pairs import params_from_nm


class TestCheckResult:
    def test_passed_follows_residual(self):
        assert vf.CheckResult("x", 1e-9, 1e-8).passed
        assert not vf.CheckResult("x", 1e-7, 1e-8).passed


class TestProfileBattery:
    def test_takahashi_check(self):
        checks = vf.profile_checks(derive_params(2, 1))
        res = next(c for c in checks if c.name == "takahashi_identity")
        assert res.passed
        assert res.residual < 1e-8

    def test_immersion_components_partition_unity(self):
        # the five eigenfunction components square-sum to one pointwise
        p = derive_params(2, 1)
        a = period_a(p)
        for y in np.linspace(0.0, a, 64):
            phi0, phi1, phi2, *_ = closed_form_theta(y, p)
            for x in (0.0, 0.43):
                comps = [phi0,
                         math.cos(p.m * x) * phi1, math.sin(p.m * x) * phi1,
                         math.cos(p.n * x) * phi2, math.sin(p.n * x) * phi2]
                assert len(comps) == 5
                assert abs(sum(c * c for c in comps) - 1.0) < 1e-13

    def test_profile_checks_pass_for_2_1(self):
        for res in vf.profile_checks(derive_params(2, 1)):
            assert res.passed, str(res)

    def test_unclosed_orbit_names_its_data(self, monkeypatch, tmp_path, capsys):
        # started 1e-8 off phi1'(0), the RK8 quarter of (n, m) = (767, 765)
        # misses the fixed set of the reversor about a/4 by 7.0e-8, above
        # its floor 10 tol c0 n = 7.7e-10: phi_reversal fails, and verify
        # reports the whole battery and exits 2.  The context names the
        # 280 steps of the profile's rule and their model error
        start = ps.initial_state
        monkeypatch.setattr(ps, "initial_state",
                            lambda p: start(p) + [0.0, 0.0, 0.0, 0.0, 1e-8, 0.0])
        params = params_from_nm(767, 765)
        c0n = math.sqrt((767 ** 2 + 765 ** 2) / 2)
        quarter = period_a(params) / 4.0
        assert ps.profile_steps(params, vf.PROFILE_TOL, quarter) == 280
        assert f"{ps.step_error(params, 280, quarter) * c0n:.1e}" == "7.6e-14"
        check = next(c for c in vf.profile_checks(params) if c.name == "phi_reversal")
        assert not check.passed
        assert check.threshold == 10.0 * vf.PROFILE_TOL * c0n
        assert check.context == (f"max |phi0, phi1', phi2'| at a/4 = {check.residual:.3e}, "
                                 "floor 10 tol c0 n = 7.7e-10 at tol 1.0e-13, "
                                 "280 RK8 steps, model error 7.6e-14")
        assert 7e-8 < check.residual < 7.1e-8
        out = tmp_path / "report.json"
        assert main(["verify", "--r", str(params.r), "--k", str(params.k),
                     "--out", str(out)]) == 2
        failed = capsys.readouterr().err.splitlines()
        assert any(line.startswith("FAILED: [FAIL] phi_reversal: ") for line in failed)

    def test_800_1_reports_its_profile_checks(self):
        # the quarter of (n, m) = (801, 799) misses the fixed set by
        # 1.0e-12, within its floor 10 tol c0 n = 8.0e-10; only the first
        # integrals' drifts fail, at their rounding floor
        checks = {c.name: c for c in vf.profile_checks(derive_params(800, 1))}
        assert 1e-12 < checks["phi_reversal"].residual < 1e-8
        assert {name for name, c in checks.items() if not c.passed} == {
            "first_integral_E1_drift", "first_integral_E2_drift"}

    def test_1601_1_closes_and_fails_on_its_drift(self):
        # the quarter of (n, m) = (1601, 1) closes (reversal residual
        # 2.7e-13 against its floor 1.1e-9), and the first integrals of
        # size n^4 drift far above 1e-8
        checks = {c.name: c for c in vf.profile_checks(params_from_nm(1601, 1))}
        assert checks["phi_reversal"].residual < 1e-12
        assert {name for name, c in checks.items() if not c.passed} == {
            "first_integral_E1_drift", "first_integral_E2_drift"}
        assert checks["first_integral_E1_drift"].residual > 1e-4


@settings(max_examples=15, derandomize=True, deadline=500, database=None)
@given(pair=st.sampled_from(admissible_pairs(200)))
@example(pair=(800, 1))
@example(pair=(801, 800))
def test_quarter_closes_within_its_floor_through_r200(pair):
    # the reversal residual at a/4 stays under 10 tol c0 n also where the
    # other profile checks meet their rounding floors, at the flat pairs
    # (n, m) = (801, 799) and (1601, 1)
    check = next(c for c in vf.profile_checks(derive_params(*pair))
                 if c.name == "phi_reversal")
    assert check.passed, (pair, str(check))


_R42_TO_60 = [(r, k) for r, k in admissible_pairs(60) if r >= 42]


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(pair=st.sampled_from(_R42_TO_60))
@example(pair=(3, 1))
@example(pair=(5, 1))
@example(pair=(8, 1))
@example(pair=(7, 6))
def test_only_the_drifts_fail_through_r60(pair):
    # for 42 <= r <= 60 the first integrals, of size n^4, drift past the
    # absolute 1e-8 at their rounding floor; no other check fails there,
    # and the battery passes every check
    failed = {c.name for c in vf.full_report(*pair).checks if not c.passed}
    assert failed <= {"first_integral_E1_drift", "first_integral_E2_drift"}, (pair, failed)
    if pair[0] < 42:
        assert not failed, pair


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(pair=st.sampled_from(admissible_pairs(41)))
def test_profile_checks_pass_through_r41(pair):
    # the first integrals grow like n^4, so the absolute drift thresholds
    # hold in binary64 up to r = 41; (42,41) sits at the rounding floor
    for res in vf.profile_checks(derive_params(*pair)):
        assert res.passed, (pair, str(res))


class TestIsometry:
    @pytest.mark.parametrize("r,k", [(3, 1), (2, 1), (5, 1)])
    def test_pullback(self, r, k):
        res, _ = vf.isometry_checks(derive_params(r, k))
        assert res.passed
        assert res.residual < 1e-8

    def test_bridging_identities(self):
        pull, bridge = vf.isometry_checks(derive_params(3, 1))
        assert bridge.residual < 1e-10


class TestAreaAndLambda:
    """Lambda and the rank from extremal_rank, and Lambda again as twice
    the quadrature area, against the paper's closed forms."""

    @staticmethod
    def _check(r, k, rank, expected):
        rep = hs.extremal_rank(r, k)
        assert rep.rank_i == rank
        assert rep.lambda_functional == pytest.approx(expected, rel=1e-9)
        assert 2.0 * vf.area_quadrature(rep.params) == pytest.approx(expected, rel=1e-9)

    def test_klein_3_1(self):
        expected = 12.0 * math.pi * complete_E(EllipticModulus.from_k(2 * math.sqrt(2) / 3))
        self._check(3, 1, 1, expected)

    def test_torus_2_1(self):
        expected = 16.0 * math.pi * 2.0 * complete_E(EllipticModulus.from_k(math.sqrt(3) / 2))
        self._check(2, 1, 6, expected)

    def test_klein_5_3(self):
        expected = 4.0 * math.pi * 5.0 * complete_E(EllipticModulus.from_k(4.0 / 5.0))
        self._check(5, 3, 3, expected)

    def test_klein_area_is_half_of_double_cover(self):
        klein = derive_params(3, 1)
        torus_like = vf.area_quadrature(klein)
        # recompute the unhalved integrand path
        import lawson_bipolar.surface_model as sm
        a = sm.period_a(klein)
        ys = np.linspace(0.0, a, vf.AREA_POINTS, endpoint=False)
        full = 2.0 * math.pi * a * float(np.mean(sm.metric_f_array(ys, klein)))
        assert torus_like == full / 2.0


class TestOrbitSpace:
    def test_identification_from_state(self):
        # (phi0, phi1, phi2) = (sin rho, cos rho cos a, cos rho sin a)
        ident, _, _ = vf.orbit_space_checks(params_from_nm(2, 1))
        assert ident.name == "orbit_identification"
        assert ident.residual < 1e-12

    def test_geodesic_residual_2_1(self):
        res = vf.orbit_space_checks(params_from_nm(2, 1))[-1]
        assert res.name == "orbit_geodesic"
        assert res.passed
        assert res.residual < 1e-6

    def test_ellipse_and_identification_residuals(self):
        ident, ellipse, _ = vf.orbit_space_checks(params_from_nm(2, 1))
        assert ident.residual < 1e-10
        assert ellipse.residual < 1e-12

    def test_non_finite_residual_fails(self, monkeypatch):
        rhs = vf.ps.odesystem_rhs

        def nan_at_one_point(state, params):
            out = np.array(rhs(state, params))
            out[3, 7] = np.nan
            return out

        monkeypatch.setattr(vf.ps, "odesystem_rhs", nan_at_one_point)
        geo = vf.orbit_space_checks(params_from_nm(2, 1))[-1]
        assert math.isnan(geo.residual)
        assert not geo.passed


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(pair=st.sampled_from(admissible_pairs(20)),
       ys=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40))
def test_theta_rows_and_exact_geodesic_beyond_table(pair, ys):
    # the array path is the scalar closed form row for row, bit for bit,
    # and the exact-derivative geodesic residual sits near rounding
    params = derive_params(*pair)
    rows = closed_form_theta(np.array(ys), params)
    scalar = np.array([closed_form_theta(y, params) for y in ys])
    assert np.array_equal(rows, scalar)
    geo = vf.orbit_space_checks(params)[-1]
    assert geo.residual < 1e-10, (pair, geo.residual)


class TestFloquetStructure:
    @staticmethod
    def _simplicity(params):
        checks = {c.name: c for c in vf.floquet_structure_checks(params)}
        return checks["simplicity_in_window"]

    def test_root_off_its_target_fails_simplicity(self, monkeypatch):
        # gamma_0(1) shifted by 1e-3 moves z1'(b/2) of the (EVEN, +2) block
        # far above the floor
        params = params_from_nm(3, 1)
        lines = list(hs.surface_lines(params))
        eigs = list(lines[1].eigenvalues)
        eigs[0] = dataclasses.replace(eigs[0], gamma=eigs[0].gamma + 1e-3)
        lines[1] = dataclasses.replace(lines[1], eigenvalues=tuple(eigs))
        assert self._simplicity(params).passed
        monkeypatch.setattr(hs, "surface_lines", lambda p: tuple(lines))
        check = self._simplicity(params)
        assert not check.passed
        assert check.context.startswith(
            f"gamma_0(1)={eigs[0].gamma:.12g}: Even, Psi=+2, own c z1' ")
        own = float(check.context.split("own c z1' ")[1].split(",")[0])
        assert own > 1e-6 and check.residual == pytest.approx(1.0 + own)

    def test_block_coexistence_flag_fails_simplicity(self, monkeypatch):
        # gamma_0(1), of block (EVEN, +2), with the entry of its partner
        # (ODD, +2), z2(b/2), forced to 0: an even and an odd eigenfunction
        # would share the root
        # (the R2 points go to both ends in a call of their own)
        params = params_from_nm(3, 1)
        lines = hs.surface_lines(params)
        col = len(lines[0].eigenvalues)
        floquet = hs.floquet

        def forced(p, lam, params, y_end=None):
            pair = floquet(p, lam, params, y_end)
            if isinstance(y_end, tuple):
                return pair
            pair = np.array(pair)
            pair[2, col] = 0.0
            return tuple(pair)

        monkeypatch.setattr(hs, "floquet", forced)
        check = self._simplicity(params)
        assert not check.passed
        assert check.context.startswith(f"gamma_0(1)={lines[1].eigenvalues[0].gamma:.12g}: Even, Psi=+2")
        assert check.context.endswith("partner z2/c 0.000e+00")
        assert ";" not in check.context

    @pytest.mark.parametrize("r,k", [(3, 1), (8, 1), (7, 6)])
    def test_every_block_judged_by_its_own_entry(self, r, k):
        # the lowest root of each block on lines 0 and 1, from its Galerkin
        # block: the (ODD, +2) ones lie above the scanned window, so no
        # located root reaches that block's entry.  Each root is simple
        # under its own label, and fails under each other block's.
        params = derive_params(r, k)
        blocks, c = hs._galerkin_blocks(params), period_a(params) / 4.0
        roots = [(p, hs.Eigenvalue(float(np.linalg.eigvalsh(A + (p * p) * G)[0]), 0,
                                   parity, target))
                 for p in (0, 1)
                 for (parity, target), A, G in zip(hs.BLOCKS, blocks.A, blocks.G)]
        pair = np.array(hs.floquet([p for p, _ in roots], [e.gamma for _, e in roots],
                                   params, y_end=c))
        check = vf._simplicity(roots, pair, c)
        assert check.passed and check.residual < 1e-13, check.context
        for i, (p, eig) in enumerate(roots):
            for parity, target in hs.BLOCKS:
                if (parity, target) != (eig.parity, eig.psi_target):
                    other = dataclasses.replace(eig, parity=parity, psi_target=target)
                    assert not vf._simplicity([(p, other)], pair[:, i:i + 1], c).passed

    def test_oracle_flags(self):
        # one root of block (ODD, -2), whose own entry is z2' at c = b/2 and
        # whose partner's, (EVEN, -2), is z1; the other two entries are O(1)
        def judge(parity, z1, dz2):
            eig = hs.Eigenvalue(gamma=1.5, index=1, parity=parity, psi_target=-2.0)
            pair = np.array([[z1], [0.6], [0.5], [dz2]])
            return vf._simplicity([(2, eig)], pair, 0.5)

        simple = judge(hs.Parity.ODD, -1.0, 1e-12)
        assert simple.passed and simple.residual == pytest.approx(1e-12)
        assert simple.context == ("1 roots at b/2: worst own 1.000e-12, "
                                  "smallest partner 1.000e+00, floor 1e-09")
        off = judge(hs.Parity.ODD, -1.0, 1e-6)
        assert not off.passed and off.residual == pytest.approx(1.0 + 1e-6)
        assert off.context == ("gamma_1(2)=1.5: Odd, Psi=-2, own z2' 1.000e-06, "
                               "partner z1 1.000e+00")
        both = judge(hs.Parity.ODD, 1e-12, 1e-12)
        assert not both.passed
        assert both.context.endswith("own z2' 1.000e-12, partner z1 1.000e-12")
        # the odd eigenfunction's root labelled with the even block
        label = judge(hs.Parity.EVEN, -1.0, 1e-12)
        assert not label.passed
        assert label.context == ("gamma_1(2)=1.5: Even, Psi=-2, own z1 1.000e+00, "
                                 "partner z2' 1.000e-12")


class TestFullReport:
    def test_2_1_all_pass(self):
        rep = vf.full_report(2, 1)
        assert rep.passed, [str(c) for c in rep.checks if not c.passed]
        assert rep.rank_i == 6
        assert rep.multiplicity == 5

    def test_3_1_klein(self):
        rep = vf.full_report(3, 1)
        assert rep.passed
        assert rep.rank_i == 1
        assert rep.params.topology is Topology.KLEIN_BOTTLE
        names = [c.name for c in rep.checks]
        assert "klein_invariance" in names

    def test_4_1_rank_14(self):
        rep = vf.full_report(4, 1)
        assert rep.passed
        assert rep.rank_i == 14

    @pytest.mark.parametrize("r,k", [(14, 13), (17, 2), (23, 6)])
    def test_passes_past_r13(self, r, k):
        # the first pairs whose closure, E1 and E2 drift checks an
        # adaptive DOP853 integrator over the full period at
        # rtol = atol = 1e-13 fails
        rep = vf.full_report(r, k)
        assert rep.passed, [str(c) for c in rep.checks if not c.passed]

    def test_double_cover_rank_relation(self):
        # double cover of a Klein bottle: 2r - 2 = 2 (r - 2) + 2
        for r, k in [(3, 1), (5, 3), (7, 5)]:
            params = derive_params(r, k)
            members = hs._cluster(params)[0]
            klein = hs._count_below(params, members)[0] + 1
            cover = hs._count_below(
                dataclasses.replace(params, topology=Topology.TORUS), members)[0] + 1
            assert klein == r - 2
            assert cover == 2 * r - 2 == 2 * klein + 2

    def test_strict_mode_halves_thresholds(self):
        rep = vf.full_report(2, 1)
        strict = vf.full_report(2, 1, strict=True)
        for c, cs in zip(rep.checks, strict.checks):
            assert cs.threshold == c.threshold / 2.0

    def test_strict_contexts_state_the_halved_floors(self, tmp_path):
        # --strict halves each floor where it is formed: the floor a
        # context states is the threshold the check is judged against
        out = tmp_path / "strict.json"
        assert main(["verify", "--r", "8", "--k", "1", "--strict", "--out", str(out)]) in (0, 2)
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        floors = {name: c for name, c in checks.items() if "floor" in c["context"]}
        assert set(floors) == {"phi_reversal", "simplicity_in_window"}
        reversal = re.search(r"floor 10 tol c0 n = (\S+) ", floors["phi_reversal"]["context"])
        assert reversal[1] == f"{floors['phi_reversal']['threshold']:.1e}" == "4.0e-12"
        simple = re.search(r"floor (\S+)$", floors["simplicity_in_window"]["context"])
        assert float(simple[1]) == floors["simplicity_in_window"]["threshold"] == 5e-10

    def test_reports_are_deterministic(self):
        a = vf.full_report(2, 1).to_dict()
        b = vf.full_report(2, 1).to_dict()
        assert a == b

    def test_cold_report_builds_each_cache_entry_once(self, monkeypatch):
        # one Galerkin reduction per surface, cached on SurfaceParams; one
        # line scan, for the Floquet checks
        calls = {"_scan_lines": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(hs, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(hs, name, counted)
        hs._galerkin_blocks.cache_clear()
        vf.full_report(8, 1)
        assert hs._galerkin_blocks.cache_info().misses == 1
        assert calls == {"_scan_lines": 1}

    @pytest.mark.parametrize("r,k,bound", [(3, 1, 5 * 2 ** 17), (5, 1, 5 * 2 ** 17),
                                           (8, 1, 5 * 2 ** 17), (7, 6, 5 * 2 ** 17),
                                           (400, 1, 2 ** 22)],
                             ids=["3-1", "5-1", "8-1", "7-6", "400-1"])
    def test_report_allocations_stay_bounded(self, r, k, bound):
        # the Floquet oracle's step matrices go a tile at a time, each stage
        # holding the two entries of its value of z, and the line scan's
        # eigvalsh stacks hold 2^17 entries: a cold report's peak is 0.50 to
        # 0.53 MiB on the battery and 2.4 MiB at (400, 1)
        hs._galerkin_blocks.cache_clear()
        tracemalloc.start()
        try:
            vf.full_report(r, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak

    @staticmethod
    def _floquet_work(monkeypatch, run):
        """[y_end, steps x columns passed to rk8.step_matrices] per hs.floquet
        call made by run()."""
        work = []
        floquet, step_matrices = hs.floquet, rk8.step_matrices

        def counted_floquet(p, lam, params, y_end=None):
            work.append([y_end, 0])
            return floquet(p, lam, params, y_end)

        def counted_steps(q, h):
            work[-1][1] += q.shape[1] * q.shape[2]
            return step_matrices(q, h)

        monkeypatch.setattr(hs, "floquet", counted_floquet)
        monkeypatch.setattr(rk8, "step_matrices", counted_steps)
        run()
        return work

    @pytest.mark.parametrize("r,k,total", [(8, 1, 8400), (3, 1, 8268)])
    def test_report_propagates_each_column_as_far_as_it_is_read(self, r, k, total,
                                                                monkeypatch):
        # b's N = 140 and 156 steps: the 50 R2 points over both halves of
        # N/2, the 20 and 6 located roots over the first half alone
        work = self._floquet_work(monkeypatch, lambda: vf.full_report(r, k))
        assert sum(steps for _, steps in work) == total

    def test_roots_take_half_of_b_steps_at_large_n(self, monkeypatch):
        # (400, 1) -> (401, 399): b needs N = 259 steps, rounded up to 260;
        # its 839 located roots go over N/2 of them, to b/2 only
        params = derive_params(400, 1)
        b = period_a(params) / 2.0
        half = (rk8.steps_for(params.n, params.m, hs.DEFAULT_SOLVER_TOL, b) + 1) // 2
        roots = sum(len(line.eigenvalues) for line in hs.surface_lines(params))
        assert (half, roots) == (130, 839)
        work = self._floquet_work(monkeypatch,
                                  lambda: vf.floquet_structure_checks(params))
        assert work == [[(b / 2.0, b), 2 * half * vf.FLOQUET_POINTS],
                        [b / 2.0, half * roots]]
