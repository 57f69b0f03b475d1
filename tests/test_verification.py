"""Tests for the aggregated verification battery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lawson_bipolar import hill_spectrum as hs
from lawson_bipolar import verification as vf
from lawson_bipolar.phi_system import closed_form_theta
from lawson_bipolar.special_functions import EllipticModulus, complete_E
from lawson_bipolar.surface_model import (
    Topology,
    admissible_pairs,
    derive_params,
    params_from_nm,
    period_a,
)


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
    def test_klein_3_1(self):
        area, lam_value, rank_i = vf.area_and_lambda(derive_params(3, 1))
        expected = 12.0 * math.pi * complete_E(EllipticModulus.from_k(2 * math.sqrt(2) / 3))
        assert rank_i == 1
        assert lam_value == pytest.approx(expected, rel=1e-9)

    def test_torus_2_1(self):
        area, lam_value, rank_i = vf.area_and_lambda(derive_params(2, 1))
        expected = 16.0 * math.pi * 2.0 * complete_E(EllipticModulus.from_k(math.sqrt(3) / 2))
        assert rank_i == 6
        assert lam_value == pytest.approx(expected, rel=1e-9)

    def test_klein_5_3(self):
        area, lam_value, rank_i = vf.area_and_lambda(derive_params(5, 3))
        expected = 4.0 * math.pi * 5.0 * complete_E(EllipticModulus.from_k(4.0 / 5.0))
        assert rank_i == 3
        assert lam_value == pytest.approx(expected, rel=1e-9)

    def test_klein_area_is_half_of_double_cover(self):
        klein = derive_params(3, 1)
        torus_like = vf.area_quadrature(klein)
        # recompute the unhalved integrand path
        import lawson_bipolar.surface_model as sm
        a = sm.period_a(klein)
        ys = np.linspace(0.0, a, 8192, endpoint=False)
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

        def nan_at_one_point(y, state, params):
            out = np.array(rhs(y, state, params))
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
        # gamma_0(1) shifted by 1e-3 moves Psi off +2 by far more than 1e-6
        params = params_from_nm(3, 1)
        lines = list(hs.surface_lines(params))
        eigs = list(lines[1].eigenvalues)
        eigs[0] = dataclasses.replace(eigs[0], gamma=eigs[0].gamma + 1e-3)
        lines[1] = dataclasses.replace(lines[1], eigenvalues=tuple(eigs))
        assert self._simplicity(params).passed
        monkeypatch.setattr(hs, "surface_lines", lambda p: tuple(lines))
        check = self._simplicity(params)
        assert not check.passed
        assert f"gamma_0(1)={eigs[0].gamma:.12g}: Psi=" in check.context
        assert "not the block target +2" in check.context

    def test_block_coexistence_flag_fails_simplicity(self, monkeypatch):
        params = params_from_nm(3, 1)
        lines = list(hs.surface_lines(params))
        lines[2] = dataclasses.replace(lines[2], double_root_flags=("synthetic",))
        monkeypatch.setattr(hs, "surface_lines", lambda p: tuple(lines))
        check = self._simplicity(params)
        assert not check.passed
        assert check.context == "synthetic"

    def test_oracle_flags(self):
        eig = hs.Eigenvalue(gamma=1.5, index=1, parity=hs.Parity.ODD,
                            psi_target=-2.0)
        b = 0.5
        # odd: z2(b) vanishes, z1'(b) does not
        assert vf._oracle_flags(2, eig, -1.0, 0.3, 1e-9, -1.0, b) == []
        assert "parity mismatch: block Odd" in vf._oracle_flags(
            2, eig, -1.0, 1e-9, 0.3, -1.0, b)[0]
        assert "coexistence" in vf._oracle_flags(2, eig, -1.0, 1e-9, 1e-9, -1.0, b)[0]
        assert "unresolved parity" in vf._oracle_flags(
            2, eig, -1.0, 0.3, 0.3, -1.0, b)[0]
        assert vf._oracle_flags(2, eig, -1.0, 0.3, 1e-9, -0.99, b) == [
            "gamma_1(2)=1.5: Psi=-1.99, not the block target -2"]


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
        # the first pairs whose periodicity, E1 and E2 drift checks an
        # adaptive DOP853 integrator at rtol = atol = 1e-13 fails
        rep = vf.full_report(r, k)
        assert rep.passed, [str(c) for c in rep.checks if not c.passed]

    def test_double_cover_rank_relation(self):
        # double cover of a Klein bottle: 2r - 2 = 2 (r - 2) + 2
        for r, k in [(3, 1), (5, 3), (7, 5)]:
            params = derive_params(r, k)
            klein = hs.count_below_two(params).count + 1
            cover = hs.count_below_two(params, topology_override=Topology.TORUS).count + 1
            assert klein == r - 2
            assert cover == 2 * r - 2 == 2 * klein + 2

    def test_strict_mode_halves_thresholds(self):
        rep = vf.full_report(2, 1)
        strict = vf.full_report(2, 1, strict=True)
        for c, cs in zip(rep.checks, strict.checks):
            assert cs.threshold == c.threshold / 2.0

    def test_reports_are_deterministic(self):
        a = vf.full_report(2, 1).to_dict()
        b = vf.full_report(2, 1).to_dict()
        assert a == b

    def test_cold_report_builds_each_cache_entry_once(self, monkeypatch):
        # one Galerkin reduction per surface, cached on SurfaceParams; one
        # line scan, for the Floquet checks; one propagation to b (the R2
        # points and the located roots) and one to b/2
        calls = {"_scan_lines": 0, "_propagate": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(hs, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(hs, name, counted)
        hs._galerkin_blocks.cache_clear()
        vf.full_report(8, 1)
        assert hs._galerkin_blocks.cache_info().misses == 1
        assert calls == {"_scan_lines": 1, "_propagate": 2}
