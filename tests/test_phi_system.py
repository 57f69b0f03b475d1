"""Tests for the profile system: initial data, integration, closed forms,
and first integrals.  The theta closed form and the fixed-step RK8
integration serve as each other's oracles; conserved quantities are
checked for drift along the trajectory.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lawson_bipolar.phi_system import (
    closed_form_theta,
    closed_form_weierstrass,
    first_integrals,
    initial_state,
    integrate_states,
    integrate_system,
    odesystem_rhs,
    weierstrass_tables,
    weierstrass_tables_exact,
)
from lawson_bipolar.surface_model import derive_params, metric_f_array, params_from_nm, period_a

P21 = params_from_nm(2, 1)
P31 = params_from_nm(3, 1)


class TestInitialState:
    def test_values_for_2_1(self):
        phi0, phi1, phi2, dphi0, dphi1, dphi2 = initial_state(P21)
        assert phi0 == pytest.approx(math.sqrt(5 / 8), abs=1e-15)
        assert phi2 == pytest.approx(math.sqrt(3 / 8), abs=1e-15)
        assert dphi1 == pytest.approx(math.sqrt(3 / 2), abs=1e-15)
        assert phi1 == dphi0 == dphi2 == 0.0

    def test_on_sphere(self):
        for nm in [(2, 1), (5, 2), (15, 1)]:
            phi0, phi1, phi2, *_ = initial_state(params_from_nm(*nm))
            assert abs(phi0 ** 2 + phi1 ** 2 + phi2 ** 2 - 1.0) < 1e-15

    def test_conformal_at_origin(self):
        # phi1'(0)^2 = n^2 phi2(0)^2 = (n^2 - m^2)/2
        for nm in [(2, 1), (4, 3)]:
            p = params_from_nm(*nm)
            phi0, phi1, phi2, dphi0, dphi1, dphi2 = initial_state(p)
            assert dphi1 ** 2 == pytest.approx(p.n ** 2 * phi2 ** 2, rel=1e-14)
            lhs = dphi0 ** 2 + dphi1 ** 2 + dphi2 ** 2
            rhs = p.m ** 2 * phi1 ** 2 + p.n ** 2 * phi2 ** 2
            assert abs(lhs - rhs) < 1e-14


class TestIntegration:
    def test_periodicity(self):
        profile = integrate_system(P21, tol=1e-10)
        assert profile.periodicity_residual() < 1e-8

    def test_sphere_drift(self):
        profile = integrate_system(P21, tol=1e-10)
        drift = np.max(np.abs(np.sum(profile.states[:, :3] ** 2, axis=1) - 1.0))
        assert drift < 1e-9

    def test_matches_theta_closed_form(self):
        profile = integrate_system(P21, tol=1e-10, n_points=512)
        for y, row in zip(profile.grid, profile.states):
            ref = closed_form_theta(y, P21)
            np.testing.assert_allclose(row, ref, atol=1e-8)

    def test_coarse_grid_points_are_step_ends(self):
        # 16 grid points at tol 1e-13 take 51 RK8 steps each; one state
        # is kept per grid point
        profile = integrate_system(P31, tol=1e-13, n_points=16)
        assert profile.states.shape == (16, 6)
        ref = closed_form_theta(profile.grid, P31)
        np.testing.assert_allclose(profile.states, ref, rtol=0.0, atol=1e-12)

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            integrate_system(P21, tol=1e-5)
        with pytest.raises(ValueError):
            integrate_system(P21, tol=1e-14)

    def test_parity_through_the_period(self):
        # phi(-y) = phi(a - y): phi1 odd, phi0 and phi2 even
        profile = integrate_system(P31, tol=1e-10, n_points=512)
        st = profile.states
        rev = st[::-1]          # index j -> y = a - y_j (up to the offset row)
        for j in range(1, 256):
            assert abs(st[j, 0] - rev[j - 1, 0]) < 1e-9
            assert abs(st[j, 1] + rev[j - 1, 1]) < 1e-9
            assert abs(st[j, 2] - rev[j - 1, 2]) < 1e-9

    def test_takahashi_pointwise(self):
        # -phi_j'' + p_j^2 phi_j = 2 f phi_j with (p_0, p_1, p_2) = (0, m, n)
        profile = integrate_system(P21, tol=1e-10, n_points=512)
        n2, m2 = 4.0, 1.0
        for y, row in zip(profile.grid, profile.states):
            rhs = odesystem_rhs(y, row, P21)
            f = float(metric_f_array(y, P21))
            assert abs(-rhs[3] - 2 * f * row[0]) < 1e-8
            assert abs(-rhs[4] + m2 * row[1] - 2 * f * row[1]) < 1e-8
            assert abs(-rhs[5] + n2 * row[2] - 2 * f * row[2]) < 1e-8

    def test_periodic_orbit_selection(self):
        # perturbing phi2(0)^2 by +-1e-2 destroys closure of the orbit
        p = P21
        s = (p.n ** 2 - p.m ** 2) / (2.0 * p.n ** 2)
        for eps in (1e-2, -1e-2):
            phi2 = math.sqrt(s + eps)
            perturbed = [math.sqrt(1.0 - s - eps), 0.0, phi2, 0.0, p.n * phi2, 0.0]
            _, states, end = integrate_states(p, perturbed, tol=1e-10)
            assert np.max(np.abs(end - states[0])) > 1e-6
        _, states, end = integrate_states(p, initial_state(p), tol=1e-10)
        assert np.max(np.abs(end - states[0])) < 1e-6


class TestThetaClosedForm:
    def test_matches_initial_state_at_origin(self):
        st = closed_form_theta(0.0, P21)
        assert st.shape == (6,)
        np.testing.assert_allclose(st, initial_state(P21), atol=1e-13)

    def test_ellipse_constraint(self):
        rng = np.random.default_rng(59)
        a = period_a(P21)
        n2, m2 = 4.0, 1.0
        for y in rng.uniform(-a, 2 * a, 100):
            phi0, phi1, *_ = closed_form_theta(y, P21)
            assert abs(2 * phi1 ** 2 + (2 * n2 / (n2 + m2)) * phi0 ** 2 - 1) < 1e-12

    def test_phi2_never_vanishes(self):
        a = period_a(P21)
        states = closed_form_theta(np.linspace(0.0, a, 512, endpoint=False), P21)
        assert np.min(states[:, 2]) > 0.0

    def test_first_order_quartic_for_phi2(self):
        # (phi2')^2 = -2 n^2 phi2^4 + (2n^2 - m^2) phi2^2 + (m^2 - n^2)/2
        rng = np.random.default_rng(61)
        a = period_a(P21)
        n2, m2 = 4.0, 1.0
        for y in rng.uniform(0, a, 100):
            _, _, phi2, _, _, dphi2 = closed_form_theta(y, P21)
            q = -2 * n2 * phi2 ** 4 + (2 * n2 - m2) * phi2 ** 2 + (m2 - n2) / 2
            assert abs(dphi2 ** 2 - q) < 1e-9

    def test_derivatives_against_finite_differences(self):
        a = period_a(P31)
        h = 1e-6
        for y in np.linspace(0.1 * a, 0.9 * a, 19):
            st = closed_form_theta(y, P31)
            up = closed_form_theta(y + h, P31)
            dn = closed_form_theta(y - h, P31)
            for i in range(3):
                assert abs((up[i] - dn[i]) / (2 * h) - st[3 + i]) < 1e-8


class TestWeierstrassClosedForm:
    def test_exact_tables_for_2_1(self):
        a, b = weierstrass_tables_exact(2, 1)
        assert a[0][0] == Fraction(73, 12)
        assert b[0] == Fraction(-1, 6)
        assert b[1] == Fraction(8, 6)
        assert b[2] == Fraction(11, 6)

    def test_table_floats_match_exact(self):
        for nm in [(2, 1), (5, 2)]:
            a_float, b_float = weierstrass_tables(*nm)
            a, b = weierstrass_tables_exact(*nm)
            for i in range(3):
                assert a_float[i][0] == float(a[i][0])
                assert a_float[i][1] == float(a[i][1])
                assert b_float[i] == float(b[i])

    def test_magnitudes_match_theta_form(self):
        a = period_a(P21)
        ys = (np.arange(100) + 0.37) / 100.0 * a
        for y in ys:
            mags = closed_form_weierstrass(y, P21)
            ref = closed_form_theta(y, P21)
            assert abs(mags[0] - abs(ref[0])) < 1e-6
            assert abs(mags[1] - abs(ref[1])) < 1e-6
            assert abs(mags[2] - abs(ref[2])) < 1e-6

    @pytest.mark.parametrize("r,k", [(33, 32), (44, 43)])
    def test_magnitudes_where_float_discriminant_cancels(self, r, k):
        # the phi2 row's g2^3 - 27 g3^2 is 0.0 in floats at (n, m) = (65, 1)
        # and (87, 1); the exact discriminant of the invariants is not
        p = derive_params(r, k)
        ys = np.linspace(0.037, 0.963, 100) * period_a(p)
        mags = np.column_stack(closed_form_weierstrass(ys, p))
        ref = np.abs(closed_form_theta(ys, p)[:, :3])
        assert np.max(np.abs(mags - ref)) < 1e-12

    def test_initial_value_recovered_near_origin(self):
        got = closed_form_weierstrass(1e-4, P21)[0]
        assert abs(got - initial_state(P21)[0]) < 1e-6

    def test_near_zero_denominator_raises_typed_error(self, monkeypatch):
        from lawson_bipolar import phi_system
        from lawson_bipolar.special_functions import PoleProximityError

        b1 = weierstrass_tables(2, 1)[1][0]
        monkeypatch.setattr(phi_system, "weierstrass_p",
                            lambda y, inv: -0.5 * b1 + 1e-9)
        with pytest.raises(PoleProximityError, match=r"2P\+b_1 too close to zero"):
            closed_form_weierstrass(0.3, P21)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_argument_rejected(self, bad):
        from lawson_bipolar.special_functions import DomainError

        with pytest.raises(DomainError, match="argument must be finite"):
            closed_form_weierstrass(bad, P21)


class TestFirstIntegrals:
    def test_value_at_origin(self):
        # E1(0) = n^4 phi2^4(0) - n^2 (n^2 - m^2) phi2^2(0) = -(n^2-m^2)^2/4
        for nm in [(2, 1), (3, 2), (7, 3)]:
            p = params_from_nm(*nm)
            e1, e2 = first_integrals(initial_state(p), p)
            expected = -((p.n ** 2 - p.m ** 2) ** 2) / 4.0
            assert e1 == pytest.approx(expected, rel=1e-13)
            assert e2 == pytest.approx(expected, rel=1e-13)

    def test_drift_along_trajectory(self):
        profile = integrate_system(P21, tol=1e-10)
        e1, e2 = first_integrals(profile.states[::8], P21)
        assert np.max(np.abs(e1 - e1[0])) < 1e-8
        assert np.max(np.abs(e2 - e2[0])) < 1e-8

