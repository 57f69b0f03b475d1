"""Tests for the profile system: initial data, integration, closed forms,
and first integrals.  The theta closed form and the adaptive integration
serve as each other's oracles; conserved quantities are checked for
drift along the trajectory.
"""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from lawson_bipolar.phi_system import (
    PhiState,
    closed_form_profile,
    closed_form_theta,
    closed_form_weierstrass,
    first_integrals,
    initial_state,
    integrate_states,
    integrate_system,
    odesystem_rhs,
    weierstrass_tables,
    weierstrass_tables_exact,
    write_profile_csv,
)
from lawson_bipolar.surface_model import metric_f_array, params_from_nm, period_a

P21 = params_from_nm(2, 1)
P31 = params_from_nm(3, 1)


class TestInitialState:
    def test_values_for_2_1(self):
        st = initial_state(P21)
        assert st.phi0 == pytest.approx(math.sqrt(5 / 8), abs=1e-15)
        assert st.phi2 == pytest.approx(math.sqrt(3 / 8), abs=1e-15)
        assert st.dphi1 == pytest.approx(math.sqrt(3 / 2), abs=1e-15)
        assert st.phi1 == st.dphi0 == st.dphi2 == 0.0

    def test_on_sphere(self):
        for nm in [(2, 1), (5, 2), (15, 1)]:
            st = initial_state(params_from_nm(*nm))
            assert st.sphere_residual() < 1e-15

    def test_conformal_at_origin(self):
        # phi1'(0)^2 = n^2 phi2(0)^2 = (n^2 - m^2)/2
        for nm in [(2, 1), (4, 3)]:
            p = params_from_nm(*nm)
            st = initial_state(p)
            assert st.dphi1 ** 2 == pytest.approx(p.n ** 2 * st.phi2 ** 2, rel=1e-14)
            assert st.conformal_residual(p) < 1e-14


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
            ref = closed_form_theta(y, P21).as_array()
            np.testing.assert_allclose(row, ref, atol=1e-8)

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
            perturbed = PhiState(
                phi0=math.sqrt(1.0 - s - eps), phi1=0.0, phi2=phi2,
                dphi0=0.0, dphi1=p.n * phi2, dphi2=0.0)
            _, states, end = integrate_states(p, perturbed, tol=1e-10)
            assert np.max(np.abs(end - states[0])) > 1e-6
        _, states, end = integrate_states(p, initial_state(p), tol=1e-10)
        assert np.max(np.abs(end - states[0])) < 1e-6


class TestThetaClosedForm:
    def test_matches_initial_state_at_origin(self):
        st = closed_form_theta(0.0, P21)
        ref = initial_state(P21)
        np.testing.assert_allclose(st.as_array(), ref.as_array(), atol=1e-13)

    def test_ellipse_constraint(self):
        rng = np.random.default_rng(59)
        a = period_a(P21)
        n2, m2 = 4.0, 1.0
        for y in rng.uniform(-a, 2 * a, 100):
            st = closed_form_theta(y, P21)
            assert abs(2 * st.phi1 ** 2 + (2 * n2 / (n2 + m2)) * st.phi0 ** 2 - 1) < 1e-12

    def test_phi2_never_vanishes(self):
        profile = closed_form_profile(P21, n_points=512)
        assert np.min(profile.states[:, 2]) > 0.0

    def test_first_order_quartic_for_phi2(self):
        # (phi2')^2 = -2 n^2 phi2^4 + (2n^2 - m^2) phi2^2 + (m^2 - n^2)/2
        rng = np.random.default_rng(61)
        a = period_a(P21)
        n2, m2 = 4.0, 1.0
        for y in rng.uniform(0, a, 100):
            st = closed_form_theta(y, P21)
            q = -2 * n2 * st.phi2 ** 4 + (2 * n2 - m2) * st.phi2 ** 2 + (m2 - n2) / 2
            assert abs(st.dphi2 ** 2 - q) < 1e-9

    def test_derivatives_against_finite_differences(self):
        a = period_a(P31)
        h = 1e-6
        for y in np.linspace(0.1 * a, 0.9 * a, 19):
            st = closed_form_theta(y, P31)
            up = closed_form_theta(y + h, P31)
            dn = closed_form_theta(y - h, P31)
            assert abs((up.phi0 - dn.phi0) / (2 * h) - st.dphi0) < 1e-8
            assert abs((up.phi1 - dn.phi1) / (2 * h) - st.dphi1) < 1e-8
            assert abs((up.phi2 - dn.phi2) / (2 * h) - st.dphi2) < 1e-8


class TestWeierstrassClosedForm:
    def test_exact_tables_for_2_1(self):
        a, b = weierstrass_tables_exact(2, 1)
        assert a[0][0] == Fraction(73, 12)
        assert b[0] == Fraction(-1, 6)
        assert b[1] == Fraction(8, 6)
        assert b[2] == Fraction(11, 6)

    def test_table_floats_match_exact(self):
        for nm in [(2, 1), (5, 2)]:
            tab = weierstrass_tables(params_from_nm(*nm))
            a, b = weierstrass_tables_exact(*nm)
            for i in range(3):
                assert tab.a_matrix[i, 0] == float(a[i][0])
                assert tab.a_matrix[i, 1] == float(a[i][1])
                assert tab.b_vector[i] == float(b[i])

    def test_magnitudes_match_theta_form(self):
        a = period_a(P21)
        ys = (np.arange(100) + 0.37) / 100.0 * a
        for y in ys:
            mags = closed_form_weierstrass(y, P21)
            ref = closed_form_theta(y, P21)
            assert abs(mags[0] - abs(ref.phi0)) < 1e-6
            assert abs(mags[1] - abs(ref.phi1)) < 1e-6
            assert abs(mags[2] - abs(ref.phi2)) < 1e-6

    def test_initial_value_recovered_near_origin(self):
        got = closed_form_weierstrass(1e-4, P21)[0]
        assert abs(got - initial_state(P21).phi0) < 1e-6

    def test_near_zero_denominator_raises_typed_error(self, monkeypatch):
        from lawson_bipolar import phi_system
        from lawson_bipolar.special_functions import PoleProximityError

        b1 = weierstrass_tables(P21).b_vector[0]
        monkeypatch.setattr(phi_system, "weierstrass_p",
                            lambda y, inv: -0.5 * b1 + 1e-9)
        with pytest.raises(PoleProximityError, match=r"2P\+b_1 too close to zero"):
            closed_form_weierstrass(0.3, P21)


class TestFirstIntegrals:
    def test_value_at_origin(self):
        # E1(0) = n^4 phi2^4(0) - n^2 (n^2 - m^2) phi2^2(0) = -(n^2-m^2)^2/4
        for nm in [(2, 1), (3, 2), (7, 3)]:
            p = params_from_nm(*nm)
            e1, e2 = first_integrals(initial_state(p).as_array(), p)
            expected = -((p.n ** 2 - p.m ** 2) ** 2) / 4.0
            assert e1 == pytest.approx(expected, rel=1e-13)
            assert e2 == pytest.approx(expected, rel=1e-13)

    def test_drift_along_trajectory(self):
        profile = integrate_system(P21, tol=1e-10)
        e1, e2 = first_integrals(profile.states[::8], P21)
        assert np.max(np.abs(e1 - e1[0])) < 1e-8
        assert np.max(np.abs(e2 - e2[0])) < 1e-8


class TestProfileDump:
    def test_csv_columns_and_determinism(self):
        profile = integrate_system(P21, tol=1e-10, n_points=64)
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_profile_csv(buf1, profile)
        write_profile_csv(buf2, profile)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().splitlines()
        assert lines[0] == "y,phi0,phi1,phi2,dphi0,dphi1,dphi2,E1,E2"
        assert len(lines) == 65
