"""Tests for the profile system: initial data, integration, closed forms,
and first integrals.  The theta closed form and the fixed-step RK8
integration serve as each other's oracles; conserved quantities are
checked for drift along the trajectory.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lawson_bipolar import phi_system
from lawson_bipolar.phi_system import (
    REVERSE_AT_0,
    REVERSE_AT_QUARTER,
    closed_form_theta,
    closed_form_weierstrass,
    first_integrals,
    initial_state,
    integrate_system,
    odesystem_rhs,
    weierstrass_tables_exact,
)
from lawson_bipolar.hill_spectrum import _CV_A, _CV_B, _steps_for
from lawson_bipolar.phi_system import _rk8_step
from lawson_bipolar.special_functions import complete_K, jacobi_am
from lawson_bipolar.surface_model import (
    admissible_pairs,
    derive_params,
    metric_f_array,
    params_from_nm,
    period_a,
)

P21 = params_from_nm(2, 1)
P31 = params_from_nm(3, 1)


def _stage_sum(s, row, k) -> tuple:
    """s + sum of c * k[j] over the (j, c) of row, on 6-tuples of floats."""
    s0, s1, s2, s3, s4, s5 = s
    for j, c in row:
        k0, k1, k2, k3, k4, k5 = k[j]
        s0 += c * k0; s1 += c * k1; s2 += c * k2
        s3 += c * k3; s4 += c * k4; s5 += c * k5
    return s0, s1, s2, s3, s4, s5


def _reference_step(x, h, params) -> tuple:
    """The increment sum_i h b_i k_i of one Cooper-Verner step, by the
    stage loop over the tableau with k_i = odesystem_rhs(stage sum i)."""
    *stages, weights = [[(j, h * c) for j, c in row] for row in _CV_A + [_CV_B]]
    k = []
    for row in stages:
        k.append(odesystem_rhs(_stage_sum(x, row, k), params))
    return _stage_sum((0.0,) * 6, weights, k)


def _full_period(params, state0, tol, n_points=phi_system.DEFAULT_POINTS):
    """(grid, states, end_state): the profile's RK8 loop over one full
    period [0, a] from any initial 6-vector."""
    return phi_system._integrate(params, state0, tol, n_points, period_a(params))[:3]


def _reference_integrate(params, state0, tol, n_points):
    """_integrate over a full period by the list-based Kahan loop it
    replaced: the state, its compensation and each step's increment as
    6-lists."""
    a = period_a(params)
    steps = _steps_for(params, tol, a)
    n_points = steps if n_points is None else n_points
    per = -(-steps // n_points)
    step = _rk8_step(params, a / (n_points * per))
    x, comp = np.asarray(state0, float).tolist(), [0.0] * 6
    states = []
    for i in range(n_points * per):
        if i % per == 0:
            states.append(x)
        d = [u - c for u, c in zip(step(*x), comp)]
        new = [u + v for u, v in zip(x, d)]
        comp = [(t - u) - v for t, u, v in zip(new, x, d)]
        x = new
    return states, x


def _no_step(*args):
    raise AssertionError("integration started on rejected arguments")


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
        _, states, end = _full_period(P21, initial_state(P21), tol=1e-10)
        assert np.max(np.abs(end - states[0])) < 1e-8

    def test_sphere_drift(self):
        _, states, _ = _full_period(P21, initial_state(P21), tol=1e-10)
        drift = np.max(np.abs(np.sum(states[:, :3] ** 2, axis=1) - 1.0))
        assert drift < 1e-9

    def test_matches_theta_closed_form(self):
        grid, states, _ = _full_period(P21, initial_state(P21), 1e-10, 512)
        for y, row in zip(grid, states):
            ref = closed_form_theta(y, P21)
            np.testing.assert_allclose(row, ref, atol=1e-8)

    def test_coarse_grid_points_are_step_ends(self):
        # 16 grid points of the quarter at tol 1e-13 take 16 RK8 steps
        # each (246 rounded up to 256); one state is kept per grid point
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
        _, st, _ = _full_period(P31, initial_state(P31), 1e-10, 512)
        rev = st[::-1]          # index j -> y = a - y_j (up to the offset row)
        for j in range(1, 256):
            assert abs(st[j, 0] - rev[j - 1, 0]) < 1e-9
            assert abs(st[j, 1] + rev[j - 1, 1]) < 1e-9
            assert abs(st[j, 2] - rev[j - 1, 2]) < 1e-9

    def test_takahashi_pointwise(self):
        # -phi_j'' + p_j^2 phi_j = 2 f phi_j with (p_0, p_1, p_2) = (0, m, n)
        grid, states, _ = _full_period(P21, initial_state(P21), 1e-10, 512)
        n2, m2 = 4.0, 1.0
        for y, row in zip(grid, states):
            rhs = odesystem_rhs(row, P21)
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
            _, states, end = _full_period(p, perturbed, tol=1e-10)
            assert np.max(np.abs(end - states[0])) > 1e-6
        _, states, end = _full_period(p, initial_state(p), tol=1e-10)
        assert np.max(np.abs(end - states[0])) < 1e-6

    @pytest.mark.parametrize("r, k", [(3, 1), (8, 1), (7, 6)])
    @pytest.mark.parametrize("steps", ["tol", 512])
    def test_step_is_the_stage_loop(self, r, k, steps):
        # the straight-line step spells out odesystem_rhs and the tableau;
        # it must give the stage loop's increment bit for bit
        p = derive_params(r, k)
        a = period_a(p)
        h = a / (_steps_for(p, 1e-13, a) if steps == "tol" else steps)
        step = _rk8_step(p, h)
        states = [*closed_form_theta(np.linspace(0.0, a, 7), p).tolist(),
                  [0.3, -0.2, 0.9, 1.5, -0.7, 2.0]]
        for x in states:
            got = step(*x)
            want = _reference_step(tuple(x), h, p)
            assert [v.hex() for v in got] == [v.hex() for v in want], x

    @pytest.mark.parametrize("r, k", [(3, 1), (8, 1), (7, 6)])
    @pytest.mark.parametrize("tol, n_points, shift", [
        (1e-13, None, 0.0), (1e-10, 2048, 0.0), (1e-10, None, 1e-3)],
        ids=["every-step-1e-13", "grid-2048-1e-10", "perturbed"])
    def test_loop_is_the_list_based_loop(self, r, k, tol, n_points, shift):
        # the Kahan sums on six float locals make the same four operations
        # in the same order as the loop on lists: every state bit for bit
        p = derive_params(r, k)
        state0 = initial_state(p) + shift * np.arange(1, 7)
        _, states, end = _full_period(p, state0, tol, n_points)
        want_states, want_end = _reference_integrate(p, state0, tol, n_points)
        assert [v.hex() for v in states.ravel().tolist()] == [
            v.hex() for row in want_states for v in row]
        assert [v.hex() for v in end.tolist()] == [v.hex() for v in want_end]

    @pytest.mark.parametrize("n_points", [0, -5, 2.5, True, "16"])
    def test_bad_n_points_rejected_before_any_step(self, monkeypatch, n_points):
        monkeypatch.setattr(phi_system, "_rk8_step", _no_step)
        with pytest.raises(ValueError, match="n_points"):
            _full_period(P31, initial_state(P31), 1e-10, n_points)
        with pytest.raises(ValueError, match="n_points"):
            integrate_system(P31, tol=1e-10, n_points=n_points)

    @pytest.mark.parametrize("state0", [
        [1.0, 0.0, 0.5], [0.0] * 7, [[0.0] * 6],
        [math.nan, 0.0, 0.0, 0.0, 1.0, 0.0], [math.inf, 0.0, 0.0, 0.0, 1.0, 0.0]],
        ids=["three", "seven", "nested", "nan", "inf"])
    def test_bad_state0_rejected_before_any_step(self, monkeypatch, state0):
        monkeypatch.setattr(phi_system, "_rk8_step", _no_step)
        with pytest.raises(ValueError, match="state0"):
            _full_period(P31, state0, 1e-10)


class TestReversalSymmetry:
    """The two reversal symmetries that let integrate_system stop at a/4,
    read off the RK8 orbit at the battery's tolerance 1e-13."""

    @pytest.mark.parametrize("r, k", [(3, 1), (8, 1), (7, 6), (42, 41)])
    def test_quarter_ends_on_the_fixed_set(self, r, k):
        # at y = a/4, cos theta = sn(0) = 0: the state is
        # (0, 1/sqrt2, 1/sqrt2, -c0 n, 0, 0)
        p = derive_params(r, k)
        n, m = p.n, p.m
        c0 = math.sqrt((n * n + m * m) / (2.0 * n * n))
        fixed = [0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), -c0 * n, 0.0, 0.0]
        profile = integrate_system(p, tol=1e-13, n_points=None)
        assert np.max(np.abs(profile.end_state - fixed)) <= 1e-12

    @pytest.mark.parametrize("r, k", [(3, 1), (8, 1), (7, 6), (42, 41)])
    def test_full_period_is_the_reversed_quarter(self, r, k):
        # rows at 0, a/4, a/2, 3a/4: x(a/4) is fixed by the reversor about
        # a/4, x(a/2) is its image of x(0) and x(3a/4) = x(-a/4) the image
        # of x(a/4) under the reversor about 0
        p = derive_params(r, k)
        _, (x0, xq, xh, x3q), _ = _full_period(p, initial_state(p), 1e-13, 4)
        assert np.max(np.abs(xq - REVERSE_AT_QUARTER * xq)) <= 1e-12
        assert np.max(np.abs(xh - REVERSE_AT_QUARTER * x0)) <= 1e-12
        assert np.max(np.abs(x3q - REVERSE_AT_0 * xq)) <= 1e-12


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

    def test_jacobi_triple_matches_the_amplitude_route(self):
        # the amplitude route: theta = pi/2 - am(K - n y), then cos, sin
        # and theta' = sqrt(n^2 - m^2 cos^2 theta); the gap is taken per
        # column, relative to the column's largest value
        for pair in admissible_pairs(40):
            params = derive_params(*pair)
            n, m = params.n, params.m
            ys = np.linspace(0.0, period_a(params), 512, endpoint=False)
            w = complete_K(params.modulus) - n * ys
            th = math.pi / 2.0 - jacobi_am(w, params.modulus)
            c, s = np.cos(th), np.sin(th)
            dth = np.sqrt(n * n - m * m * c * c)
            c0 = math.sqrt((n * n + m * m) / (2.0 * n * n))
            ref = np.column_stack((c0 * c, s / math.sqrt(2.0), dth / (math.sqrt(2.0) * n),
                                   -c0 * s * dth, c * dth / math.sqrt(2.0),
                                   m * m * s * c / (math.sqrt(2.0) * n)))
            gap = np.max(np.abs(closed_form_theta(ys, params) - ref), axis=0)
            assert np.all(gap <= 1e-14 * np.max(np.abs(ref), axis=0)), (pair, gap)


class TestWeierstrassClosedForm:
    def test_exact_tables_for_2_1(self):
        a, b = weierstrass_tables_exact(2, 1)
        assert a[0][0] == Fraction(73, 12)
        assert b[0] == Fraction(-1, 6)
        assert b[1] == Fraction(8, 6)
        assert b[2] == Fraction(11, 6)

    def test_magnitudes_match_theta_form(self):
        a = period_a(P21)
        ys = (np.arange(100) + 0.37) / 100.0 * a
        for y in ys:
            mags = closed_form_weierstrass(y, P21)
            ref = closed_form_theta(y, P21)
            assert abs(mags[0] - abs(ref[0])) < 1e-6
            assert abs(mags[1] - abs(ref[1])) < 1e-6
            assert abs(mags[2] - abs(ref[2])) < 1e-6

    @pytest.mark.parametrize("r,k", [(33, 32), (44, 43), (55, 53)])
    def test_magnitudes_where_float_discriminant_cancels(self, r, k):
        # the phi2 row's g2^3 - 27 g3^2 is 0.0 in floats at (n, m) = (65, 1)
        # and (87, 1); the exact discriminant of the invariants is not.  At
        # (54, 1) np.roots gives the row's two lower roots, 2.1e-5 apart, as
        # one float, where the Newton slope 12 e^2 - g2 is 0 (a RuntimeWarning
        # fails the suite)
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

        b1 = float(weierstrass_tables_exact(2, 1)[1][0])
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

