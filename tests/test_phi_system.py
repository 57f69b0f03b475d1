"""Tests for the profile system: initial data, integration, closed forms,
and first integrals.  The theta closed form and the fixed-step RK8
integration serve as each other's oracles; conserved quantities are
checked for drift along the trajectory.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lawson_bipolar import phi_system, rk8
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
from lawson_bipolar.phi_system import _rk8_step
from lawson_bipolar.special_functions import complete_K, jacobi_am
from lawson_bipolar.surface_model import (
    admissible_pairs,
    derive_params,
    metric_f_array,
    period_a,
)

from pairs import params_from_nm

P21 = params_from_nm(2, 1)
P31 = params_from_nm(3, 1)


def _stage_sum(s, row, g) -> tuple:
    """s + sum of c * g[j] over the (j, c) of row, on 3-tuples."""
    s0, s1, s2 = s
    for j, c in row:
        g0, g1, g2 = g[j]
        s0 += c * g0; s1 += c * g1; s2 += c * g2
    return s0, s1, s2


def _reference_step(x, h, params) -> tuple:
    """The increment of one Cooper-Verner step in Nystrom form, by the
    stage loop over rk8.A_BAR: stage j's value of phi is c_j h phi' plus
    its terms h^2 abar_jk g_k in row order, plus phi, and g_j is the
    acceleration odesystem_rhs gives there; the increment is
    (h^2 sum_j bbar_j g_j + h phi', h sum_j b_j g_j)."""
    h2 = h * h
    pos, vel = x[:3], x[3:]
    g = []
    for c, row in zip(rk8.C.tolist(), rk8.A_BAR):
        s = _stage_sum([(h * c) * v for v in vel], [(j, h2 * a) for j, a in row], g)
        g.append(odesystem_rhs((*[u + p for u, p in zip(s, pos)], *vel), params)[3:])
    top = _stage_sum((0.0,) * 3, [(j, h2 * w) for j, w in rk8.B_BAR], g)
    bottom = _stage_sum((0.0,) * 3, [(j, h * w) for j, w in rk8.B], g)
    return (*[t + h * v for t, v in zip(top, vel)], *bottom)


#: whether long double carries more bits than double here; the classic
#: stage loop runs in it, and is skipped where it does not
_WIDE = np.finfo(np.longdouble).eps < np.finfo(float).eps


def _classic_states(params, steps, span, state0) -> np.ndarray:
    """The states at the step ends of steps classic RK8 steps of
    h = span / steps from state0, by the stage loop over rk8.A and rk8.B
    on the first-order form, odesystem_rhs, in long double."""
    wide = np.longdouble
    h = wide(span / steps)
    *stages, weights = [[(j, h * wide(c)) for j, c in row] for row in rk8.A + [rk8.B]]
    x = np.array(state0, wide)
    states = [x]
    for _ in range(steps):
        k = []
        for row in stages:
            y = x.copy()
            for j, c in row:
                y += c * k[j]
            k.append(np.array(odesystem_rhs(y, params)))
        inc = np.zeros(6, wide)
        for j, c in weights:
            inc += c * k[j]
        x = x + inc
        states.append(x)
    return np.array(states)


def _full_period(params, state0, tol, n_points=2048):
    """(grid, states, end_state): the profile's RK8 loop over one full
    period [0, a] from any initial 6-vector."""
    return phi_system._integrate(params, state0, tol, n_points, period_a(params))


def _rk8_states(params, steps, span, state0):
    """The states at the step ends 0, h, ..., span of steps RK8 steps of
    h = span / steps from state0, whatever profile_steps asks for, by the
    list-based Kahan loop _integrate replaced: the state, its
    compensation and each step's increment as 6-lists."""
    step = _rk8_step(params, span / steps)
    x, comp = np.asarray(state0, float).tolist(), [0.0] * 6
    states = [x]
    for _ in range(steps):
        d = [u - c for u, c in zip(step(*x), comp)]
        new = [u + v for u, v in zip(x, d)]
        comp = [(t - u) - v for t, u, v in zip(new, x, d)]
        x = new
        states.append(x)
    return states


def _reference_integrate(params, state0, tol, n_points):
    """_integrate over a full period by _rk8_states: the states at the
    grid points and the end state."""
    a = period_a(params)
    steps = phi_system.profile_steps(params, tol, a)
    n_points = steps if n_points is None else n_points
    per = -(-steps // n_points)
    states = _rk8_states(params, n_points * per, a, state0)
    return states[:-1:per], states[-1]


def _paper_tables(n, m):
    """The invariants (g2, g3) of each profile row's cubic 4t^3 - g2 t - g3
    and the shifts b of its denominator 2 P + b, as the paper prints them,
    in exact rationals."""
    n2, m2 = Fraction(n * n), Fraction(m * m)
    invariants = [
        (n2 * m2 + (m2 + n2) ** 2 / 12,
         -n2 * m2 * (m2 + n2) / 6 + (m2 + n2) ** 3 / 216),
        (m2 * (m2 - n2) + (2 * m2 - n2) ** 2 / 12,
         m2 * (m2 - n2) * (2 * m2 - n2) / 6 - (2 * m2 - n2) ** 3 / 216),
        (n2 * (n2 - m2) + (2 * n2 - m2) ** 2 / 12,
         n2 * (n2 - m2) * (2 * n2 - m2) / 6 - (2 * n2 - m2) ** 3 / 216),
    ]
    return invariants, [(n2 - 5 * m2) / 6, (4 * m2 + n2) / 6, (4 * n2 - 5 * m2) / 6]


def _symmetric_functions(roots):
    """e1 + e2 + e3, e1 e2 + e1 e3 + e2 e3 and e1 e2 e3 of three float or
    complex roots, exactly: each a (real, imaginary) pair of Fractions."""
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def add(*terms):
        return sum(t[0] for t in terms), sum(t[1] for t in terms)

    e1, e2, e3 = ((Fraction(complex(e).real), Fraction(complex(e).imag)) for e in roots)
    return add(e1, e2, e3), add(mul(e1, e2), mul(e1, e3), mul(e2, e3)), mul(mul(e1, e2), e3)


def _weierstrass_vs_theta(params):
    """The largest gap between the Weierstrass magnitudes and those of the
    theta closed form on verify's 100 points of the period."""
    ys = np.linspace(0.037, 0.963, 100) * period_a(params)
    mags = np.column_stack(closed_form_weierstrass(ys, params))
    return np.max(np.abs(mags - np.abs(closed_form_theta(ys, params)[:, :3])))


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
            integrate_system(P21, tol=1e-5, n_points=2048)
        with pytest.raises(ValueError):
            integrate_system(P21, tol=1e-14, n_points=2048)

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
        h = a / (phi_system.profile_steps(p, 1e-13, a) if steps == "tol" else steps)
        step = _rk8_step(p, h)
        states = [*closed_form_theta(np.linspace(0.0, a, 7), p).tolist(),
                  [0.3, -0.2, 0.9, 1.5, -0.7, 2.0]]
        for x in states:
            got = step(*x)
            want = _reference_step(tuple(x), h, p)
            assert [v.hex() for v in got] == [v.hex() for v in want], x

    @pytest.mark.skipif(not _WIDE, reason="long double is double here")
    @pytest.mark.parametrize("r, k", [(3, 1), (5, 1), (8, 1), (7, 6), (42, 41), (100, 1),
                                      (800, 1), (2000, 1)])
    def test_nystrom_step_is_the_classic_method(self, r, k):
        # the Nystrom step is the classic stage loop on (phi, phi') in exact
        # arithmetic: over the quarter at the profile's own step count,
        # every state is within four units of rounding of the classic
        # loop's in long double, phi absolutely and phi' relative to c0 n
        # (at most 1.1 units here)
        params = derive_params(r, k)
        quarter = period_a(params) / 4.0
        profile = integrate_system(params, tol=1e-13, n_points=None)
        got = np.vstack((profile.states, profile.end_state))
        want = _classic_states(params, len(profile.grid), quarter, initial_state(params))
        c0n = math.sqrt((params.n ** 2 + params.m ** 2) / 2.0)
        scale = np.array([1.0, 1.0, 1.0, c0n, c0n, c0n])
        assert np.max(np.abs(got - want) / scale) <= 4.0 * 2.0 ** -53

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


def _doubling_error(params, steps, span):
    """max |x_steps - x_2steps| / (c0 n) over the common step ends of
    [0, span] from the initial state: the step-doubling estimate of the
    RK8 error on steps steps (1/255 below the error itself for an
    eighth-order scheme)."""
    x0 = initial_state(params)
    gap = (np.array(_rk8_states(params, steps, span, x0))
           - np.array(_rk8_states(params, 2 * steps, span, x0))[::2])
    return np.max(np.abs(gap)) / math.sqrt((params.n ** 2 + params.m ** 2) / 2.0)


class TestStepRule:
    """profile_steps from the error model C (omega h)^8 omega span of
    step_error, held against step doubling."""

    @pytest.mark.parametrize("n, m", [(2, 1), (9, 7), (13, 1), (1009, 519), (401, 399),
                                      (10 ** 6 + 1, 10 ** 6 - 1)])
    def test_error_constant_by_step_doubling(self, n, m):
        # at 12 and 24 steps over the quarter (omega h from 0.1 to 0.9)
        # the RK8 error is far above rounding, and err / ((omega h)^8 omega
        # span) is the tableau's constant for the modulus m/n: 5.7e-6 at
        # its largest, near m/n = 1/2 ((2, 1) and (1009, 519)), 1.1e-6 as
        # m/n -> 0, and falling as m/n -> 1 while K grows
        params = params_from_nm(n, m)
        quarter = period_a(params) / 4.0
        for steps in (12, 24):
            c = (256.0 / 255.0) * _doubling_error(params, steps, quarter) * (
                phi_system.STEP_ERROR_C / phi_system.step_error(params, steps, quarter))
            assert 1e-7 < c <= phi_system.STEP_ERROR_C, (steps, c)
            if (n, m) in ((2, 1), (1009, 519)):
                assert c > phi_system.STEP_ERROR_C / 2.0, (steps, c)

    @pytest.mark.parametrize("r, k", [
        (3, 1), (5, 1), (8, 1), (7, 6),
        (42, 41), (100, 1), (200, 1), (400, 1), (800, 1), (801, 800), (1000, 999), (2000, 1)])
    def test_profile_error_within_its_bound(self, r, k):
        # integrate_system takes the fewest steps whose modelled error is
        # within tol / STEP_ERROR_MARGIN = 1e-16 of c0 n; step doubling then
        # finds the error within that and four units of rounding (at most
        # 2.0e-16 here).  76, 91, 108 and 59 steps on the battery
        params = derive_params(r, k)
        quarter = period_a(params) / 4.0
        bound = 1e-13 / phi_system.STEP_ERROR_MARGIN
        profile = integrate_system(params, tol=1e-13, n_points=None)
        steps = len(profile.grid)
        assert (phi_system.step_error(params, steps, quarter) <= bound
                < phi_system.step_error(params, steps - 1, quarter))
        states = _rk8_states(params, steps, quarter, initial_state(params))
        assert np.array_equal(states, np.vstack((profile.states, profile.end_state)))
        assert _doubling_error(params, steps, quarter) <= bound + 4.0 * 2.0 ** -53

    def test_battery_counts(self):
        counts = [phi_system.profile_steps(p, 1e-13, period_a(p) / 4.0)
                  for p in map(derive_params, (3, 5, 8, 7), (1, 1, 1, 6))]
        assert counts == [76, 91, 108, 59]


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
        roots, b = weierstrass_tables_exact(2, 1)
        pair = complex(-1 / 6, math.sqrt(3.0) / 2)
        assert roots == [(5 / 6, 7 / 12, -17 / 12), (1 / 3, pair, pair.conjugate()),
                         (7 / 12 + math.sqrt(3.0), 7 / 12 - math.sqrt(3.0), -7 / 6)]
        assert b == [-1 / 6, 8 / 6, 11 / 6]

    def test_roots_are_the_papers_roots(self):
        # the roots' symmetric functions give the paper's invariants within
        # 4 ulps of n^4 and n^6 (at most 2.9 and 0.9 over these pairs), the
        # roots sum to 0 within 4 ulps of n^2, and b is the paper's, rounded
        for r, k in admissible_pairs(60):
            p = derive_params(r, k)
            n, m = p.n, p.m
            roots, b = weierstrass_tables_exact(n, m)
            invariants, shifts = _paper_tables(n, m)
            assert b == [float(x) for x in shifts], (r, k)
            for i, (row, (g2, g3)) in enumerate(zip(roots, invariants)):
                s1, s2, s3 = _symmetric_functions(row)
                assert s1[1] == s2[1] == s3[1] == 0, (r, k, i)
                assert abs(s1[0]) <= 4 * math.ulp(n * n), (r, k, i)
                assert abs(-4 * s2[0] - g2) <= 4 * math.ulp(n ** 4), (r, k, i)
                assert abs(4 * s3[0] - g3) <= 4 * math.ulp(n ** 6), (r, k, i)

    def test_magnitudes_match_theta_form(self):
        a = period_a(P21)
        ys = (np.arange(100) + 0.37) / 100.0 * a
        for y in ys:
            mags = closed_form_weierstrass(y, P21)
            ref = closed_form_theta(y, P21)
            assert abs(mags[0] - abs(ref[0])) < 1e-6
            assert abs(mags[1] - abs(ref[1])) < 1e-6
            assert abs(mags[2] - abs(ref[2])) < 1e-6

    @pytest.mark.parametrize("r,k", [(33, 32), (44, 43), (55, 53), (31, 30), (50, 49)])
    def test_magnitudes_where_float_discriminant_cancels(self, r, k):
        # (n, m) = (65, 1), (87, 1), (54, 1), (61, 1) and (99, 1): the phi2
        # row's lower two roots are 6.4e-6 to 2.1e-5 apart, so rounding its
        # invariants to floats moves the cubic's discriminant past its size
        # (g2^3 - 27 g3^2 is 0.0 in floats at three of them, and the rounded
        # invariants have one real root at all but (54, 1)); the closed-form
        # roots keep the pair apart
        assert _weierstrass_vs_theta(derive_params(r, k)) < 1e-12

    @pytest.mark.parametrize("r,k", [(100, 1), (400, 1), (800, 1), (2000, 1)])
    def test_magnitudes_at_large_n(self, r, k):
        # (n, m) = (101, 99) to (2001, 1999)
        assert _weierstrass_vs_theta(derive_params(r, k)) < 1e-9

    def test_initial_value_recovered_near_origin(self):
        got = closed_form_weierstrass(1e-4, P21)[0]
        assert abs(got - initial_state(P21)[0]) < 1e-6

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
        profile = integrate_system(P21, tol=1e-10, n_points=2048)
        e1, e2 = first_integrals(profile.states[::8], P21)
        assert np.max(np.abs(e1 - e1[0])) < 1e-8
        assert np.max(np.abs(e2 - e2[0])) < 1e-8

