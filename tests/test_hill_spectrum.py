"""Tests for the Floquet-discriminant spectrum machinery.

Independent oracles: scipy's adaptive DOP853 for the propagation, a
Fourier-Galerkin generalized eigenproblem for whole spectral lines,
scipy.linalg.eigh of the unreduced parity-block pencils, the
line-by-line count of the located roots for the count by the cluster
certificate, and the closed-form counting identities for ranks.
"""

import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from lawson_bipolar import hill_spectrum as hs
from lawson_bipolar import phi_system
from lawson_bipolar import rk8
from lawson_bipolar import surface_model as sm
from lawson_bipolar import verification as vf
from lawson_bipolar.cli import main
from lawson_bipolar.hill_spectrum import (
    Parity,
    branch_monotonicity,
    count_zeros,
    eigenfunction_samples,
    extremal_rank,
    floquet,
    rank_formula,
    surface_lines,
)
from lawson_bipolar.phi_system import closed_form_theta
from lawson_bipolar.surface_model import (
    Topology,
    admissible_pairs,
    derive_params,
    metric_f_array,
    period_a,
)

from pairs import params_from_nm

P21 = params_from_nm(2, 1)     # (r, k) = (3, 1), Klein bottle
P31 = params_from_nm(3, 1)     # (r, k) = (2, 1), torus


#: whether long double carries more bits than double here; the stage-loop
#: references run in it, and are skipped where it does not
_WIDE = np.finfo(np.longdouble).eps < np.finfo(float).eps
needs_long_double = pytest.mark.skipif(not _WIDE, reason="long double is double here")


def _propagate_reference(params, p, lam, y_end, n_steps, y_start=0.0):
    """(z1, z1', z2, z2') at y_end, started at y_start, by the classic
    stage-by-stage RK8 loop on the first-order form (z, z') in long
    double, one column per entry of p and lam: the reference for the
    Nystrom transfer-matrix product.  q = p^2 - lambda f is formed in
    doubles at the same stage nodes, as the oracle forms it."""
    wide = np.longdouble
    h = (y_end - y_start) / n_steps
    nodes = y_start + (np.arange(n_steps)[:, None] + rk8.C) * h
    f = metric_f_array(nodes.ravel(), params).reshape(n_steps, 11, 1)
    p, lam = np.atleast_1d(p), np.atleast_1d(lam)
    q = (p * p - lam * f).astype(wide)
    stages = [[(j, wide(h) * wide(a)) for j, a in row] for row in rk8.A]
    weights = [(i, wide(h) * wide(w)) for i, w in rk8.B]
    state = np.zeros((4, p.size), wide)
    state[0] = state[3] = 1.0
    for q_step in q:
        ks = []
        for row, q_node in zip(stages, q_step):
            y = state.copy()
            for j, a in row:
                y += a * ks[j]
            ks.append(np.array([y[1], q_node * y[0], y[3], q_node * y[2]]))
        for i, w in weights:
            state = state + w * ks[i]
    return state


@needs_long_double
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(pair=st.sampled_from(admissible_pairs(20)),
       cols=st.lists(st.tuples(st.floats(0.0, 1.0),
                               st.floats(0.0, 3.0, exclude_max=True)),
                     min_size=1, max_size=4),
       span=st.sampled_from([(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)]),
       n_steps=st.sampled_from([96, 97, 128, 129]))
def test_transfer_product_matches_stage_loop(pair, cols, span, n_steps):
    # over [0, b], [0, b/2] and [b/2, b]
    params = derive_params(*pair)
    b = period_a(params) / 2.0
    y_start, y_end = span[0] * b, span[1] * b
    p = np.array([u * params.n for u, _ in cols])
    lam = np.array([lam for _, lam in cols])
    got = hs._propagate(params, p * p, lam, y_start, y_end, n_steps)
    ref = _propagate_reference(params, p, lam, y_end, n_steps, y_start)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    z1, dz1, z2, dz2 = got
    assert np.max(np.abs(z1 * dz2 - z2 * dz1 - 1.0)) < 1e-11


def _step_matrices_reference(q, h):
    """rk8.step_matrices as a plain Nystrom loop: a fresh array per term,
    each sum's terms in stage order, then (1, c_i h) for stage i's value
    of z and (0, h) for the top row of S - I."""
    h2 = h * h
    ones = (1,) * (q.ndim - 1)

    def weighted(pairs, scale, f):
        total = 0.0
        for j, w in pairs:
            total = total + (scale * w) * f[j]
        return total

    def column(*entries):
        return np.array(entries).reshape((2,) + ones)

    f = []
    for i, row in enumerate(rk8.A_BAR):
        f.append(q[i] * (weighted(row, h2, f) + column(1.0, h * rk8.C[i])))
    return np.concatenate([weighted(rk8.B_BAR, h2, f) + column(0.0, h),
                           weighted(rk8.B, h, f)])


@pytest.mark.parametrize("r, k", [(3, 1), (5, 1), (8, 1), (7, 6)])
@pytest.mark.parametrize("n_steps", [96, 139, 157])
@pytest.mark.parametrize("cols", [1, 3, 70])
def test_step_matrices_keep_their_bits(r, k, n_steps, cols):
    # q = p^2 - lambda f at the stage nodes of the battery's surfaces, over
    # random columns and the zero column p = lambda = 0
    params = derive_params(r, k)
    h = period_a(params) / 2.0 / n_steps
    nodes = (np.arange(n_steps)[:, None] + rk8.C) * h
    f = metric_f_array(nodes.ravel(), params).reshape(n_steps, 11).T[:, :, None]
    rng = np.random.default_rng(r * 1000 + n_steps + cols)
    p2 = rng.uniform(0.0, float(params.n), cols) ** 2
    lam = rng.uniform(0.0, 3.0, cols)
    p2[0] = lam[0] = 0.0
    q = p2 - lam * f
    np.testing.assert_array_equal(rk8.step_matrices(q, h),
                                  _step_matrices_reference(q, h))


def _same_bits(got, want):
    """Equal as IEEE doubles, the sign of a zero included."""
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(n_steps=st.one_of(st.integers(1, 300),
                         st.sampled_from([2 ** e + d for e in range(9) for d in (-1, 0, 1)
                                          if 1 <= 2 ** e + d <= 300])),
       tile=st.sampled_from([2 ** e for e in range(9)]),
       cols=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16))
@example(n_steps=1, tile=1, cols=1, seed=0)
@example(n_steps=300, tile=256, cols=2, seed=1)
@example(n_steps=257, tile=256, cols=3, seed=2)
@example(n_steps=129, tile=2, cols=1, seed=3)
def test_tiled_product_is_the_pairwise_product(n_steps, tile, cols, seed):
    # tiles of 1 to 256 steps over 1 to 300 steps, one tile or more, the
    # last full or short, and a zero column q = 0
    rng = np.random.default_rng(seed)
    q = rng.uniform(-40.0, 10.0, (11, n_steps, cols))
    q[:, :, 0] = 0.0
    h = rng.uniform(0.005, 0.05)
    got = rk8.tiled_product(lambda steps: q[:, steps], n_steps, h, tile)
    _same_bits(got, rk8.pairwise_product(rk8.step_matrices(q, h)))


_WIDTH = hs._TILE >> 4     # most columns of one block of _propagate


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(n_steps=st.sampled_from([1, 15, 16, 17, 49, 64, 78, 129, 256, 300]),
       cols=st.sampled_from([1, 2, 6, 50, _WIDTH - 1, _WIDTH, _WIDTH + 1,
                             2 * _WIDTH, 2 * _WIDTH + 1, 300]))
def test_propagate_keeps_the_bits_of_one_product(n_steps, cols):
    # column counts on both sides of the block width, which sets the tile:
    # each column's pair is that of one product over all steps
    b = period_a(P31) / 2.0
    rng = np.random.default_rng(n_steps * 1000 + cols)
    p2 = rng.uniform(0.0, float(P31.n), cols) ** 2
    lam = rng.uniform(0.0, 3.0, cols)
    h = b / n_steps
    nodes = (np.arange(n_steps)[:, None] + rk8.C) * h
    f = metric_f_array(nodes.ravel(), P31).reshape(n_steps, 11).T[:, :, None]
    want = rk8.pairwise_product(rk8.step_matrices(p2 - lam * f, h))[[0, 2, 1, 3], 0]
    want[[0, 3]] += 1.0
    _same_bits(hs._propagate(P31, p2, lam, 0.0, b, n_steps), want)


def _oracle_steps(params):
    """The Floquet oracle's fixed step count to b at tol = 1e-9,
    max(96, ceil(1.5 omega b tol^(-1/8))) with
    omega = sqrt((n + 2)^2 + 1.03 (n^2 + m^2)), spelled out."""
    n, m, b = params.n, params.m, period_a(params) / 2.0
    omega = math.sqrt((n + 2) ** 2 + 1.03 * (n * n + m * m))
    return max(int(math.ceil(1.5 * omega * b * 1e-9 ** (-1.0 / 8.0))), 96)


class TestFloquetBasics:
    def test_zero_potential_zero_p(self):
        z1, _, z2, dz2 = floquet(0.0, 0.0, P21)
        b = period_a(P21) / 2.0
        assert z1 == pytest.approx(1.0, abs=1e-12)
        assert dz2 == pytest.approx(1.0, abs=1e-12)
        assert z2 == pytest.approx(b, abs=1e-12)
        assert z1 + dz2 == pytest.approx(2.0, abs=1e-12)

    def test_wronskian_at_random_points(self):
        # sampled over the spectral window lambda in [0, 3), p in [0, n],
        # where n * b = 2 K(m/n) keeps the fundamental pair O(1)-bounded
        rng = np.random.default_rng(67)
        for _ in range(50):
            p = rng.uniform(0.0, float(P21.n))
            lam = rng.uniform(0.0, 3.0)
            z1, dz1, z2, dz2 = floquet(p, lam, P21)
            assert abs(z1 * dz2 - z2 * dz1 - 1.0) < 1e-11

    def test_against_scipy_dop853(self):
        rng = np.random.default_rng(71)
        b = period_a(P21) / 2.0
        for _ in range(10):
            p = rng.uniform(0.0, 3.0)
            lam = rng.uniform(-0.5, 2.5)

            def rhs(y, z):
                q = p * p - lam * float(metric_f_array(y, P21))
                return [z[1], q * z[0], z[3], q * z[2]]

            sol = solve_ivp(rhs, (0.0, b), [1.0, 0.0, 0.0, 1.0],
                            method="DOP853", rtol=1e-13, atol=1e-13)
            got = floquet(p, lam, P21)
            np.testing.assert_allclose(got, sol.y[:, -1], atol=1e-11)

    def test_half_period_identities(self):
        rng = np.random.default_rng(73)
        b = period_a(P31) / 2.0
        for _ in range(50):
            p = rng.uniform(0.0, float(P31.n))
            lam = rng.uniform(0.0, 3.0)
            z1b, dz1b, z2b, dz2b = floquet(p, lam, P31)
            z1h, dz1h, z2h, dz2h = hs._propagate(
                P31, p * p, [lam], 0.0, b / 2.0, hs._half_steps(P31))[:, 0]
            assert abs(z1b - (2.0 * z1h * dz2h - 1.0)) < 1e-9
            assert abs(z1b - (1.0 + 2.0 * z2h * dz1h)) < 1e-9
            assert abs(dz1b - 2.0 * z1h * dz1h) < 1e-9
            assert abs(z2b - 2.0 * z2h * dz2h) < 1e-9
            assert abs(dz2b - z1b) < 1e-9

    def test_column_blocks_keep_each_column(self):
        # 300 columns of 129 steps go in blocks of _TILE / 16 = 128, 128
        # and 44 columns; every column keeps the bits it has when propagated
        # alone
        b = period_a(P31) / 2.0
        rng = np.random.default_rng(79)
        p2 = rng.uniform(0.0, float(P31.n), 300) ** 2
        lam = rng.uniform(0.0, 3.0, 300)
        assert 2 * _WIDTH < 300 <= 3 * _WIDTH
        batch = hs._propagate(P31, p2, lam, 0.0, b, 129)
        for i in (0, 1, _WIDTH - 1, _WIDTH, 2 * _WIDTH - 1, 2 * _WIDTH, 299):
            alone = hs._propagate(P31, p2[i], lam[i], 0.0, b, 129)[:, 0]
            np.testing.assert_array_equal(batch[:, i], alone)

    def test_working_memory_is_bounded(self):
        # in one piece, 4096 steps x 64 columns would take about 92 MB of
        # stage arrays; in tiles the 45056 values of f at the stage nodes
        # take most of the peak.  At the 680 steps of the longest half
        # period and 3000 columns the tiles stay near 0.6 MiB beyond f.
        for n_steps, cols, bound in ((4096, 64, 5e6), (680, 3000, 2 ** 21)):
            lam = np.linspace(0.0, 3.0, cols)
            tracemalloc.start()
            try:
                hs._propagate(P21, 1.0, lam, 0.0, 1.0, n_steps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (n_steps, cols, peak)

    def test_largest_step_counts(self):
        """No admissible pair has a larger K(m/n) than one whose m/n is the
        largest double below 1, so none needs more RK8 steps: 1359 to b
        for the Floquet oracle, rounded up to 1360, 1649 to a/4 = b/2 for
        the profile at its tightest tolerance."""
        params = derive_params(2 ** 54 - 1, 1)
        assert params.m / params.n == math.nextafter(1.0, 0.0)
        b = period_a(params) / 2.0
        assert _oracle_steps(params) == 1359
        assert hs._half_steps(params) == 680
        assert phi_system.profile_steps(params, 1e-13, b / 2.0) == 1649

    def test_half_steps_are_the_oracle_count(self):
        # _half_steps is half the oracle's fixed count at tol = 1e-9,
        # rounded up, with the count's float operations in their order; the
        # halves are the ones rk8.steps_for gave before it was folded in
        small = [derive_params(*pair) for pair in admissible_pairs(60)]
        halves = [hs._half_steps(params) for params in small]
        assert halves == [(_oracle_steps(params) + 1) // 2 for params in small]
        assert (len(halves), sum(halves), min(halves), max(halves)) == (1101, 60087, 48, 99)
        large = [derive_params(*pair) for pair in [
            (42, 41), (100, 1), (200, 1), (400, 1), (800, 1), (801, 800), (1000, 999),
            (2000, 1), (2 ** 54 - 1, 1)]]
        assert [_oracle_steps(params) for params in large] == [
            96, 212, 236, 259, 283, 96, 96, 315, 1359]
        assert [hs._half_steps(params) for params in large] == [
            48, 106, 118, 130, 142, 48, 48, 158, 680]

    @pytest.mark.parametrize("p_lam", [("n", 2.0), ("m", 2.0)])
    def test_known_eigenvalues_close_discriminant(self, p_lam):
        name, lam = p_lam
        p = getattr(P31, name)
        z1, _, _, dz2 = floquet(float(p), lam, P31)
        assert (z1 + dz2) ** 2 == pytest.approx(4.0, abs=1e-8)


class TestFloquetForms:
    @pytest.mark.parametrize("r,k", [(3, 1), (8, 1), (7, 6)])
    @pytest.mark.parametrize("half", [False, True], ids=["b", "b/2"])
    def test_array_form_is_scalar_form(self, r, k, half):
        # the array form gives each column the scalar form's bits, and b/2
        # takes half of b's step count, rounded up to even (139 -> 140
        # steps at (8, 1))
        params = derive_params(r, k)
        b = period_a(params) / 2.0
        y_end = b / 2.0 if half else None
        p = np.linspace(0.0, float(params.n), 7)
        lam = np.linspace(0.0, 3.0, 7)[::-1].copy()
        batch = floquet(p, lam, params, y_end=y_end)
        assert len(batch) == 4
        assert all(isinstance(row, np.ndarray) and row.shape == (7,) for row in batch)
        for col in range(7):
            alone = floquet(float(p[col]), float(lam[col]), params, y_end=y_end)
            assert len(alone) == 4 and all(type(x) is float for x in alone)
            assert alone == tuple(row[col] for row in batch)
        if half:
            ref = hs._propagate(params, p * p, lam, 0.0, b / 2.0, hs._half_steps(params))
            np.testing.assert_array_equal(np.array(batch), ref)

    @pytest.mark.parametrize("p,lam", [
        (math.nan, 1.0), (math.inf, 1.0), (-0.5, 1.0), (1.0, math.nan),
    ], ids=["nan-p", "inf-p", "negative-p", "nan-lambda"])
    def test_bad_input_raises_before_propagation(self, p, lam, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("propagated a rejected input")

        monkeypatch.setattr(hs, "_propagate", boom)
        with pytest.raises(ValueError, match="need finite lambda and finite p >= 0"):
            floquet(p, lam, P21)
        with pytest.raises(ValueError, match="need finite lambda and finite p >= 0"):
            floquet(np.array([1.0, p, 0.5]), np.array([0.5, lam, 1.5]), P21)

    @pytest.mark.parametrize("y_end", [math.nan, math.inf, -math.inf, -1e-3, 1.001, 5.0,
                                       0.0, 0.3, 0.75],
                             ids=["nan", "inf", "-inf", "negative", "past-b", "5b",
                                  "zero", "inside", "three-quarters"])
    def test_y_end_outside_half_period_raises_before_propagation(self, y_end,
                                                                 monkeypatch):
        # the step grid serves the two ends the oracle reads, b/2 and b, and
        # past b its step would miss the tolerance: at (8, 1), 20 b is off
        # by 4.6e-5 relative
        def boom(*args, **kwargs):
            raise AssertionError("propagated a rejected y_end")

        b = period_a(P21) / 2.0
        y = y_end * b if math.isfinite(y_end) else y_end
        monkeypatch.setattr(hs, "_propagate", boom)
        with pytest.raises(ValueError, match=r"need y_end b/2 or b"):
            floquet(1.0, 0.5, P21, y_end=y)
        with pytest.raises(ValueError, match=r"need y_end b/2 or b"):
            floquet(np.array([1.0, 0.5]), np.array([0.5, 1.5]), P21, y_end=y)
        with pytest.raises(ValueError, match=r"need y_end b/2 or b"):
            floquet(1.0, 0.5, P21, y_end=(b, y))

    def test_y_end_at_either_end_of_half_period(self):
        # a tuple of ends gives each end's own result
        b = period_a(P21) / 2.0
        assert floquet(1.0, 0.5, P21, y_end=b) == floquet(1.0, 0.5, P21)
        assert floquet(1.0, 0.5, P21, y_end=(b / 2.0, b, b / 2.0)) == (
            floquet(1.0, 0.5, P21, y_end=b / 2.0), floquet(1.0, 0.5, P21),
            floquet(1.0, 0.5, P21, y_end=b / 2.0))
        p, lam = np.array([0.0, 1.0, 2.0]), np.array([2.5, 0.5, 1.0])
        at_half, at_b = floquet(p, lam, P21, y_end=(b / 2.0, b))
        np.testing.assert_array_equal(at_half, floquet(p, lam, P21, y_end=b / 2.0))
        np.testing.assert_array_equal(at_b, floquet(p, lam, P21))

    @needs_long_double
    @pytest.mark.parametrize("r,k", [(3, 1), (8, 1), (7, 6), (100, 1)])
    def test_halves_match_the_stage_loop(self, r, k):
        # the pair at b, composed from the propagations over [0, b/2] and
        # [b/2, b], against the stage-by-stage loop over the same N steps
        # of [0, b]; the pair at b/2 against the loop over N/2 steps
        params = derive_params(r, k)
        b = period_a(params) / 2.0
        steps = 2 * hs._half_steps(params)
        p = np.array([0.0, 0.3, 0.7, 1.0]) * params.n
        lam = np.array([2.9, 0.1, 1.7, 2.0])
        at_half, at_b = floquet(p, lam, params, y_end=(b / 2.0, b))
        for got, y_end, n_steps in ((at_b, b, steps), (at_half, b / 2.0, steps // 2)):
            ref = _propagate_reference(params, p, lam, y_end, n_steps)
            gap = np.abs(np.array(got) - ref) / np.maximum(1.0, np.abs(ref))
            assert np.all(gap <= 1e-12), (y_end, gap)


class TestBranches:
    def test_line_p0_anchors(self):
        line = surface_lines(P31)[0]
        assert abs(line.eigenvalues[0].gamma) < 1e-7               # gamma_0(0) = 0
        assert line.eigenvalues[2].gamma == pytest.approx(2.0, abs=1e-7)
        assert line.eigenvalues[0].parity is Parity.EVEN
        assert line.eigenvalues[2].parity is Parity.EVEN

    def test_gamma1_odd_on_interval(self):
        # eigenfunctions of gamma_1(p) stay odd for 0 <= p <= m
        for p in range(P31.m + 1):
            line = surface_lines(P31)[p]
            assert line.eigenvalues[1].parity is Parity.ODD

    @pytest.mark.parametrize("r,k", [(6, 1), (7, 5)])
    def test_window_excludes_eigenvalues_above_lambda_max(self, r, k):
        # at p = 1 both surfaces have an eigenvalue just past the window
        # (about 2.0566 and 2.0563), which must not be returned
        params = derive_params(r, k)
        gammas = [e.gamma for e in surface_lines(params)[1].eigenvalues]
        gammas += [e.gamma for line in surface_lines(params)
                   for e in line.eigenvalues]
        assert max(gammas) <= 2.0513713

    def test_monotonicity_of_gamma0(self):
        grid = np.arange(0.5, P31.n + 0.01, 0.25)
        assert np.all(np.diff(branch_monotonicity(P31, 0, grid)) > 0.0)

    def test_gamma0_endpoints(self):
        line0 = surface_lines(P31)[0]
        linen = surface_lines(P31)[P31.n]
        assert abs(line0.eigenvalues[0].gamma) < 1e-7
        assert linen.eigenvalues[0].gamma == pytest.approx(2.0, abs=1e-7)

    def test_gamma1_endpoints(self):
        line0 = surface_lines(P31)[0]
        linem = surface_lines(P31)[P31.m]
        assert line0.eigenvalues[1].gamma < 2.0
        assert linem.eigenvalues[1].gamma == pytest.approx(2.0, abs=1e-7)

    def test_narrow_gap_recovered_for_flat_profile(self):
        # (n, m) = (15, 1): gamma_1(1) = 2 and gamma_2(1) bound an
        # instability interval narrower than 0.02; both must be located,
        # each from its own parity block
        p151 = params_from_nm(15, 1)
        line = surface_lines(p151)[1]
        gammas = [e.gamma for e in line.eigenvalues]
        assert gammas[1] == pytest.approx(2.0, abs=1e-7)
        assert 2.0 + 1e-6 < gammas[2] < 2.02

    def test_unresolved_fourier_tail_raises(self, monkeypatch):
        # a profile the Galerkin modes cannot resolve is refused, not truncated
        monkeypatch.setattr(hs, "TAIL_BOUND", 0.0)
        with pytest.raises(hs.SpectrumMismatchError, match="Fourier tail"):
            hs._galerkin_blocks.__wrapped__(P31)

    def test_mode_count_past_the_cap_raises(self, monkeypatch):
        # the margin pushes the 9 modes of (n, m) = (3, 1) past N_MODES: the
        # error names the nome, the modes asked for, the fewest that meet
        # TAIL_BOUND with their tail, and the margin
        monkeypatch.setattr(hs, "MODE_MARGIN", 42)
        with pytest.raises(hs.SpectrumMismatchError,
                           match=r"q = 0\.00736091 asks for 49 modes per block: 7, the fewest "
                                 r"whose tail \(6\.247e-14 c_0\) .* MODE_MARGIN = 42 more"):
            hs._galerkin_blocks.__wrapped__(P31)

    def test_fourier_galerkin_oracle(self):
        # modes e^{2 pi i j y / a}: ((2 pi j / a)^2 + p^2) c = lambda (F c)
        # with F the Toeplitz matrix of the Fourier coefficients of f
        params = P31
        a = period_a(params)
        nmodes = 40
        nsamp = 1024
        ys = np.linspace(0.0, a, nsamp, endpoint=False)
        fhat = np.fft.fft(metric_f_array(ys, params)) / nsamp
        for p in (0, 1, 2, 3):
            diag = (2.0 * math.pi * np.arange(-nmodes, nmodes + 1) / a) ** 2 + p * p
            A = np.diag(diag)
            idx = np.arange(-nmodes, nmodes + 1)
            B = np.empty((idx.size, idx.size), dtype=complex)
            for i, ji in enumerate(idx):
                for j, jj in enumerate(idx):
                    B[i, j] = fhat[(ji - jj) % nsamp]
            oracle = np.sort(scipy.linalg.eigh(A, B.real, eigvals_only=True))
            oracle = oracle[oracle < 2.049]
            line = surface_lines(params)[p]
            got = np.array([e.gamma for e in line.eigenvalues
                            if e.gamma < 2.049])
            np.testing.assert_allclose(got, oracle[:len(got)], atol=1e-8)
            assert len(got) == len(oracle)


#: samples of f over one period for the reference FFT coefficients
REFERENCE_F_SAMPLES = 512


def _fft_cosines(params):
    """c_0..c_256 of f from the FFT of REFERENCE_F_SAMPLES samples of f,
    each from the Landen sn of metric_f_array."""
    a = period_a(params)
    ys = a * np.arange(REFERENCE_F_SAMPLES) / REFERENCE_F_SAMPLES
    return np.fft.rfft(metric_f_array(ys, params)).real / REFERENCE_F_SAMPLES


def _reference_pencils(params):
    """The four Galerkin blocks as unreduced pencils (parity, psi_target,
    j, k_j^2, F), built from the FFT coefficients of f."""
    a = period_a(params)
    c = _fft_cosines(params)
    pencils = []
    for parity, sign, first_even in ((Parity.EVEN, 1.0, 0), (Parity.ODD, -1.0, 2)):
        for target, first in ((2.0, first_even), (-2.0, 1)):
            j = first + 2 * np.arange(hs.N_MODES)
            F = c[np.abs(j[:, None] - j)] + sign * c[j[:, None] + j]
            if first == 0:
                F[0] /= math.sqrt(2.0)
                F[:, 0] /= math.sqrt(2.0)
            pencils.append((parity, target, j, (2.0 * math.pi * j / a) ** 2, F))
    return pencils


def _reference_line(pencils, p):
    """(gamma, parity, psi_target) up to LAMBDA_MAX_COUNT, ascending, from
    one scipy.linalg.eigh of diag(k^2 + p^2) v = lambda F v per block."""
    return sorted(
        ((float(g), parity, target)
         for parity, target, _, k2, F in pencils
         for g in scipy.linalg.eigh(np.diag(k2 + p * p), F, eigvals_only=True,
                                    subset_by_value=(-np.inf, hs.LAMBDA_MAX_COUNT))),
        key=lambda root: root[0])


def _reference_samples(params, pencils, p, gamma, parity, n_samples):
    """eigenfunction_samples from the pencil eigenvector that scipy's
    windowed eigh finds within 1e-8 of gamma."""
    for blk_parity, _, j, k2, F in pencils:
        if blk_parity is parity:
            w, v = scipy.linalg.eigh(np.diag(k2 + p * p), F,
                                     subset_by_value=(gamma - 1e-8, gamma + 1e-8))
            if w.size:
                break
    coef = v[:, 0]
    a = period_a(params)
    k = 2.0 * math.pi * j / a
    ys = a * np.arange(n_samples) / n_samples
    if parity is Parity.EVEN:
        coef = np.where(j == 0, coef / math.sqrt(2.0), coef)
        return np.cos(np.outer(ys, k)) @ coef / coef.sum()
    return np.sin(np.outer(ys, k)) @ coef / (k @ coef)


def _ground_states(params):
    """(p, branch_index, parity, psi_target) of the five sampled
    eigenfunctions gamma_1(0), gamma_2(0), gamma_0(1), gamma_1(m) and
    gamma_0(n), each the lowest root of its block on its line."""
    return ((0, 1, Parity.ODD, -2.0), (0, 2, Parity.EVEN, -2.0),
            (1, 0, Parity.EVEN, 2.0), (params.m, 1, Parity.ODD, -2.0),
            (params.n, 0, Parity.EVEN, 2.0))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(admissible_pairs(200))
       | st.sampled_from([(r, r - 1) for r in range(701, 3001)])
       | st.sampled_from([(r, 1) for r in range(2799, 12002, 2)]))
def test_ground_state_labels_beyond_table(pair):
    """At each sampled label the located root is its block's lowest root,
    with the same parity and target, also on the flat profiles and the
    pairs (r, 1) with n >= 1400.  Only the four lines the labels name are
    scanned.  gamma agrees within 1e-12 for r <= 200; past n = 1400 the
    line scan's eigvalsh and the sampler's eigh may each round by
    u |A + p^2 G|, which exceeds 1e-10 for (r, 1) there (the measured gap
    reaches 1.6e-11, 3% of that bound)."""
    params = derive_params(*pair)
    lines = dict(zip((0, 1, params.m, params.n),
                     hs._scan_lines(params, [0, 1, params.m, params.n])))
    blocks = hs._galerkin_blocks(params)
    for p, index, parity, target in _ground_states(params):
        eig = lines[p].eigenvalues[index]
        assert (eig.parity, eig.psi_target) == (parity, target), (p, index)
        gamma, _, _ = eigenfunction_samples(params, parity, target, p)
        b = hs.BLOCKS.index((parity, target))
        A, G = blocks.A[b], blocks.G[b]
        tol = (1e-12 if params.n < 1400
               else np.finfo(float).eps * np.linalg.norm(A + (p * p) * G, 2))
        assert abs(gamma - eig.gamma) <= tol, (p, index)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(admissible_pairs(40)))
def test_reduced_blocks_match_pencil_reference(pair):
    """The Cholesky-reduced blocks give every line the roots, parities and
    targets of the unreduced pencils, and the eigenfunctions of gamma_1(0),
    gamma_2(0), gamma_0(1), gamma_1(m) and gamma_0(n) their samples."""
    params = derive_params(*pair)
    pencils = _reference_pencils(params)
    lines = surface_lines(params)
    for line in lines:
        ref = _reference_line(pencils, line.p)
        assert [(e.parity, e.psi_target) for e in line.eigenvalues] == [
            (parity, target) for _, parity, target in ref]
        got = np.array([e.gamma for e in line.eigenvalues])
        assert np.max(np.abs(got - [g for g, *_ in ref]), initial=0.0) <= 1e-10
    for p, index, parity, target in _ground_states(params):
        eig = lines[p].eigenvalues[index]
        gamma, _, vals = eigenfunction_samples(params, parity, target, p)
        assert abs(gamma - eig.gamma) <= 1e-12
        ref = _reference_samples(params, pencils, p, eig.gamma, eig.parity, 2048)
        assert np.max(np.abs(vals - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert count_zeros(vals) == count_zeros(ref)


#: the flat and large pairs of the coefficient checks, as (r, k) and as (n, m)
LARGE_PAIRS = ((8, 1), (800, 1), (801, 799), (2401, 2400), (4801, 1))


def _series_error(params):
    """Largest |c_l| gap of the nome series against the reference FFT,
    relative to c_0."""
    c = hs._truncation(params)[0]
    return float(np.max(np.abs(c - _fft_cosines(params)[:c.size])) / c[0])


def test_series_coefficients_match_fft():
    """The nome series of dn^2 gives the FFT's cosine coefficients of f
    within 1e-15 c_0 at every pair with r <= 40 and at the flat and large
    pairs, whose nome q runs from 2.7e-9 to 0.37."""
    params = ([derive_params(*pair) for pair in admissible_pairs(40) + list(LARGE_PAIRS)]
              + [params_from_nm(*pair) for pair in LARGE_PAIRS])
    worst = max((_series_error(p), str(p)) for p in params)
    assert worst[0] <= 1e-15, worst


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([(2 * r - 1, 1) for r in range(701, 6002)])
       | st.sampled_from([(r, r - 1) for r in range(1400, 6001)]))
@example((1752, 1751))
@example((2045, 2044))
@example((5694, 5693))
def test_series_coefficients_on_flat_profiles(nm):
    """Nearly flat profiles (n, m) = (2r-1, 1) and (r, r-1) with n >= 1400:
    the series agrees with the FFT within 8 ulps of max f = (n^2+m^2)/2,
    the largest sample the FFT reads, and resolves f within the tail bound.

    Both routes round at that scale: over every pair of the strategy, and
    over (r, r-1) for r < 1400, the gap is at most 4 such ulps, while 264
    of the (r, r-1) pairs, among them the three examples, exceed 1e-15 c_0
    (2.0e-15 c_0 at (5694, 5693))."""
    n, m = nm
    params = params_from_nm(n, m)
    assert params.n >= 1400
    c = hs._truncation(params)[0]
    gap = np.max(np.abs(c - _fft_cosines(params)[:c.size]))
    assert gap <= 8 * math.ulp((n * n + m * m) / 2.0)
    modes = (c.size - 1) // 4
    assert abs(c[2 * modes]) <= hs.TAIL_BOUND * c[0]


def test_blocks_read_no_sample_of_f(monkeypatch):
    """The blocks take f's coefficients from the series alone, so a cold
    rank report makes no call to f or to a Jacobi function."""
    def boom(*args, **kwargs):
        raise AssertionError("f or a Jacobi function called on the rank path")

    monkeypatch.setattr(hs, "metric_f_array", boom)
    hs._galerkin_blocks.__wrapped__(P31)
    monkeypatch.setattr(sm, "jacobi_sncndn", boom)
    monkeypatch.setattr(sm, "jacobi_am", boom)
    hs._galerkin_blocks.cache_clear()
    assert extremal_rank(8, 1).rank_i == 30


def _below_two(params):
    """(count, contributing) below lambda = 2 from the cluster certificate,
    as extremal_rank takes them."""
    return hs._count_below(params, hs._cluster(params)[0])


def _at_two(params):
    """(multiplicity, cluster) at lambda = 2, as extremal_rank takes them."""
    return hs._multiplicity(params, hs._cluster(params)[0])


def test_closed_form_count_is_the_rank_formula():
    """_count_below accepts only the closed form 2(n+m) - 3 (torus) or
    n+m - 3 (Klein bottle), and one more is rank_formula for every pair
    that derive_params gives: extremal_rank needs no check of its own."""
    for pair in admissible_pairs(200):
        params = derive_params(*pair)
        n, m = params.n, params.m
        closed = 2 * (n + m) - 3 if params.topology is Topology.TORUS else n + m - 3
        assert closed + 1 == rank_formula(params), pair


def test_certified_cluster_gives_the_closed_forms(monkeypatch):
    """Given the certificate, the count is the closed form 2(n+m) - 3
    (torus) or n+m - 3 (Klein bottle) and the multiplicity is 5, for every
    pair that derive_params gives and for each Klein bottle's torus cover:
    the count and the multiplicity need no check of their own.  The blocks
    carry the exact cluster, mu = p^2 on line p = 0, m, n, and -n^2 else."""
    def exact_blocks(params):
        mu = np.full((len(hs.BLOCKS), hs.N_MODES), -float(params.n ** 2))
        for block, p in zip(hs.CLUSTER, (0, params.m, params.n)):
            mu[hs.BLOCKS.index(block), -1] = p * p
        return hs._Blocks(None, None, None, None, mu, None, None)

    monkeypatch.setattr(hs, "_galerkin_blocks", exact_blocks)
    for pair in admissible_pairs(200):
        params = derive_params(*pair)
        n, m = params.n, params.m
        for topology in {params.topology, Topology.TORUS}:
            closed = 2 * (n + m) - 3 if topology is Topology.TORUS else n + m - 3
            assert _below_two(replace(params, topology=topology))[0] == closed, pair
        assert _at_two(params)[0] == 5, pair


def test_spectrum_needs_no_scipy_linalg(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise AssertionError("scipy.linalg on a production path")

    monkeypatch.setattr(scipy.linalg, "eigh", boom)
    monkeypatch.setattr(scipy.linalg, "eigvalsh", boom)
    hs._galerkin_blocks.cache_clear()
    assert extremal_rank(8, 1).rank_i == 30
    out = tmp_path / "lines.json"
    assert main(["spectrum", "--r", "5", "--k", "2", "--format", "json",
                 "--out", str(out)]) == 0
    _, _, vals = eigenfunction_samples(P31, Parity.EVEN, -2.0, 0)
    assert count_zeros(vals) == 2


class TestCounting:
    def test_count_torus_3_1(self):
        count, contributing = _below_two(P31)
        assert count == 5
        assert sum(w for *_, w in contributing) == 5

    def test_count_klein_4_1(self):
        p41 = params_from_nm(4, 1)      # (r, k) = (5, 3)
        count, _ = _below_two(p41)
        assert count == 2

    def test_double_cover_of_klein(self):
        count, _ = _below_two(replace(P21, topology=Topology.TORUS))
        assert count == 3               # first index 2(n+m-1) = 4

    def test_lost_member_raises_with_each_blocks_mu(self, monkeypatch):
        # with no tolerance the member mu = 0 of (n, m) = (2, 1), rounded off 0, fails
        # the certificate, whose message names the gap, the bound and mu
        monkeypatch.setattr(hs, "CLUSTER_TOL", 0.0)
        with pytest.raises(hs.SpectrumMismatchError) as exc:
            _below_two(P21)
        msg = str(exc.value)
        assert msg.startswith("no cluster at lambda = 2 for ")
        assert "worst gap |mu - p^2| = " in msg and "bound 0 n^2" in msg
        for block in ("(Even, Psi=+2) ", "(Even, Psi=-2) ", "(Odd, Psi=+2) ",
                      "(Odd, Psi=-2) "):
            assert block in msg

    def test_next_mu_above_zero_raises(self, monkeypatch):
        """A mu outside the cluster at +0.5 n^2 would be one more root below
        2 on line 0: extremal_rank raises and names the gap, the next mu
        and the bound."""
        blocks = hs._galerkin_blocks(P31)
        mu = blocks.mu.copy()
        mu[hs.BLOCKS.index((Parity.ODD, 2.0)), -1] = 0.5 * P31.n ** 2
        monkeypatch.setattr(hs, "_galerkin_blocks", lambda params: blocks._replace(mu=mu))
        with pytest.raises(hs.SpectrumMismatchError) as exc:
            extremal_rank(P31.r, P31.k)
        msg = str(exc.value)
        assert "worst gap |mu - p^2| = " in msg
        assert "next mu = 5.000e-01 n^2" in msg
        assert "bound 1e-12 n^2" in msg

    def test_multiplicity_cluster(self):
        mult, cluster = _at_two(P31)
        assert mult == 5
        points = {(p, i) for p, i, *_ in cluster}
        assert points == {(0, 2), (P31.m, 1), (P31.n, 0)}

    @pytest.mark.parametrize("r,k,rank", [(2, 1, 6), (5, 3, 3), (5, 1, 8)])
    def test_extremal_rank_examples(self, r, k, rank):
        rep = extremal_rank(r, k)
        assert rep.rank_i == rank
        assert rep.multiplicity == 5

    def test_rank_formula_table(self):
        for r, k in admissible_pairs(6):
            params = derive_params(r, k)
            rk = r * k
            if rk % 2 == 0:
                assert rank_formula(params) == 4 * r - 2
            elif rk % 4 == 1:
                assert rank_formula(params) == 2 * r - 2
            else:
                assert rank_formula(params) == r - 2

    def test_lambda_functional_closed_forms(self):
        from lawson_bipolar.special_functions import EllipticModulus, complete_E
        rep = extremal_rank(3, 1)
        assert rep.lambda_functional == pytest.approx(
            12.0 * math.pi * complete_E(EllipticModulus.from_k(2 * math.sqrt(2) / 3)),
            rel=1e-12)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(admissible_pairs(200)))
def test_rank_properties_beyond_table(pair):
    rep = extremal_rank(*pair)
    params = rep.params
    assert rep.rank_i == rank_formula(params)
    assert rep.multiplicity == 5
    for key, value in rep.residuals.items():
        if key.startswith("anchor"):
            assert value < 1e-7, key
    if params.topology is Topology.KLEIN_BOTTLE:
        cover, _ = _below_two(replace(params, topology=Topology.TORUS))
        assert cover == 2 * (params.n + params.m) - 3


def _line_scan_count(params, topology):
    """The count by scanning every line p = 0..n+1: the located roots the
    topology keeps, weighted 1 at p = 0 and 2 beyond, counted in
    [1e-6, 2 - 1e-6) and in the cluster within 1e-6 of 2.  Returns the
    counted weight per (parity, psi_target) block and the cluster as
    {(p, branch_index, weight)}."""
    selected = [(int(line.p), e, 1 if line.p == 0 else 2)
                for line in surface_lines(params) for e in line.eigenvalues
                if hs._keeps(e.parity, int(line.p), topology)]
    blocks = Counter()
    for _, e, w in selected:
        if 1e-6 <= e.gamma < 2.0 - 1e-6:
            blocks[e.parity.value, e.psi_target] += w
    cluster = {(p, e.index, w) for p, e, w in selected if abs(e.gamma - 2.0) <= 1e-6}
    return blocks, cluster


@pytest.mark.parametrize("pair", admissible_pairs(12), ids=str)
def test_inertia_matches_line_scan(pair):
    """The count by inertia gives each block the weight of the line scan,
    on the surface and on the torus cover of a Klein bottle, and the
    cluster the scan's points and weights."""
    params = derive_params(*pair)
    for topology in {params.topology, Topology.TORUS}:
        blocks, _ = _line_scan_count(params, topology)
        count, contributing = _below_two(replace(params, topology=topology))
        got = Counter()
        for parity, target, _, w in contributing:
            got[parity, target] += w
        assert got == blocks
        assert count == sum(blocks.values())
    _, cluster = _line_scan_count(params, params.topology)
    mult, got = _at_two(params)
    assert {(p, i, w) for p, i, *_, w in got} == cluster
    assert mult == sum(w for *_, w in cluster) == 5


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([(r, r - 1) for r in range(701, 3001)])
       | st.sampled_from([(r, 1) for r in range(2799, 12002, 2)]))
def test_rank_by_inertia_at_large_n(pair):
    """Flat profiles (r, r-1) and the pairs (r, 1) with n >= 1400, where
    lambda windows of fixed width miscount: the three largest mu are the
    squares n^2, m^2 and 0 of the profile, and the next lies far below."""
    rep = extremal_rank(*pair)
    params = rep.params
    n2 = params.n ** 2
    assert params.n >= 1400
    assert rep.rank_i == rank_formula(params)
    assert rep.multiplicity == 5
    for key, value in rep.residuals.items():
        if key.startswith("anchor"):
            assert value < 1e-7, key
    mu = np.sort(hs._galerkin_blocks(params).mu.ravel())[::-1]
    assert np.all(np.abs(mu[:3] - [n2, params.m ** 2, 0]) <= hs.CLUSTER_TOL * n2)
    assert mu[3] < -0.1 * n2
    assert rep.cluster_gap <= hs.CLUSTER_TOL
    assert rep.next_mu == mu[3] / n2


def test_cluster_squares_past_int64(monkeypatch):
    """n = 3162277661 squares past 2^63, where an int64 p^2 wraps and the
    certificate would read a gap of 1.845 n^2.  Given room for its modes,
    the pair gets the formula rank and the multiplicity 5."""
    monkeypatch.setattr(hs, "N_MODES", 400)
    rep = extremal_rank(3162277660, 1)
    assert rep.params.n ** 2 > 2 ** 63
    assert rep.rank_i == rank_formula(rep.params) == 12649110638
    assert rep.multiplicity == 5
    assert rep.cluster_gap <= hs.CLUSTER_TOL


@pytest.mark.parametrize("r, rounds_to_one", [(703752045, True), (10 ** 12, True),
                                               (10 ** 15, False)])
def test_flat_pairs_past_k_prime_one(r, rounds_to_one):
    """The flat pair (r, r-1) has m/n = 1/(2r-1).  From r = 703752045 on,
    sqrt((1 - m/n)(1 + m/n)) can round to 1, as at the first two pairs
    (at 10^15 it is 1 - 2^-53): the nome's K(k') then has k = 1.0 and
    k' = m/n > 0, finite, and rank answers."""
    rep = extremal_rank(r, r - 1)
    assert (rep.params.modulus.k_prime == 1.0) == rounds_to_one
    assert rep.rank_i == rank_formula(rep.params) == 4 * r - 2
    assert (rep.multiplicity, rep.modes) == (5, 6)


@pytest.mark.parametrize("r,k", [(8, 1), (6001, 1)])
def test_extremal_rank_takes_five_eigen_solves(r, k, monkeypatch):
    # whatever n is, the blocks take one stacked eigvalsh for mu, one
    # cholesky and one inv, and the four anchors one stacked eigvalsh
    calls = Counter()
    for name in ("eigvalsh", "cholesky", "inv"):
        def counted(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    hs._galerkin_blocks.cache_clear()
    extremal_rank(r, k)
    assert calls == {"eigvalsh": 2, "cholesky": 1, "inv": 1}


def _per_block_reference(params, modes, c):
    """The blocks of `modes` modes built one at a time from the cosine
    coefficients c of f, as (j, R, A, G, mu) per entry of BLOCKS: the loop
    the stacked build replaced, kept as its reference."""
    a = period_a(params)
    blocks = []
    for parity, sign, first_even in ((Parity.EVEN, 1.0, 0), (Parity.ODD, -1.0, 2)):
        for target, first in ((2.0, first_even), (-2.0, 1)):
            j = first + 2 * np.arange(modes)
            F = c[np.abs(j[:, None] - j)] + sign * c[j[:, None] + j]
            if first == 0:
                F[0] /= math.sqrt(2.0)
                F[:, 0] /= math.sqrt(2.0)
            k2 = (2.0 * math.pi * j / a) ** 2
            mu = np.linalg.eigvalsh(2.0 * F - np.diag(k2))
            R = np.linalg.inv(np.linalg.cholesky(F))
            blocks.append(((parity, target), (j, R, (R * k2) @ R.T, R @ R.T, mu)))
    return blocks


@pytest.mark.parametrize("pairs", [admissible_pairs(40),
                                   [(801, 799), (4801, 1), (1601, 1), (99999, 99998)]],
                         ids=["r<=40", "large-n"])
def test_stacked_blocks_match_per_block_build(pairs):
    """Every array of the stacked record is bit-equal to the per-block
    build, in the order of BLOCKS, and read-only; its nome and tail are
    those of _truncation."""
    for pair in pairs:
        params = derive_params(*pair)
        stacked = hs._galerkin_blocks.__wrapped__(params)
        c, nome, tail = hs._truncation(params)
        reference = _per_block_reference(params, stacked.j.shape[1], c)
        assert [block for block, _ in reference] == list(hs.BLOCKS)
        for b, (_, fields) in enumerate(reference):
            for name, want in zip(stacked._fields, fields):
                got = getattr(stacked, name)
                assert got.dtype == want.dtype and np.array_equal(got[b], want), (pair, b, name)
        assert (stacked.nome, stacked.tail) == (nome, tail), pair
        assert not any(field.flags.writeable for field in stacked[:5])   # the arrays


@pytest.mark.parametrize("pair", [(8, 1), (7, 6), (3, 1)], ids=str)
def test_line_scan_is_one_eigvalsh_bit_equal_to_per_line_solves(pair, monkeypatch):
    """The scan solves all its lines in one batched eigvalsh, and each line
    gets the bits of its own solve of the four blocks."""
    params = derive_params(*pair)
    blocks = hs._galerkin_blocks(params)
    per_line = [np.linalg.eigvalsh(blocks.A + (p * p) * blocks.G) for p in range(params.n + 2)]
    calls = Counter()

    def counted(a, *args, _fn=np.linalg.eigvalsh, **kwargs):
        calls["eigvalsh"] += 1
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    lines = surface_lines(params)
    assert calls == {"eigvalsh": 1}
    for line, gammas in zip(lines, per_line):
        want = sorted(float(g) for row in gammas for g in row[row <= hs.LAMBDA_MAX_COUNT])
        assert [e.gamma for e in line.eigenvalues] == want


def test_report_states_its_truncation():
    """extremal_rank carries the modes of its blocks, the nome and the tail
    they leave, and verify's anchor check states them."""
    report = extremal_rank(8, 1)
    assert report.modes == hs._galerkin_blocks(report.params).j.shape[1] == 14
    assert report.nome == pytest.approx(0.0577865, rel=1e-5)
    assert 0.0 < report.tail <= hs.TAIL_BOUND
    anchors = {c.name: c for c in vf.full_report(8, 1).checks}["branch_anchors"]
    assert anchors.context == (f"14 modes per block at nome q = {report.nome:.3e}, "
                               f"Fourier tail {report.tail:.3e} c_0")


def _cosines_48(params):
    """c_0..c_192 of f from its nome series: the coefficients of a
    48-mode build, whatever modes the profile's nome asks for."""
    q, s, c0 = hs._nome_series(params)
    j = np.arange(1, 97)
    c = np.zeros(193)
    c[0] = c0
    c[2::2] = s * (-1.0) ** j * j * q ** j / (1.0 - q ** (2 * j))
    return c


@settings(max_examples=16, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(admissible_pairs(200))
       | st.sampled_from([(r, r - 1) for r in range(2, 201)])
       | st.sampled_from([(r, 1) for r in range(3, 201, 2)]))
def test_mode_count_from_the_nome_matches_48_modes(pair):
    """The modes the nome asks for give every line the roots of a 48-mode
    build, one block at a time, within 1e-10, and the rank and the
    multiplicity that build's lines count; sampled over r <= 200, with the
    nearly flat profiles (n, m) = (2r-1, 1) and the pairs (r, 1), whose
    m/n tends to 1, drawn as often as the rest."""
    params = derive_params(*pair)
    assert 6 <= hs._galerkin_blocks(params).j.shape[1] <= 48
    reference = _per_block_reference(params, 48, _cosines_48(params))
    A, G = (np.stack([fields[i] for _, fields in reference]) for i in (2, 3))
    p2 = np.square(np.arange(params.n + 2.0))[:, None, None, None]
    below = at_two = 0
    for line, rows in zip(surface_lines(params), np.linalg.eigvalsh(A + p2 * G)):
        p = int(line.p)
        for (parity, target), row in zip(hs.BLOCKS, rows):
            want = row[row <= hs.LAMBDA_MAX_COUNT]
            got = [e.gamma for e in line.eigenvalues if (e.parity, e.psi_target) == (parity, target)]
            assert len(got) == want.size, (p, parity, target)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-10, (p, parity, target)
            if hs._keeps(parity, p, params.topology):
                weight = 1 if p == 0 else 2
                below += weight * int(np.count_nonzero(want < 2.0 - 1e-9))
                at_two += weight * int(np.count_nonzero(np.abs(want - 2.0) <= 1e-9))
    report = extremal_rank(*pair)
    assert (report.rank_i, report.multiplicity) == (below, at_two)


def _simplicity_check(params):
    checks = {c.name: c for c in vf.floquet_structure_checks(params)}
    return checks["simplicity_in_window"]


class TestEigenfunctions:
    def test_zero_counts(self):
        cases = [
            (Parity.ODD, -2.0, 0, 2),    # gamma_1(0), two zeros
            (Parity.EVEN, -2.0, 0, 2),   # gamma_2(0), two zeros
            (Parity.EVEN, 2.0, 1, 0),    # gamma_0(1), ground, no zeros
        ]
        for parity, target, p, expected in cases:
            _, _, vals = eigenfunction_samples(P31, parity, target, p)
            assert count_zeros(vals) == expected

    @pytest.mark.parametrize("r,k", [(3, 1), (2, 1), (8, 1), (7, 6), (5, 2),
                                     (13, 12), (41, 40)])
    def test_anchor_eigenfunctions_are_the_profile(self, r, k):
        # the paper's immersion by eigenfunctions: gamma_2(0), gamma_1(m) and
        # gamma_0(n) = 2 carry phi0, phi1 and phi2, scaled as z1 or z2
        params = derive_params(r, k)
        lines = surface_lines(params)
        at_0 = closed_form_theta(0.0, params)
        for p, index, parity, target, col, scale in (
                (0, 2, Parity.EVEN, -2.0, 0, at_0[0]),
                (params.m, 1, Parity.ODD, -2.0, 1, at_0[4]),
                (params.n, 0, Parity.EVEN, 2.0, 2, at_0[2])):
            gamma, ys, vals = eigenfunction_samples(params, parity, target, p)
            assert abs(gamma - lines[p].eigenvalues[index].gamma) <= 1e-12, (p, index)
            ref = closed_form_theta(ys, params)[:, col] / scale
            assert np.max(np.abs(vals - ref)) <= 1e-10, (p, index)

    def test_count_zeros_helper(self):
        t = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
        assert count_zeros(np.sin(2 * t)) == 4
        assert count_zeros(np.cos(t) + 2.0) == 0
        assert count_zeros(np.sin(t)) == 2

    def test_count_zeros_counts_the_sign_change_across_the_period(self):
        # no sample falls on a zero: the one at y = 0 lies between the
        # last sample and the first
        t = (np.arange(2048) + 0.5) / 2048
        assert count_zeros(np.sin(2 * math.pi * t)) == 2
        assert count_zeros(np.cos(2 * math.pi * t)) == 2
        assert count_zeros(np.sin(4 * math.pi * t)) == 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_p_rejected(self, bad):
        with pytest.raises(ValueError, match="finite p"):
            eigenfunction_samples(P31, Parity.EVEN, 2.0, bad)

    def test_unknown_block_rejected(self):
        with pytest.raises(ValueError, match=r"\(EVEN, \+2\), \(EVEN, -2\), "
                                             r"\(ODD, \+2\), \(ODD, -2\)"):
            eigenfunction_samples(P31, Parity.EVEN, 0.0, 0)

    @pytest.mark.parametrize("values", [[1.0, math.nan, -1.0], [1.0, math.inf], []],
                             ids=["nan", "inf", "empty"])
    def test_count_zeros_rejects_empty_or_non_finite(self, values):
        with pytest.raises(ValueError, match="non-empty array of finite"):
            count_zeros(np.array(values))

    @pytest.mark.parametrize("pair", admissible_pairs(12))
    def test_fft_samples_are_the_direct_sum(self, pair):
        # Horner's rule sums the series R^T w that the cos/sin matrices
        # sum, on every block and on lines 0, 1, m and n
        params = derive_params(*pair)
        a = period_a(params)
        blocks = hs._galerkin_blocks(params)
        for (parity, target), j, R, A, G in zip(hs.BLOCKS, blocks.j, blocks.R,
                                                  blocks.A, blocks.G):
            for p in sorted({0, 1, params.m, params.n}):
                gamma, ys, vals = eigenfunction_samples(params, parity, target, p)
                w, v = np.linalg.eigh(A + (p * p) * G)
                coef = R.T @ v[:, 0]
                k = 2.0 * math.pi * j / a
                if parity is Parity.EVEN:
                    coef = np.where(j == 0, coef / math.sqrt(2.0), coef)
                    ref = np.cos(np.outer(ys, k)) @ coef / coef.sum()
                else:
                    ref = np.sin(np.outer(ys, k)) @ coef / (k @ coef)
                assert gamma == float(w[0])
                assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref)), (
                    parity, target, p)
                assert count_zeros(vals) == count_zeros(ref), (parity, target, p)

    @pytest.mark.parametrize("pair", admissible_pairs(12))
    def test_zero_counts_are_those_of_the_inverse_fft(self, pair):
        # numpy.fft.irfft of the coefficients, the route the samples took
        # before Horner's rule, counts the same zeros on every block and on
        # lines 0, 1, m and n
        params = derive_params(*pair)
        n = hs.EIGENFUNCTION_SAMPLES
        blocks = hs._galerkin_blocks(params)
        for (parity, target), j, R, A, G in zip(hs.BLOCKS, blocks.j, blocks.R,
                                                  blocks.A, blocks.G):
            for p in sorted({0, 1, params.m, params.n}):
                _, _, vals = eigenfunction_samples(params, parity, target, p)
                coef = R.T @ np.linalg.eigh(A + (p * p) * G)[1][:, 0]
                spectrum = np.zeros(n // 2 + 1, complex)
                if parity is Parity.EVEN:
                    coef = np.where(j == 0, coef / math.sqrt(2.0), coef)
                    spectrum[j] = coef
                    spectrum[0] *= 2.0
                else:
                    spectrum[j] = -1j * coef
                ref = np.fft.irfft(spectrum, n)
                assert count_zeros(vals) == count_zeros(ref), (parity, target, p)

    def test_modes_stay_below_the_sample_nyquist_index(self):
        # a mode index at or past N/2 would alias on the N-point grid; the
        # indices depend on N_MODES alone, 96 at most today
        assert int(hs._galerkin_blocks(P31).j.max()) < hs.EIGENFUNCTION_SAMPLES // 2

    def test_simplicity_in_window(self):
        # the check's residual is the largest own entry at b/2 over the
        # located roots, plus 1 for any flag
        check = _simplicity_check(P31)
        assert check.residual < 1e-13
        roots = sum(len(line.eigenvalues) for line in surface_lines(P31))
        assert check.context.startswith(f"{roots} roots at b/2: worst own ")

    @pytest.mark.parametrize("r", [160, 300, 800])
    def test_no_unresolved_parity_on_flat_profiles(self, r):
        # roots accurate to rounding keep the own entry at b/2 under the
        # floor, relative to the pair's largest entry whatever p is
        check = _simplicity_check(derive_params(r, 1))
        assert check.passed, check.context

    def test_no_false_coexistence_past_n_1415(self):
        # (801, 800) -> (1601, 1): gamma_2(0) - gamma_1(0) is 2/n^2 = 7.8e-7,
        # two simple roots of blocks (EVEN, -2) and (ODD, -2), each with its
        # partner's entry far above the floor
        check = _simplicity_check(derive_params(801, 800))
        assert check.passed, check.context[:500]
        partner = float(check.context.split("smallest partner ")[1].split(",")[0])
        assert partner > 1e-8


def _count_zeros_loop(values, rel_tol=1e-9):
    """Sample-by-sample reference for count_zeros on one period: a zero run
    counts once, a sign change counts only between adjacent nonzero
    samples, and the last sample is adjacent to the first.  The loop walks
    the cycle from a nonzero sample back to it."""
    scale = float(np.max(np.abs(values)))
    start = next((i for i, v in enumerate(values) if abs(v) > rel_tol * scale), None)
    if start is None:
        return 1
    zeros = 0
    last_sign = 0
    after_zero_run = False
    in_zero_run = False
    for v in [*values[start:], *values[:start + 1]]:
        if abs(v) <= rel_tol * scale:
            if not in_zero_run:
                zeros += 1
                in_zero_run = True
                after_zero_run = True
            continue
        in_zero_run = False
        s = 1 if v > 0 else -1
        if last_sign != 0 and s != last_sign and not after_zero_run:
            zeros += 1
        last_sign = s
        after_zero_run = False
    return zeros


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.sampled_from([0.0, 1e-12, -1e-12, 0.5, -0.5, 1.0, -1.0, 3.0, -2.0]),
                min_size=1, max_size=40))
@example([0.0, 0.0, 0.0])
@example([0.0, 1.0, -1.0, 0.0])
@example([1.0, 0.0, 1e-12, -1.0, 1.0])
@example([0.0, 1.0, -1.0, 1e-12])
@example([-1.0, 2.0, 1.0])
def test_count_zeros_matches_loop_reference(values):
    """Zero runs (1e-12 is below the relative threshold), zeros at either
    end and a zero run across both, all-zero arrays, sign flips right
    after a zero run and between the last sample and the first."""
    arr = np.array(values)
    assert count_zeros(arr) == _count_zeros_loop(arr)
