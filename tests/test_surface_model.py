"""Tests for the parameter map, immersions, metrics, and chart changes.

Oracles: quadrature of the defining integrals (a spline-inverted
Gauss-Legendre table for theta(y)), finite-difference first fundamental
forms, scipy's incomplete elliptic integral for the H1 substitution, and
the wedge-product construction for the printed immersion columns.
"""

import csv
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as ss
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from lawson_bipolar.phi_system import (
    closed_form_theta,
    closed_form_weierstrass,
    weierstrass_tables_exact,
)
from lawson_bipolar.special_functions import (
    DomainError,
    PoleProximityError,
    complete_E,
    complete_K,
    jacobi_am,
    jacobi_sncndn,
    weierstrass_p,
)
from lawson_bipolar import surface_model as sm
from lawson_bipolar.surface_model import (
    EXCLUDED_DIRECTION_NOTE,
    ExcludedDirectionError,
    InvalidParametersError,
    ParityClass,
    Topology,
    admissible_pairs,
    area_closed_form,
    bipolar_column,
    bipolar_immersion,
    bipolar_metric,
    derive_params,
    immersion_blocks,
    immersion_rows,
    klein_deck_map,
    metric_f_array,
    period_a,
    v_of_z,
    write_immersion_csv,
    write_immersion_json,
    z_of_v,
)

from pairs import params_from_nm


class TestDeriveParams:
    @pytest.mark.parametrize("r,k,n,m,topo", [
        (2, 1, 3, 1, Topology.TORUS),
        (3, 1, 2, 1, Topology.KLEIN_BOTTLE),
        (5, 1, 3, 2, Topology.TORUS),
        (5, 3, 4, 1, Topology.KLEIN_BOTTLE),
        (8, 7, 15, 1, Topology.TORUS),
    ])
    def test_examples(self, r, k, n, m, topo):
        p = derive_params(r, k)
        assert (p.n, p.m, p.topology) == (n, m, topo)

    @pytest.mark.parametrize("r,k", [(4, 2), (2, 3), (1, 1), (3, 0), (6, 3)])
    def test_rejects_inadmissible(self, r, k):
        with pytest.raises(InvalidParametersError):
            derive_params(r, k)

    def test_topology_rule_exact(self):
        for r, k in admissible_pairs(8):
            p = derive_params(r, k)
            assert (p.topology is Topology.KLEIN_BOTTLE) == (r * k % 4 == 3)
            assert p.n > p.m >= 1
            assert math.gcd(p.n, p.m) == 1

    def test_parity_class_matches_nm_parities(self):
        for r, k in admissible_pairs(8):
            p = derive_params(r, k)
            assert (p.parity_class is ParityClass.RK_3_MOD_4) == (
                p.n % 2 == 0 and p.m % 2 == 1)

    def test_from_nm_round_trip(self):
        for r, k in admissible_pairs(8):
            p = derive_params(r, k)
            assert params_from_nm(p.n, p.m) == p

    def test_moduli_are_built_once(self):
        p = derive_params(8, 1)
        assert p.modulus is p.modulus
        assert p.h_modulus is p.h_modulus
        # the cached moduli do not enter equality or the hash
        fresh = derive_params(8, 1)
        assert fresh == p and hash(fresh) == hash(p)
        assert fresh.modulus == p.modulus and fresh.modulus is not p.modulus


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _theta_quadrature(params):
    """Reference theta(y) as a function of y: the defining integral
    y(theta) accumulated by 8-point Gauss-Legendre over 2048 cells of one
    period, inverted by a cubic spline."""
    n, alpha2 = params.n, (params.m / params.n) ** 2
    grid = np.linspace(0.0, 2.0 * math.pi, 2049)
    mid, half = 0.5 * (grid[1:] + grid[:-1]), 0.5 * np.diff(grid)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    cells = half * ((1.0 / (n * np.sqrt(1.0 - alpha2 * np.cos(nodes) ** 2))) @ _GL_WEIGHTS)
    y_grid = np.concatenate(([0.0], np.cumsum(cells)))
    spline, a = CubicSpline(y_grid, grid), y_grid[-1]

    def theta(y):
        cycles = math.floor(y / a)
        return float(spline(y - cycles * a)) + 2.0 * math.pi * cycles

    return theta


class TestPeriodAndTheta:
    def test_period_formula(self):
        p = params_from_nm(2, 1)
        assert period_a(p) == pytest.approx(2.0 * complete_K(p.modulus), abs=1e-15)

    def test_degenerate_modulus_formula(self):
        # the (n, m) = (1, 0) limit of a = (4/n) K(m/n) collapses to 2 pi
        from lawson_bipolar.special_functions import EllipticModulus
        assert 4.0 * complete_K(EllipticModulus.from_k(0.0)) == pytest.approx(
            2.0 * math.pi, abs=1e-14)

    def test_period_against_quadrature(self):
        p = params_from_nm(3, 1)
        oracle, _ = quad(
            lambda t: 1.0 / (3.0 * math.sqrt(1.0 - (1 / 3) ** 2 * math.cos(t) ** 2)),
            0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-13)
        assert period_a(p) == pytest.approx(oracle, abs=1e-12)

    def test_theta_anchors(self):
        # theta(0) = 0 and theta(a/4) = pi/2, read through
        # phi0 = c0 cos(theta) and phi1 = sin(theta)/sqrt(2)
        p = params_from_nm(2, 1)
        a = period_a(p)
        c0 = math.sqrt(5.0 / 8.0)
        phi0, phi1 = closed_form_theta(0.0, p)[:2]
        assert phi0 == pytest.approx(c0, abs=1e-14)
        assert phi1 == pytest.approx(0.0, abs=1e-14)
        phi0, phi1 = closed_form_theta(a / 4.0, p)[:2]
        assert phi0 == pytest.approx(0.0, abs=1e-12)
        assert phi1 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_theta_quadrature_cross_residual(self):
        for nm in [(2, 1), (3, 2), (9, 7)]:
            p = params_from_nm(*nm)
            a = period_a(p)
            c0 = math.sqrt((p.n ** 2 + p.m ** 2) / (2.0 * p.n ** 2))
            theta_ref = _theta_quadrature(p)
            for y in np.linspace(-0.3 * a, 1.4 * a, 61):
                phi0, phi1 = closed_form_theta(y, p)[:2]
                th = theta_ref(y)
                assert abs(phi0 - c0 * math.cos(th)) < 1e-10
                assert abs(phi1 - math.sin(th) / math.sqrt(2.0)) < 1e-10

    def test_metric_anchor_values(self):
        p = params_from_nm(2, 1)
        a = period_a(p)
        n2, m2 = 4.0, 1.0
        assert float(metric_f_array(0.0, p)) == pytest.approx((n2 - m2) / 2, abs=1e-12)
        assert float(metric_f_array(a / 4, p)) == pytest.approx((n2 + m2) / 2, abs=1e-12)

    def test_metric_symmetries(self):
        p = params_from_nm(3, 2)
        a = period_a(p)
        for y in np.linspace(0.0, a, 17):
            f = float(metric_f_array(y, p))
            assert f > 0.0
            assert float(metric_f_array(-y, p)) == pytest.approx(f, abs=1e-12)
            assert float(metric_f_array(y + a / 2, p)) == pytest.approx(f, abs=1e-12)

    def test_area_integral_identity(self):
        # 2 pi * integral of f over one period = 4 pi (n+m) E(2 sqrt(mn)/(m+n))
        p = params_from_nm(2, 1)
        a = period_a(p)
        integral, _ = quad(lambda y: float(metric_f_array(y, p)), 0.0, a,
                           epsabs=1e-13, epsrel=1e-13, limit=200)
        closed = 4.0 * math.pi * 3.0 * complete_E(p.h_modulus)
        assert 2.0 * math.pi * integral == pytest.approx(closed, abs=1e-10)


def _fd_partial(fun, x, h=1e-5):
    return (8.0 * (fun(x + h) - fun(x - h)) - (fun(x + 2 * h) - fun(x - 2 * h))) / (12.0 * h)


def _lawson_frame(u, v, r, k):
    """Lawson's immersion I of tau_{r,k} into S^3 and its unit normal N
    tangent to S^3, as 4-vectors."""
    I, N = sm._frame(sm._u_factors(u, r, k), sm._v_factors(v, r, k))
    return np.array(I), np.array(N)


class TestLawsonImmersion:
    def test_base_point(self):
        np.testing.assert_allclose(_lawson_frame(0.0, 0.0, 2, 1)[0], [1, 0, 0, 0],
                                   atol=1e-15)

    def test_unit_norm_and_normal(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            u, v = rng.uniform(0, 2 * math.pi, 2)
            I, N = _lawson_frame(u, v, 3, 2)
            assert abs(I @ I - 1.0) < 1e-14
            assert abs(N @ N - 1.0) < 1e-13
            assert abs(I @ N) < 1e-13

    def test_induced_metric_by_finite_differences(self):
        rng = np.random.default_rng(29)
        r, k = 3, 2
        for _ in range(30):
            u, v = rng.uniform(0.1, 2.9, 2)
            du = _fd_partial(lambda t: _lawson_frame(t, v, r, k)[0], u)
            dv = _fd_partial(lambda t: _lawson_frame(u, t, r, k)[0], v)
            guu = r * r * math.cos(v) ** 2 + k * k * math.sin(v) ** 2
            assert abs(du @ du - guu) < 1e-6
            assert abs(dv @ dv - 1.0) < 1e-6
            assert abs(du @ dv) < 1e-6


class TestBipolarImmersion:
    def test_orthogonality_and_norm(self):
        rng = np.random.default_rng(31)
        for r, k in [(2, 1), (3, 1), (5, 2)]:
            p = derive_params(r, k)
            for _ in range(200):
                u, v = rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi)
                pt = bipolar_immersion(u, v, p)        # runtime-checks orthogonality
                assert abs(np.linalg.norm(pt) - 1.0) < 1e-13

    def test_wedge_matches_printed_column_even_rk(self):
        p = derive_params(2, 1)
        col = bipolar_column(0.0, 0.0, 2, 1)
        w = bipolar_immersion(0.0, 0.0, p)
        # coordinate slots: (12-plane, c6, c3, c5, c4)
        np.testing.assert_allclose(
            w, [0.0, col[5], col[2], col[4], col[3]], atol=1e-13)

    def test_wedge_matches_printed_column_odd_rk(self):
        rng = np.random.default_rng(37)
        p = derive_params(3, 1)
        kept = np.array([p.m, p.n, 0, 0, 0, 0]) / math.hypot(p.m, p.n)
        for _ in range(200):
            u, v = rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi)
            col = bipolar_column(u, v, 3, 1)
            w = bipolar_immersion(u, v, p)
            expected = [kept @ np.pad(col[:2], (0, 4)),
                        col[5], col[2], col[4], col[3]]
            np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_group_invariance_of_column(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            u, v = rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi)
            base = bipolar_column(u, v, 2, 1)
            np.testing.assert_allclose(bipolar_column(u, v + math.pi, 2, 1),
                                       base, atol=1e-12)
            np.testing.assert_allclose(bipolar_column(u + 2 * math.pi, v, 2, 1),
                                       base, atol=1e-12)


class TestBipolarMetric:
    def test_value_at_v0_odd_chart(self):
        # (n, m) = (2, 1): du^2 coefficient ((n+m)^4 + (n^2-m^2)^2)/(n+m)^2 = 10
        p = derive_params(3, 1)
        guu, gvv = bipolar_metric(0.0, p)
        assert guu == pytest.approx(10.0, abs=1e-12)
        assert gvv == pytest.approx(10.0 / 9.0, abs=1e-12)

    def test_even_chart_carries_quarter_du_factor(self):
        # same (n, m) formula evaluates to 4x the even-rk du^2 coefficient
        p_even = derive_params(2, 1)            # n=3, m=1
        n, m = 3, 1
        for v in np.linspace(0.0, math.pi, 9):
            P = (n + m) ** 2 - 4 * m * n * math.sin(v) ** 2
            Q = (P * P + (n * n - m * m) ** 2) / P
            guu, gvv = bipolar_metric(v, p_even)
            assert guu == pytest.approx(Q / 4.0, rel=1e-13)
            assert gvv == pytest.approx(Q / P, rel=1e-13)

    def test_first_fundamental_form_oracle(self):
        rng = np.random.default_rng(47)
        p = derive_params(3, 1)
        for _ in range(100):
            u, v = rng.uniform(0, 2 * math.pi), rng.uniform(0.05, math.pi - 0.05)
            du = _fd_partial(lambda t: bipolar_column(t, v, 3, 1), u)
            dv = _fd_partial(lambda t: bipolar_column(u, t, 3, 1), v)
            guu, gvv = bipolar_metric(v, p)
            assert abs(du @ du - guu) < 1e-6
            assert abs(dv @ dv - gvv) < 1e-6
            assert abs(du @ dv) < 1e-6


class TestHTransforms:
    def test_h1_at_zero(self):
        p = derive_params(3, 1)
        assert z_of_v(0.0, p) == 0.0

    def test_h2_squared_advances_u_by_pi(self):
        # the deck map twice is H1^-1 o H2 o H2 o H1: (u, v) -> (u + pi, v)
        p = derive_params(3, 1)
        u2, v2 = klein_deck_map(*klein_deck_map(0.3, 0.11, p), p)
        assert u2 == pytest.approx(0.3 + math.pi, abs=1e-15)
        assert v2 == pytest.approx(0.11, abs=1e-15)

    def test_z_of_v_against_scipy(self):
        for nm in [(2, 1), (3, 2), (9, 7)]:
            p = params_from_nm(*nm)
            kh2 = p.h_modulus.k ** 2
            s = p.n + p.m
            for v in np.linspace(-1.0, 4.0, 41):
                oracle = ss.ellipkinc(v, kh2) / s
                assert abs(z_of_v(v, p) - oracle) < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_z_of_v_rejects_non_finite(self, bad):
        p = params_from_nm(2, 1)
        with pytest.raises(DomainError, match="argument must be finite"):
            z_of_v(bad, p)
        with pytest.raises(DomainError, match="argument must be finite"):
            z_of_v(np.array([0.5, bad]), p)

    def test_v_of_z_round_trip(self):
        p = params_from_nm(2, 1)
        for v in np.linspace(0.0, math.pi, 21):
            assert v_of_z(z_of_v(v, p), p) == pytest.approx(v, abs=1e-12)

    def test_h1_period_identity(self):
        # K(2 sqrt(mn)/(n+m))/(n+m) = a/4 (Landen); with k' taken from the
        # rounded k the nearly flat pairs missed by up to 1.2e-11
        for nm in [(2, 1), (4, 1), (20, 19), (199, 198), (1000, 999)]:
            p = params_from_nm(*nm)
            assert complete_K(p.h_modulus) / (p.n + p.m) == pytest.approx(
                period_a(p) / 4.0, rel=1e-15)

    def test_klein_deck_invariance(self):
        rng = np.random.default_rng(53)
        p = derive_params(3, 1)
        for _ in range(100):
            u = rng.uniform(0, 2 * math.pi)
            v = rng.uniform(0.01, math.pi - 0.01)
            u2, v2 = klein_deck_map(u, v, p)
            np.testing.assert_allclose(bipolar_column(u2, v2, 3, 1),
                                       bipolar_column(u, v, 3, 1), atol=1e-9)

    @pytest.mark.parametrize("r,k", [(2, 1), (3, 1)])
    def test_pullback_isometry_on_grid(self, r, k):
        from lawson_bipolar.verification import isometry_checks
        pull, _ = isometry_checks(derive_params(r, k))
        assert pull.passed


#: rows per block of the CSV and the JSON writer: a CSV value takes three
#: words and its separator one, a JSON value one more for its indent
_WRITER_BLOCK_ROWS = [sm._BLOCK_BYTES // (8 * 7 * words) for words in (4, 5)]


class TestAreaAndExport:
    def test_klein_area_is_half(self):
        klein = derive_params(3, 1)
        full = 4.0 * math.pi * 3.0 * complete_E(klein.h_modulus)
        assert area_closed_form(klein) == full / 2.0

    def test_torus_area(self):
        torus = derive_params(2, 1)
        assert area_closed_form(torus) == pytest.approx(
            16.0 * math.pi * complete_E(torus.h_modulus), rel=1e-15)

    def test_immersion_rows_and_writers(self):
        p = derive_params(2, 1)
        rows = immersion_rows(p, 6, 5)
        assert rows.shape == (30, 7)
        norms = np.linalg.norm(rows[:, 2:], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

        buf1, buf2 = io.StringIO(), io.StringIO()
        write_immersion_csv(buf1, p, rows)
        write_immersion_csv(buf2, p, rows)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().splitlines()
        assert lines[0] == "# r=2 k=1 n=3 m=1 topology=Torus"
        assert lines[1] == "u,v,x1,x2,x3,x4,x5"
        assert len(lines) == 32

        jbuf = io.StringIO()
        write_immersion_json(jbuf, p, rows)
        doc = json.loads(jbuf.getvalue())
        assert doc["params"] == {"r": 2, "k": 1, "n": 3, "m": 1}
        assert len(doc["rows"]) == 30

    @pytest.mark.parametrize("n_rows", sorted({0, 1, 9, 2047, 2048, 2049}.union(
        *({b - 1, b, b + 1} for b in _WRITER_BLOCK_ROWS))))
    def test_writers_match_csv_and_json_modules(self, n_rows):
        """The block-streaming writers against csv.writer and
        json.dump(indent=1) with every value rendered by format(x, ".17g"),
        at the block lengths of both writers and across several blocks;
        odd rows hold values of the integer-arithmetic range 1e-4..10."""
        p = derive_params(3, 1)
        rng = np.random.default_rng(47)
        rows = rng.normal(size=(n_rows, 7)) * 10.0 ** rng.integers(-300, 300, (n_rows, 7))
        rows[1::2] = rng.uniform(-10.0, 10.0, rows[1::2].shape)
        if n_rows:
            rows[0, 1:] = [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]
        columns = ["u", "v", "x1", "x2", "x3", "x4", "x5"]

        ref = io.StringIO()
        ref.write("# r=3 k=1 n=2 m=1 topology=KleinBottle\n")
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format(float(x), ".17g") for x in row])
        got = io.StringIO()
        write_immersion_csv(got, p, rows)
        assert got.getvalue() == ref.getvalue()

        doc = {"params": {"r": 3, "k": 1, "n": 2, "m": 1},
               "topology": "KleinBottle", "basis_note": EXCLUDED_DIRECTION_NOTE,
               "columns": columns,
               "rows": [[format(float(x), ".17g") for x in row] for row in rows]}
        got = io.StringIO()
        write_immersion_json(got, p, rows)
        assert got.getvalue() == json.dumps(doc, indent=1) + "\n"

    @pytest.mark.parametrize("writer", [write_immersion_csv, write_immersion_json])
    def test_writer_memory_is_one_block(self, tmp_path, writer):
        """A 256 x 256 mesh is written block by block: no string holds the
        whole document (9-12 MB), and a block's words, their bytes and str
        copies and the renderer's arrays (about 0.4 MiB in all) stay under
        1 MiB."""
        p = derive_params(2, 1)
        rows = immersion_rows(p, 256, 256)
        tracemalloc.start()
        try:
            with open(tmp_path / "mesh", "w") as fh:
                writer(fh, p, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_immersion_memory_is_the_rows_and_one_block(self):
        """immersion_rows holds its output and one block's temporaries at a
        time: its peak allocation is within 1 MiB of the 3.5 MiB of rows."""
        p = derive_params(2, 1)
        tracemalloc.start()
        try:
            rows = immersion_rows(p, 256, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (256 * 256, 7)
        assert peak <= rows.nbytes + 2 ** 20



class TestMeshStream:
    """immersion_blocks yields the rows of immersion_rows in blocks of whole
    rows of v, and the writers render an iterable of blocks as they render
    the one array."""

    @pytest.mark.parametrize("pair, n_u, n_v, sizes", [
        ((2, 1), 1, 1, [1]),                          # grid 1
        ((3, 1), 3000, 1, [2048, 952]),               # n_v = 1, n_u large
        ((7, 6), 5, 1000, [2000, 2000, 1000]),        # a row of v > 512 CSV rows
        ((5, 2), 10, 10, [100]),                      # a mesh inside one block
        ((13, 4), 101, 101, [2020] * 5 + [101]),      # an odd grid, last block short
    ])
    @pytest.mark.parametrize("writer", [write_immersion_csv, write_immersion_json])
    def test_streamed_mesh_is_the_rows(self, writer, pair, n_u, n_v, sizes):
        p = derive_params(*pair)
        rows = immersion_rows(p, n_u, n_v)
        blocks = list(immersion_blocks(p, n_u, n_v))
        assert [len(block) for block in blocks] == sizes
        assert np.array_equal(np.concatenate(blocks), rows)
        want, got = io.StringIO(), io.StringIO()
        writer(want, p, rows)
        writer(got, p, immersion_blocks(p, n_u, n_v))
        assert got.getvalue() == want.getvalue()

    @pytest.mark.parametrize("writer, batches", [(write_immersion_csv, 128),
                                                 (write_immersion_json, 161)])
    def test_batches_span_blocks(self, monkeypatch, writer, batches):
        """A batch takes rows from the next block: the 256 x 256 mesh, in
        blocks of 2048 rows, is rendered in 65536 / 512 CSV batches and
        ceil(65536 / 409) JSON batches, every one full but the last."""
        sizes, render = [], sm._render17

        def counted(x):
            sizes.append(x.size // 7)
            return render(x)

        monkeypatch.setattr(sm, "_render17", counted)
        p = derive_params(5, 2)
        writer(io.StringIO(), p, immersion_blocks(p, 256, 256))
        step = _WRITER_BLOCK_ROWS[writer is write_immersion_json]
        assert len(sizes) == batches == -(-256 * 256 // step)
        assert set(sizes[:-1]) == {step}

    @pytest.mark.parametrize("writer", [write_immersion_csv, write_immersion_json])
    def test_writers_take_any_split_of_the_rows(self, writer):
        """Empty blocks write nothing, and no blocks at all write the
        document of no rows."""
        p = derive_params(3, 1)
        rows = immersion_rows(p, 9, 7)
        want = io.StringIO()
        writer(want, p, rows)
        for cuts in ([0], [63], [1, 1, 62], [20, 40], list(range(1, 63))):
            got = io.StringIO()
            writer(got, p, np.split(rows, cuts))
            assert got.getvalue() == want.getvalue(), cuts
        want, got = io.StringIO(), io.StringIO()
        writer(want, p, rows[:0])
        writer(got, p, iter([]))
        assert got.getvalue() == want.getvalue()


def _rendered(values):
    words = sm._render17(np.asarray(values, float))
    return [w.tobytes().replace(b"\0", b"").decode() for w in words]


def _edge_values():
    """Powers of ten and their neighbours one ulp away; short decimals whose
    nearest double lies just below them, so that the 17-digit rounding
    carries through a run of nines (1.7 -> "1.7"); and exact half-way ties
    of the 17th digit at every exponent of the integer-arithmetic range."""
    values = []
    for j in range(-6, 3):
        t = float(f"1e{j}")
        values += [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)]
    for j in range(5):
        for d in range(1, 100):
            t = d / 10 ** j
            values += [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)]
    for j in range(5):
        # x = odd / 2^(17+j) puts x 10^(16+j) half-way between integers
        lo = math.ceil(10.0 ** -j * 2 ** (17 + j))
        ties = [k / 2 ** (17 + j) for k in range(lo | 1, lo + 400, 2)]
        assert all(Fraction(x) * 10 ** (16 + j) % 1 == Fraction(1, 2) for x in ties)
        values += ties
    return values + [-x for x in values]


def _carries(x: float) -> bool:
    """The 17-digit rounding of x rounds up to fewer significant digits."""
    text = format(x, ".17g")
    return Fraction(text) > Fraction(x) > 0 and len(text.replace(".", "").strip("0")) < 17


class TestRender17:
    """The integer-arithmetic %.17g renderer against format(x, ".17g")."""

    def test_edge_values(self):
        values = _edge_values()
        assert sum(map(_carries, values)) > 20
        assert _rendered(values) == [format(x, ".17g") for x in values]

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_any_double(self, values):
        assert _rendered(values) == [format(x, ".17g") for x in values]

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.tuples(st.floats(1e-4, 10.0, exclude_max=True), st.booleans()),
                    min_size=1, max_size=64))
    def test_integer_arithmetic_range(self, signed):
        values = [-x if neg else x for x, neg in signed]
        assert _rendered(values) == [format(x, ".17g") for x in values]

    @pytest.mark.parametrize("j", range(5))
    def test_largest_double_below_each_decade(self, j):
        """The largest double below 10^(1-j) keeps its j: N would reach
        10^17 only within 5e-18 |x| below the power, and this double lies
        further off, so no value of the range steps to the next decade."""
        power = Fraction(10) ** (1 - j)
        x = math.nextafter(float(power), 0.0)
        assert Fraction(x) < power <= Fraction(math.nextafter(x, math.inf))
        assert Fraction(x) * 10 ** (16 + j) < 10 ** 17 - Fraction(1, 2)
        assert _rendered([x, -x]) == [format(x, ".17g"), format(-x, ".17g")]

    @pytest.mark.parametrize("zeros, values", [
        (4, [4097 / 4096, 4097 / 8192]), (8, [257 / 256, 257 / 512]),
        (12, [17 / 16, 17 / 32]), (16, [3.0, 0.5])])
    def test_trailing_zero_groups(self, zeros, values):
        """17 digits ending in 4, 8, 12 or 16 zeros, at j = 0 and j = 1,
        both signs: the zeros of g4 run on into g3, g2 and g1, and past all
        four the point of j = 0 goes too ("3", not "3.")."""
        for x in values:
            digits = str(Fraction(x) * 10 ** (16 + (x < 1)))
            assert len(digits) - len(digits.rstrip("0")) == zeros, x
        values = values + [-x for x in values]
        assert _rendered(values) == [format(x, ".17g") for x in values]

    def test_range_ends_and_signed_zero(self):
        """The neighbours of 1e-4 and of 10, the ends of the integer-
        arithmetic range, and both zeros."""
        values = [math.nextafter(t, to) for t in (1e-4, 10.0) for to in (0.0, t, math.inf)]
        values += [-x for x in values] + [0.0, -0.0]
        assert _rendered(values) == [format(x, ".17g") for x in values]
        assert _rendered([-0.0]) == ["-0"]


class TestExcludedDirectionGuard:
    def test_every_row_is_checked(self):
        r, k = 2, 1
        w6 = np.zeros((6, 40))
        w6[5] = 1.0
        excluded = np.array([r + k, k - r]) / math.hypot(r + k, r - k)
        w6[:2, 33] = 1e-9 * excluded
        w6[:2, 37] = 1e-6 * excluded
        u = np.arange(40) * 0.1
        v = np.arange(40) * 0.01
        with pytest.raises(ExcludedDirectionError) as info:
            sm._project5(w6, r, k, u, v)
        assert (info.value.u, info.value.v) == (u[37], v[37])
        assert info.value.residual == pytest.approx(1e-6, rel=1e-12)
        assert "at (u, v) = (3.7" in str(info.value)

    def test_mesh_names_its_worst_row(self, monkeypatch):
        """A row of a late block of immersion_rows tilted towards the
        excluded direction is named, though an earlier block holds a
        smaller tilt, and every block is checked."""
        r, k, n = 2, 1, 256
        step = sm._BLOCK_POINTS // n
        blocks = n // step
        excluded = np.array([r + k, k - r]) / math.hypot(r + k, r - k)
        # block -> (u row within the block, v column, tilt)
        tilts = {1: (2, 40, 1e-9), blocks - 2: (step - 1, 200, 1e-6)}
        rotated_wedge, calls = sm._rotated_wedge, []

        def tilted(u_factors, v_factors):
            w6 = rotated_wedge(u_factors, v_factors)
            if len(calls) in tilts:
                i, j, size = tilts[len(calls)]
                w6[:2, i, j] += size * excluded
            calls.append(w6.shape)
            return w6

        monkeypatch.setattr(sm, "_rotated_wedge", tilted)
        with pytest.raises(ExcludedDirectionError) as info:
            immersion_rows(derive_params(r, k), n, n)
        assert calls == [(6, step, n)] * blocks
        u = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)[(blocks - 1) * step - 1]
        v = np.linspace(0.0, math.pi, n, endpoint=False)[200]
        assert (info.value.u, info.value.v) == (u, v)
        assert info.value.residual == pytest.approx(1e-6, rel=1e-9)

    def test_projection_passes_orthogonal_rows(self):
        rng = np.random.default_rng(53)
        u, v = rng.uniform(0, 2 * math.pi, 64), rng.uniform(0, math.pi, 64)
        pts = bipolar_immersion(u, v, derive_params(7, 6))
        assert pts.shape == (64, 5)


def _scalar_immersion(u, v, r, k):
    """Point-by-point reference: the scalar math construction the array
    path replaced, same operations in the same order."""
    lawson = np.array([math.cos(r * u) * math.cos(v), math.sin(r * u) * math.cos(v),
                       math.cos(k * u) * math.sin(v), math.sin(k * u) * math.sin(v)])
    cv, sv = math.cos(v), math.sin(v)
    w = math.sqrt(r * r * (cv * cv) + k * k * (sv * sv))
    normal = np.array([k * math.sin(r * u) * math.sin(v), -k * math.cos(r * u) * math.sin(v),
                       -r * math.sin(k * u) * math.cos(v), r * math.cos(k * u) * math.cos(v)]) / w
    wedge = sm._wedge6(lawson, normal).tolist()
    w6 = []
    for a, b in zip(wedge[0::2], wedge[1::2]):
        w6 += [(a + b) / math.sqrt(2.0), (b - a) / math.sqrt(2.0)]
    norm = math.hypot(r + k, r - k)
    kept = (r - k) / norm * w6[0] + (r + k) / norm * w6[1]
    return np.array([kept, w6[5], w6[2], w6[4], w6[3]])


@pytest.mark.parametrize("r, k", [(2, 1), (3, 1), (7, 6), (13, 4)])
def test_array_path_matches_scalar_reference(r, k):
    rng = np.random.default_rng(59)
    u, v = rng.uniform(-20.0, 20.0, 20000), rng.uniform(-10.0, 10.0, 20000)
    got = bipolar_immersion(u, v, derive_params(r, k))
    want = np.array([_scalar_immersion(a, b, r, k) for a, b in zip(u.tolist(), v.tolist())])
    assert np.array_equal(got, want)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(admissible_pairs(20)), st.integers(1, 12), st.integers(1, 12))
def test_immersion_rows_match_pointwise(pair, n_u, n_v):
    """The vectorized mesh is the point-by-point immersion, bit for bit."""
    params = derive_params(*pair)
    rows = immersion_rows(params, n_u, n_v)
    assert rows.shape == (n_u * n_v, 7)
    for row in rows:
        assert np.array_equal(row[2:], bipolar_immersion(row[0], row[1], params))
    # the first n_v rows share u = 0, which broadcasts against their v
    assert np.array_equal(rows[:n_v, 2:], bipolar_immersion(0.0, rows[:n_v, 1], params))
    np.testing.assert_allclose(np.linalg.norm(rows[:, 2:], axis=1), 1.0,
                               rtol=0.0, atol=1e-12)


def _bits(values):
    return np.asarray(values, float).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(admissible_pairs(40)),
       st.lists(st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(-20.0, 20.0)),
                min_size=1, max_size=12))
def test_array_chart_maps(pair, points):
    """The chart maps, the profile closed form and f(y) on arrays: z(v) is
    scipy's F(v, kh)/(n+m), v(z(v)) = v, and every element is bit-equal to
    the one-point call."""
    params = derive_params(*pair)
    u, v = np.array(points).T
    z = z_of_v(v, params)
    oracle = ss.ellipkinc(v, params.h_modulus.k ** 2) / (params.n + params.m)
    np.testing.assert_allclose(z, oracle, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(v_of_z(z, params), v, rtol=0.0, atol=1e-12)
    assert _bits(z) == _bits([z_of_v(x, params) for x in v.tolist()])
    for fn in (closed_form_theta, metric_f_array):
        assert _bits(fn(v, params)) == _bits([fn(x, params) for x in v.tolist()])
    pointwise = [klein_deck_map(a, b, params) for a, b in zip(u.tolist(), v.tolist())]
    assert _bits(klein_deck_map(u, v, params)) == _bits(list(zip(*pointwise)))

    # P and the profile closed form at the points where the one-point call
    # is defined (away from lattice poles)
    roots = weierstrass_tables_exact(params.n, params.m)[0][0]
    for fn in (lambda y: weierstrass_p(y, roots), lambda y: closed_form_weierstrass(y, params)):
        defined, values = [], []
        for y in v.tolist():
            try:
                values.append(fn(y))
            except PoleProximityError:
                continue
            defined.append(y)
        if defined:
            got = np.asarray(fn(np.array(defined)), float)
            assert _bits(got.T) == _bits(values)


_P21 = params_from_nm(2, 1)
_EVALUATORS = {
    "jacobi_sncndn": lambda x: jacobi_sncndn(x, _P21.modulus),
    "jacobi_am": lambda x: jacobi_am(x, _P21.modulus),
    "metric_f_array": lambda x: metric_f_array(x, _P21),
    "closed_form_theta": lambda x: closed_form_theta(x, _P21),
    "bipolar_immersion-u": lambda x: bipolar_immersion(x, np.full_like(x, 0.3), _P21),
    "bipolar_immersion-v": lambda x: bipolar_immersion(np.full_like(x, 0.3), x, _P21),
}


@pytest.mark.parametrize("name", list(_EVALUATORS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("as_array", [False, True])
def test_evaluators_reject_non_finite(name, bad, as_array):
    """A NaN or an infinity raises DomainError, in a scalar or among
    finite array elements, rather than giving NaN rows."""
    x = np.array([0.1, bad]) if as_array else bad
    with pytest.raises(DomainError, match="argument must be finite"):
        _EVALUATORS[name](x)
