"""Lawson tori/Klein bottles, their bipolar surfaces, and chart changes.

The integer pair (r, k) with 0 < k < r, gcd(r, k) = 1 selects a Lawson
surface; the derived pair (n, m) indexes the conformal model of its
bipolar surface.  This module holds the parameter map, the immersions
(Lawson in S^3, bipolar in S^4), the flat-chart metrics, and the chart
maps gluing the (u, v) chart to the flat (x, y) model.  Everything is a
pure function of its arguments; the chart maps take scalars or
equal-shape arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import IO

import numpy as np

from .special_functions import (
    EllipticModulus,
    complete_E,
    complete_K,
    _ellip_f_array,
    _finite,
    jacobi_am,
    jacobi_sncndn,
)

__all__ = [
    "InvalidParametersError",
    "ExcludedDirectionError",
    "Topology",
    "ParityClass",
    "SurfaceParams",
    "derive_params",
    "params_from_nm",
    "admissible_pairs",
    "period_a",
    "metric_f_array",
    "lawson_I",
    "lawson_normal",
    "bipolar_immersion",
    "bipolar_column",
    "parambip_column",
    "bipolar_metric",
    "klein_deck_map",
    "z_of_v",
    "v_of_z",
    "area_closed_form",
    "immersion_rows",
    "write_immersion_csv",
    "write_immersion_json",
    "EXCLUDED_DIRECTION_NOTE",
]


class InvalidParametersError(ValueError):
    """(r, k) is not an admissible Lawson parameter pair."""


class ExcludedDirectionError(RuntimeError):
    """A rotated wedge I ^ I* has a component along the direction the S^4
    projection drops; carries the worst sampled point and its residual."""

    def __init__(self, u: float, v: float, residual: float):
        super().__init__(
            f"orthogonality to the excluded direction violated: residual "
            f"{residual:.3e} at (u, v) = ({u!r}, {v!r})")
        self.u, self.v, self.residual = u, v, residual


class Topology(Enum):
    TORUS = "Torus"
    KLEIN_BOTTLE = "KleinBottle"


class ParityClass(Enum):
    EVEN_RK = "EvenRK"
    RK_1_MOD_4 = "RK1mod4"
    RK_3_MOD_4 = "RK3mod4"


@dataclass(frozen=True)
class SurfaceParams:
    """Classified parameters of a bipolar Lawson surface.  Its moduli are
    built on first use, in the instance dict; equality and hash read the fields."""

    r: int
    k: int
    n: int
    m: int
    parity_class: ParityClass
    topology: Topology

    @cached_property
    def modulus(self) -> EllipticModulus:
        """Profile modulus m/n (distinct from the orbit-space angle)."""
        return EllipticModulus.from_k(self.m / self.n)

    @cached_property
    def h_modulus(self) -> EllipticModulus:
        """Modulus 2 sqrt(mn)/(n+m) used by the H1 substitution, with its
        complement (n-m)/(n+m) exact rather than taken from the rounded k."""
        return EllipticModulus(k=2.0 * math.sqrt(self.m * self.n) / (self.n + self.m),
                               k_prime=(self.n - self.m) / (self.n + self.m))

    def __str__(self):
        return (f"(r,k)=({self.r},{self.k}) -> (n,m)=({self.n},{self.m}), "
                f"{self.topology.value}, {self.parity_class.value}")


def derive_params(r: int, k: int) -> SurfaceParams:
    """Classify the pair (r, k) and fill in (n, m), parity, and topology.

    n = r+k, m = r-k when rk is even, else n = (r+k)/2, m = (r-k)/2;
    the surface is a Klein bottle exactly when rk = 3 mod 4.
    """
    if r != int(r) or k != int(k):
        raise InvalidParametersError("r and k must be integers")
    r, k = int(r), int(k)
    if not (0 < k < r):
        raise InvalidParametersError(f"need 0 < k < r, got (r,k)=({r},{k})")
    if math.gcd(r, k) != 1:
        raise InvalidParametersError(f"(r,k)=({r},{k}) must be coprime")
    rk = r * k
    if rk % 2 == 0:
        n, m = r + k, r - k
        parity = ParityClass.EVEN_RK
    else:
        n, m = (r + k) // 2, (r - k) // 2
        parity = ParityClass.RK_1_MOD_4 if rk % 4 == 1 else ParityClass.RK_3_MOD_4
    topo = Topology.KLEIN_BOTTLE if rk % 4 == 3 else Topology.TORUS
    return SurfaceParams(r=r, k=k, n=n, m=m, parity_class=parity, topology=topo)


def params_from_nm(n: int, m: int) -> SurfaceParams:
    """Recover the (r, k) pair whose bipolar surface has profile (n, m)."""
    n, m = int(n), int(m)
    if not (n > m >= 1) or math.gcd(n, m) != 1:
        raise InvalidParametersError(f"need coprime n > m >= 1, got ({n},{m})")
    if (n - m) % 2 == 0:
        # both odd: the even-rk branch
        return derive_params((n + m) // 2, (n - m) // 2)
    return derive_params(n + m, n - m)


def admissible_pairs(r_max: int) -> list[tuple[int, int]]:
    """All coprime (r, k) with 0 < k < r <= r_max, lexicographic order."""
    return [(r, k) for r in range(2, r_max + 1)
            for k in range(1, r) if math.gcd(r, k) == 1]


def period_a(params: SurfaceParams) -> float:
    """Profile period a = (4/n) K(m/n)."""
    return 4.0 / params.n * complete_K(params.modulus)


# ---------------------------------------------------------------------------
# the metric profile
# ---------------------------------------------------------------------------

def metric_f_array(y, params: SurfaceParams) -> np.ndarray:
    """Conformal factor f(y) = (m^2+n^2)/2 - m^2 cos^2(theta(y)) of the
    metric f (dx^2 + dy^2), with cos(theta(y)) = sn(K - n y, m/n); f > 0
    with f(y) = f(-y) = f(y + a/2).  y is a scalar (giving a float) or an
    array (giving an array of its shape); a NaN or an infinity raises
    DomainError."""
    K = complete_K(params.modulus)
    sn, _, _ = jacobi_sncndn(K - params.n * np.asarray(y, float), params.modulus)
    return (params.m ** 2 + params.n ** 2) / 2.0 - params.m ** 2 * (sn * sn)


# ---------------------------------------------------------------------------
# immersions
# ---------------------------------------------------------------------------

def lawson_I(u, v, r: int, k: int) -> np.ndarray:
    """Lawson's doubly periodic minimal immersion of tau_{r,k} into S^3.
    u and v are scalars or equal-shape arrays; components run along axis 0."""
    cv, sv = np.cos(v), np.sin(v)
    return np.array([
        np.cos(r * u) * cv,
        np.sin(r * u) * cv,
        np.cos(k * u) * sv,
        np.sin(k * u) * sv,
    ])


def lawson_normal(u, v, r: int, k: int) -> np.ndarray:
    """Unit normal of tau_{r,k} tangent to S^3 (shapes as lawson_I)."""
    cv, sv = np.cos(v), np.sin(v)
    w = np.sqrt(r * r * (cv * cv) + k * k * (sv * sv))
    return np.array([
        k * np.sin(r * u) * sv,
        -k * np.cos(r * u) * sv,
        -r * np.sin(k * u) * cv,
        r * np.cos(k * u) * cv,
    ]) / w


def _wedge6(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exterior product of two 4-vectors (or columns of 4-vectors along
    axis 0), components ordered (12, 34, 13, 24, 23, 14) so rotation pairs
    sit in adjacent slots."""
    return np.array([
        x[0] * y[1] - x[1] * y[0],
        x[2] * y[3] - x[3] * y[2],
        x[0] * y[2] - x[2] * y[0],
        x[1] * y[3] - x[3] * y[1],
        x[1] * y[2] - x[2] * y[1],
        x[0] * y[3] - x[3] * y[0],
    ])


_SQRT2 = math.sqrt(2.0)
_A_BLOCKS = np.zeros((6, 6))
for _blk in range(3):
    _i = 2 * _blk
    _A_BLOCKS[_i, _i] = 1.0 / _SQRT2
    _A_BLOCKS[_i, _i + 1] = 1.0 / _SQRT2
    _A_BLOCKS[_i + 1, _i] = -1.0 / _SQRT2
    _A_BLOCKS[_i + 1, _i + 1] = 1.0 / _SQRT2

EXCLUDED_DIRECTION_NOTE = (
    "The image of the rotated wedge is orthogonal to (r+k, k-r, 0, 0, 0, 0); "
    "coordinate 1 of the 5-vector is the projection onto "
    "(r-k, r+k, 0, 0, 0, 0)/|.|, coordinates 2..5 are components 6, 3, 5, 4 "
    "of the rotated 6-vector, matching the slot order "
    "(phi0, cos(mx) phi1, sin(mx) phi1, cos(nx) phi2, sin(nx) phi2)."
)


def _row_dot(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Dot product of each row with vec (a vector, or rows of the same
    shape).  The stacked (1, n) @ (n, 1) matmul takes the same per-row dot
    as rows[i] @ vec, so the bits do not depend on how many rows are
    evaluated together."""
    return np.matmul(rows[:, None, :], vec[..., None])[:, 0, 0]


def _project5(w6: np.ndarray, r: int, k: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows of rotated 6-vectors -> rows of 5-vectors on the S^4 equator.
    Every row must be orthogonal to the excluded direction; (u, v) only
    name the worst point when one is not."""
    norm = math.sqrt((r + k) ** 2 + (r - k) ** 2)
    excluded = np.array([r + k, k - r, 0.0, 0.0, 0.0, 0.0]) / norm
    dots = np.abs(_row_dot(w6, excluded))
    worst = int(np.argmax(dots))
    if dots[worst] > 1e-12:
        raise ExcludedDirectionError(float(u[worst]), float(v[worst]), float(dots[worst]))
    kept = np.array([r - k, r + k, 0.0, 0.0, 0.0, 0.0]) / norm
    return np.column_stack((_row_dot(w6, kept), w6[:, 5], w6[:, 2], w6[:, 4], w6[:, 3]))


def bipolar_immersion(u, v, params: SurfaceParams) -> np.ndarray:
    """Bipolar surface points as unit vectors (x1..x5) in R^5, at scalars
    u, v (giving one vector) or 1-D arrays, a scalar broadcast against
    an array (giving one row each), built as the wedge I ^ I* of the
    Lawson immersion with its normal, rotated by the block matrix A and
    projected onto the S^4 equator (see EXCLUDED_DIRECTION_NOTE for the
    basis).  A is applied one point at a time by a stacked matmul, which
    keeps every row bit-identical to the one-point evaluation; a single
    2-D product rounds differently.  A NaN or an infinity raises
    DomainError."""
    us, vs = np.broadcast_arrays(_finite(u), _finite(v))
    u1, v1 = us.reshape(-1), vs.reshape(-1)
    r, k = params.r, params.k
    wedge = _wedge6(lawson_I(u1, v1, r, k), lawson_normal(u1, v1, r, k))
    w6 = np.matmul(_A_BLOCKS, wedge.T[:, :, None])[:, :, 0]
    rows = _project5(w6, r, k, u1, v1)
    return rows[0] if us.ndim == 0 else rows


def bipolar_column(u, v, r: int, k: int) -> np.ndarray:
    """Closed-form 6-vector of the rotated bipolar immersion A o (I ^ I*);
    u and v are scalars or equal-shape arrays, components along axis 0."""
    cv, sv = np.cos(v), np.sin(v)
    w = np.sqrt(r * r * (cv * cv) + k * k * (sv * sv))
    pref = 1.0 / (math.sqrt(8.0) * w)
    c2v = np.cos(2 * v)
    return pref * np.array([
        (r - k) * np.sin(2 * v),
        (r + k) * np.sin(2 * v),
        ((r - k) + (r + k) * c2v) * np.sin((r - k) * u),
        ((r + k) + (r - k) * c2v) * np.sin((r + k) * u),
        ((r + k) + (r - k) * c2v) * np.cos((r + k) * u),
        ((r - k) + (r + k) * c2v) * np.cos((r - k) * u),
    ])


def parambip_column(u, v, params: SurfaceParams) -> np.ndarray:
    """Odd-rk form of the closed-form column, written in (n, m); shapes as
    in bipolar_column."""
    if params.parity_class is ParityClass.EVEN_RK:
        raise InvalidParametersError("the (n, m) column form applies to odd rk only")
    n, m = params.n, params.m
    sv, s2v, c2v = np.sin(v), np.sin(2 * v), np.cos(2 * v)
    P = (n + m) ** 2 - 4.0 * m * n * sv * sv
    pref = 1.0 / (_SQRT2 * np.sqrt(P))
    return pref * np.array([
        m * s2v,
        n * s2v,
        (m + n * c2v) * np.sin(2 * m * u),
        (n + m * c2v) * np.sin(2 * n * u),
        (n + m * c2v) * np.cos(2 * n * u),
        (m + n * c2v) * np.cos(2 * m * u),
    ])


def bipolar_metric(v, params: SurfaceParams):
    """Diagonal first-fundamental-form coefficients (g_uu, g_vv) of the
    bipolar surface in the (u, v) chart, at a scalar v or an array; they
    do not depend on u, and there is no cross term."""
    r, k = params.r, params.k
    sv = np.sin(v)
    w2 = r * r - (r * r - k * k) * sv * sv
    mcoef = (w2 * w2 + r * r * k * k) / w2
    return mcoef, mcoef / w2


# ---------------------------------------------------------------------------
# chart changes
# ---------------------------------------------------------------------------
# H1: (u, v) -> (u, z(v));  H2: (u, z) -> (u + pi/2, a/4 - z);
# H3: (u, z) -> (u, 2z + K(m/n)/n);  H3': (u, z) -> (2u, 2z + K(m/n)/n).
# The maps take scalars or equal-shape arrays; a scalar maps to a float.

def z_of_v(v, params: SurfaceParams):
    """The H1 substitution z(v) = F(v, kh)/(n+m), with F the incomplete
    elliptic integral of the first kind and kh = 2 sqrt(mn)/(n+m)."""
    z = _ellip_f_array(v, params.h_modulus) / (params.n + params.m)
    return float(z) if np.ndim(v) == 0 else z


def v_of_z(z, params: SurfaceParams):
    """Inverse of the H1 substitution, v = am((n+m) z, kh)."""
    return jacobi_am((params.n + params.m) * np.asarray(z, float), params.h_modulus)


def klein_deck_map(u, v, params: SurfaceParams) -> tuple:
    """The composite H1^{-1} o H2 o H1 turning the torus into a Klein bottle
    when n is even and m is odd; the immersion is pointwise invariant."""
    return u + math.pi / 2.0, v_of_z(period_a(params) / 4.0 - z_of_v(v, params), params)


# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------

def area_closed_form(params: SurfaceParams) -> float:
    """Area 4 pi (n+m) E(2 sqrt(mn)/(m+n)), halved for a Klein bottle.

    E is taken with the complement sqrt((1-k)(1+k)) of the rounded k: E is
    as accurate with it as with the exact (n-m)/(n+m) (within 1.2e-15 of a
    40-digit E for every pair with r <= 40, either way), and it keeps the
    17-digit Lambda of the rank table."""
    modulus = EllipticModulus.from_k(params.h_modulus.k)
    full = 4.0 * math.pi * (params.n + params.m) * complete_E(modulus)
    if params.topology is Topology.KLEIN_BOTTLE:
        return full / 2.0
    return full


# ---------------------------------------------------------------------------
# sampling / export
# ---------------------------------------------------------------------------

def immersion_rows(params: SurfaceParams, n_u: int, n_v: int) -> np.ndarray:
    """Sample the fundamental domain on an n_u x n_v grid; rows are
    (u, v, x1..x5), u-major.  The u-period is 2 pi for even rk and pi
    otherwise."""
    u_period = 2.0 * math.pi if params.parity_class is ParityClass.EVEN_RK else math.pi
    u = np.repeat(np.linspace(0.0, u_period, n_u, endpoint=False), n_v)
    v = np.tile(np.linspace(0.0, math.pi, n_v, endpoint=False), n_u)
    return np.column_stack((u, v, bipolar_immersion(u, v, params)))


# ---------------------------------------------------------------------------
# %.17g rendering
# ---------------------------------------------------------------------------
# Every value is written with 17 significant digits, so files round-trip
# double precision exactly.  A finite value with 1e-4 <= |x| < 10 (all but
# the zeros of a mesh) is rendered by integer arithmetic on arrays: with
# E = floor(log10|x|), N = round-half-even(|x| 10^(16-E)) holds the 17
# digits and format(x, ".17g") prints them in fixed notation, trailing
# zeros dropped.  Every other value goes through one %-format call.  A
# value's text sits null-padded in three 8-byte words between template
# words holding the separators, and deleting the nulls joins a block of rows.

#: rows rendered and written per block (about 0.6 MB of words)
_BLOCK_ROWS = 2048
#: Dekker's splitter 2^27 + 1
_SPLIT = 134217729.0
#: 10^(16-E) for E = 0, -1, ..., -4, exact doubles, split into 26-bit halves
_POW = np.array([float(10 ** (16 + j)) for j in range(5)])
_POW_HI = _SPLIT * _POW - (_SPLIT * _POW - _POW)
_POW_LO = _POW - _POW_HI
_I4 = np.arange(10_000)
#: the ASCII digits of i as 4 bytes, thousands first, and their trailing
#: zero count (4 for i = 0)
_DIGITS4 = sum((48 + _I4 // 10 ** (3 - i) % 10) << (8 * i) for i in range(4)).astype("<u8")
_TRAILING = (_I4 % 10 == 0).astype(np.intp) + (_I4 % 100 == 0) + (_I4 % 1000 == 0) + (_I4 == 0)
#: the two words keeping the first 16 - t bytes, t = 0..16
_KEEP1, _KEEP2 = np.where(np.arange(16) < 16 - np.arange(17)[:, None], 255, 0).astype(
    np.uint8).view("<u8").T.copy()


def _words(texts) -> np.ndarray:
    """ASCII texts of at most 8 bytes as null-padded "<u8" words."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), "<u8")


#: "0.", "0.0", ..., "0.000" ending at byte 5 for E = 0, -1, ..., -4, then
#: the first digit in byte 6, after the sign in byte 0 and before the
#: point in byte 7 when E = 0
_LEAD = _words(("0." + "0" * (j - 1) if j else "").rjust(6, "\0") for j in range(5))
_FIRST = _words("\0" * 6 + str(d) for d in range(10))
_MINUS, _POINT = _words(["-", "\0" * 7 + "."])


def _scaled(a: np.ndarray, j: np.ndarray) -> np.ndarray:
    """round-half-even(a 10^(16+j)), exactly where it is at least 2^53:
    the product is hi + lo by Dekker's two-product, hi is then an even
    integer, and lo rounds alone."""
    ph, pl = _POW_HI[j], _POW_LO[j]
    hi = a * _POW[j]
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _render17(x: np.ndarray) -> np.ndarray:
    """format(v, ".17g") for each v of the 1-D array x, as rows of three
    null-padded "<u8" words."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 10.0)
    a = np.where(fast, a, 1.0)
    j = np.clip(-np.floor(np.log10(a)), 0, 4).astype(np.intp)
    n = _scaled(a, j)
    # log10 may land on the power of ten next to a value: one step more
    step = (n < 10 ** 16).astype(np.intp) - (n >= 10 ** 17)
    fix = np.flatnonzero(step)
    if fix.size:
        j[fix] = np.clip(j[fix] + step[fix], 0, 4)
        n[fix] = _scaled(a[fix], j[fix])
        fast &= (n >= 10 ** 16) & (n < 10 ** 17)
    d0 = n // 10 ** 16
    g12 = (n - d0 * 10 ** 16) // 10 ** 8
    g34 = n - d0 * 10 ** 16 - g12 * 10 ** 8
    g1, g3 = g12 // 10 ** 4, g34 // 10 ** 4
    g2, g4 = g12 - g1 * 10 ** 4, g34 - g3 * 10 ** 4
    tz = _TRAILING[g4] + (g4 == 0) * (
        _TRAILING[g3] + (g3 == 0) * (_TRAILING[g2] + (g2 == 0) * _TRAILING[g1]))
    words = np.empty((x.size, 3), "<u8")
    words[:, 0] = (_LEAD[j] | _FIRST[d0] | (x < 0) * _MINUS
                   | ((j == 0) & (tz < 16)) * _POINT)
    words[:, 1] = (_DIGITS4[g1] | _DIGITS4[g2] << np.uint64(32)) & _KEEP1[tz]
    words[:, 2] = (_DIGITS4[g3] | _DIGITS4[g4] << np.uint64(32)) & _KEEP2[tz]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ("%.17g " * slow.size % tuple(x[slow].tolist())).split()
        words[slow] = np.array(text, "S24").view("<u8").reshape(-1, 3)
    return words


def _write_rows(stream: IO[str], rows: np.ndarray, suffixes, prefixes=None) -> None:
    """Write each row as its values rendered by format(v, ".17g"), column
    i between prefixes[i] and suffixes[i], one block of rows at a time."""
    lead = 0 if prefixes is None else 1
    template = np.zeros((len(suffixes), lead + 4), "<u8")
    if prefixes is not None:
        template[:, 0] = _words(prefixes)
    template[:, -1] = _words(suffixes)
    rows = np.asarray(rows, float)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        out = np.empty((len(block),) + template.shape, "<u8")
        out[:] = template
        out[:, :, lead:lead + 3] = _render17(block.ravel()).reshape(len(block), -1, 3)
        stream.write(out.tobytes().translate(None, b"\0").decode("ascii"))


_COLUMNS = ["u", "v", "x1", "x2", "x3", "x4", "x5"]
_CSV_SUFFIXES = [","] * 6 + ["\n"]
_JSON_PREFIXES = ['  [\n   "'] + ['   "'] * 6
_JSON_SUFFIXES = ['",\n'] * 6 + ['"\n  ],\n']


def write_immersion_csv(stream: IO[str], params: SurfaceParams, rows: np.ndarray) -> None:
    stream.write(f"# r={params.r} k={params.k} n={params.n} m={params.m} "
                 f"topology={params.topology.value}\n")
    stream.write(",".join(_COLUMNS) + "\n")
    _write_rows(stream, rows, _CSV_SUFFIXES)


def write_immersion_json(stream: IO[str], params: SurfaceParams, rows: np.ndarray) -> None:
    """The document json.dump(indent=1) would write with every value a
    17-digit string, the rows written as they are rendered."""
    doc = {
        "params": {"r": params.r, "k": params.k, "n": params.n, "m": params.m},
        "topology": params.topology.value,
        "basis_note": EXCLUDED_DIRECTION_NOTE,
        "columns": _COLUMNS,
        "rows": [],
    }
    text = json.dumps(doc, indent=1)
    if len(rows):
        head, tail = text.rsplit("[]", 1)
        stream.write(head + "[\n")
        _write_rows(stream, rows[:-1], _JSON_SUFFIXES, _JSON_PREFIXES)
        _write_rows(stream, rows[-1:], _JSON_SUFFIXES[:-1] + ['"\n  ]'], _JSON_PREFIXES)
        text = "\n ]" + tail
    stream.write(text + "\n")
