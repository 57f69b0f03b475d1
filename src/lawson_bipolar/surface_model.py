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
from typing import IO, Iterator

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
    "admissible_pairs",
    "period_a",
    "metric_f_array",
    "bipolar_immersion",
    "bipolar_column",
    "bipolar_metric",
    "klein_deck_map",
    "z_of_v",
    "v_of_z",
    "area_closed_form",
    "immersion_blocks",
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

def _u_factors(u, r: int, k: int) -> tuple:
    """The factors of I and I* that vary with u alone: cos ru, sin ru,
    cos ku, sin ku, then the normal's k sin ru, -k cos ru, -r sin ku, r cos ku."""
    cru, sru, cku, sku = np.cos(r * u), np.sin(r * u), np.cos(k * u), np.sin(k * u)
    return cru, sru, cku, sku, k * sru, -k * cru, -r * sku, r * cku


def _v_factors(v, r: int, k: int) -> tuple:
    """The factors that vary with v alone: cos v, sin v and the normal's
    length w = sqrt(r^2 cos^2 v + k^2 sin^2 v)."""
    cv, sv = np.cos(v), np.sin(v)
    return cv, sv, np.sqrt(r * r * (cv * cv) + k * k * (sv * sv))


def _frame(u_factors, v_factors) -> tuple:
    """The components of I and of I*, each broadcast from its u factor and
    its v factor; every element is the one-point product."""
    cru, sru, cku, sku, ksr, kcr, rsk, rck = u_factors
    cv, sv, w = v_factors
    return ((cru * cv, sru * cv, cku * sv, sku * sv),
            (ksr * sv / w, kcr * sv / w, rsk * cv / w, rck * cv / w))


def _wedge6(x, y) -> np.ndarray:
    """Exterior product of two 4-vectors (or columns of 4-vectors along
    axis 0), components ordered (12, 34, 13, 24, 23, 14) so rotation pairs
    sit in adjacent slots."""
    out = np.empty((6,) + np.shape(x[0]))
    for i, (a, b) in enumerate(((0, 1), (2, 3), (0, 2), (1, 3), (1, 2), (0, 3))):
        np.subtract(x[a] * y[b], x[b] * y[a], out=out[i, ...])
    return out


_SQRT2 = math.sqrt(2.0)

EXCLUDED_DIRECTION_NOTE = (
    "The image of the rotated wedge is orthogonal to (r+k, k-r, 0, 0, 0, 0); "
    "coordinate 1 of the 5-vector is the projection onto "
    "(r-k, r+k, 0, 0, 0, 0)/|.|, coordinates 2..5 are components 6, 3, 5, 4 "
    "of the rotated 6-vector, matching the slot order "
    "(phi0, cos(mx) phi1, sin(mx) phi1, cos(nx) phi2, sin(nx) phi2)."
)


def _rotated_wedge(u_factors, v_factors) -> np.ndarray:
    """A o (I ^ I*), components along axis 0: A turns each component pair
    (a, b) of the wedge into ((a + b)/sqrt 2, (b - a)/sqrt 2)."""
    w6 = _wedge6(*_frame(u_factors, v_factors))
    total = w6[0::2] + w6[1::2]
    w6[1::2] -= w6[0::2]
    w6[0::2] = total
    w6 /= _SQRT2
    return w6


def _project5(w6: np.ndarray, r: int, k: int, u, v, out=None) -> np.ndarray:
    """Rotated 6-vectors, components along axis 0 -> 5-vectors on the S^4
    equator, components along the last axis of out (a new array when out is
    None).  Every column must be orthogonal to the excluded direction;
    (u, v), broadcast against a component, only name the worst point when
    one is not."""
    norm = math.sqrt((r + k) ** 2 + (r - k) ** 2)
    dots = np.abs((r + k) / norm * w6[0] + (k - r) / norm * w6[1])
    worst = int(np.argmax(dots))
    if dots.flat[worst] > 1e-12:
        us, vs = np.broadcast_arrays(u, v)
        raise ExcludedDirectionError(float(us.flat[worst]), float(vs.flat[worst]),
                                     float(dots.flat[worst]))
    if out is None:
        out = np.empty(dots.shape + (5,))
    out[..., 0] = (r - k) / norm * w6[0] + (r + k) / norm * w6[1]
    for col, comp in enumerate((5, 2, 4, 3), 1):
        out[..., col] = w6[comp]
    return out


def bipolar_immersion(u, v, params: SurfaceParams) -> np.ndarray:
    """Bipolar surface points as unit vectors (x1..x5) in R^5, at scalars
    u, v (giving one vector) or 1-D arrays, a scalar broadcast against
    an array (giving one row each), built as the wedge I ^ I* of the
    Lawson immersion with its normal, rotated by the block matrix A and
    projected onto the S^4 equator (see EXCLUDED_DIRECTION_NOTE for the
    basis).  Every operation is elementwise, so every row is bit-identical
    to the one-point evaluation.  A NaN or an infinity raises DomainError."""
    us, vs = np.broadcast_arrays(_finite(u), _finite(v))
    u1, v1 = us.reshape(-1), vs.reshape(-1)
    r, k = params.r, params.k
    w6 = _rotated_wedge(_u_factors(u1, r, k), _v_factors(v1, r, k))
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

#: mesh points per block of the immersion (one value of u when the row of
#: v is longer).  A block's largest temporaries, its (6, points) wedge and
#: its (points, 7) rows, take 96 and 112 KiB: under the 128 KiB at which
#: glibc's malloc serves an allocation with fresh pages from mmap, so each
#: block reuses the heap memory the block before it freed.
_BLOCK_POINTS = 2048


def immersion_blocks(params: SurfaceParams, n_u: int, n_v: int) -> Iterator[np.ndarray]:
    """Sample the fundamental domain on an n_u x n_v grid, yielding the
    rows (u, v, x1..x5) u-major, as (points, 7) arrays of whole rows of v.
    The u-period is 2 pi for even rk and pi otherwise.  The transcendentals
    are taken once per distinct u and per distinct v; each block of u runs
    against the row of v, and every row is bit-identical to
    bipolar_immersion at that point.  A block with a point off the S^4
    equator is not yielded; after the last block, an ExcludedDirectionError
    names the worst point of the whole mesh."""
    r, k = params.r, params.k
    u_period = 2.0 * math.pi if params.parity_class is ParityClass.EVEN_RK else math.pi
    u = np.linspace(0.0, u_period, n_u, endpoint=False)[:, None]
    v = np.linspace(0.0, math.pi, n_v, endpoint=False)
    u_factors, v_factors = _u_factors(u, r, k), _v_factors(v, r, k)
    step = max(1, _BLOCK_POINTS // max(n_v, 1))
    worst = None
    for start in range(0, n_u, step):
        block = slice(start, start + step)
        rows = np.empty((len(u[block]), n_v, 7))
        rows[..., 0] = u[block]
        rows[..., 1] = v
        try:
            _project5(_rotated_wedge([f[block] for f in u_factors], v_factors),
                      r, k, u[block], v, out=rows[..., 2:])
        except ExcludedDirectionError as exc:
            if worst is None or exc.residual > worst.residual:
                worst = exc
            continue
        yield rows.reshape(-1, 7)
    if worst is not None:
        raise worst


def immersion_rows(params: SurfaceParams, n_u: int, n_v: int) -> np.ndarray:
    """The rows of immersion_blocks as one (n_u n_v, 7) array, each block
    copied into it as it is computed."""
    rows = np.empty((n_u * n_v, 7))
    start = 0
    for block in immersion_blocks(params, n_u, n_v):
        rows[start:start + len(block)] = block
        start += len(block)
    return rows


# ---------------------------------------------------------------------------
# %.17g rendering
# ---------------------------------------------------------------------------
# Every value is written with 17 significant digits, so files round-trip
# double precision exactly.  A finite value with 1e-4 <= |x| < 10 (all but
# the zeros and the e-notation values of a mesh) is rendered by integer
# arithmetic on arrays: with j = -floor(log10|x|) in 0..4,
# N = round-half-even(|x| 10^(16+j)) holds the 17 digits and
# format(x, ".17g") prints them in fixed notation, trailing zeros dropped.
# Every other value goes through one %-format call.  A value's text sits
# null-padded in three 8-byte words between template words holding the
# separators, and deleting the nulls joins a batch of rows.
#
# j is counted by comparisons: j = #{t in (1, 0.1, 0.01, 0.001) : |x| < t}
# is exact, because each literal t is its power of ten or the double next
# above it.  The sign and exponent bits of x name its binade, which holds at
# most one of the bounds 10, 1, ..., 1e-4, so two tables and one comparison
# give j.  Then 10^16 <= N < 10^17 with no correction: N reaches 10^17 only
# within 5e-18 |x| below a power of ten, and no double lies that close below
# 10, 1, 0.1, 0.01 or 0.001.

#: bytes of words per batch of rows: 512 CSV rows or 409 JSON rows.  The
#: writer's one word array and each batch's bytes and str copies stay under
#: the 128 KiB at which glibc's malloc serves an allocation with fresh pages
#: from mmap, so each batch reuses the heap memory the one before it freed.
_BLOCK_BYTES = 112 * 1024
#: Dekker's splitter 2^27 + 1
_SPLIT = 134217729.0


def _key_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each key x.view(int64) >> 52 of sign and exponent bits (a negative
    key reads from the end): the code j + 1 + 7 sign of the largest |x| of
    its binade, with j = -1 at 10 and above and j = 5 below 1e-4; and the
    bound inside the binade below which j is one more (0 where none is)."""
    e = np.clip(np.arange(2048), 1, 2045) - 1023
    low, high = np.ldexp(1.0, e)[:, None], np.ldexp(1.0, e + 1)[:, None]
    bounds = np.array([10.0, 1.0, 0.1, 0.01, 0.001, 1e-4])
    code = np.count_nonzero(high <= bounds, axis=1)
    bound = np.where((low < bounds) & (bounds < high), bounds, 0.0).max(axis=1)
    return np.concatenate([code, code + 7]), np.concatenate([bound, bound])


_KEY_CODE, _KEY_BOUND = _key_tables()
#: by code: j in 0..4, or j = 0 for the %-format values (codes 0, 6, 7, 13)
_J = np.arange(14) % 7 - 1
_SLOW = (_J < 0) | (_J > 4)
_J[_SLOW] = 0
#: 10^(16+j), exact doubles, split into 26-bit halves
_POW = np.array([float(10 ** (16 + j)) for j in _J.tolist()])
_POW_HI = _SPLIT * _POW - (_SPLIT * _POW - _POW)
_POW_LO = _POW - _POW_HI
_I4 = np.arange(10_000)
#: the ASCII digits of i as 4 bytes, thousands first, and the same with the
#: trailing zeros as nulls (all four for i = 0)
_DIGITS4 = sum((48 + _I4 // 10 ** (3 - i) % 10) << (8 * i) for i in range(4)).astype("<u4")
_TRAILING = (_I4 % 10 == 0).astype(np.intp) + (_I4 % 100 == 0) + (_I4 % 1000 == 0) + (_I4 == 0)
_TAIL4 = (_DIGITS4 & (1 << 8 * (4 - _TRAILING)) - 1).astype("<u4")


def _words(texts) -> np.ndarray:
    """ASCII texts of at most 8 bytes as null-padded "<u8" words."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), "<u8")


def _head(d: int, code: int) -> str:
    """Word 0 of a value: the sign in byte 0, "0.", "0.0", ... ending at
    byte 5 for j = 1..4, the first digit d in byte 6 and, for j = 0, the
    point in byte 7."""
    sign, j = divmod(code, 7)
    j -= 1
    if not 0 <= j <= 4:
        return ""
    lead = "0." + "0" * (j - 1) if j else ""
    return ("-" * sign).ljust(6 - len(lead), "\0") + lead + str(d) + "." * (j == 0)


#: word 0 of each (first digit d, code), at d * 14 + code
_HEAD = _words(_head(d, code) for d in range(10) for code in range(14))
_POINT = _words(["\0" * 7 + "."])[0]


def _codes(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The code j + 1 + 7 sign of each value of x, a = |x|: its binade's,
    one more below the binade's bound."""
    key = x.view(np.int64) >> 52
    code = _KEY_CODE.take(key)
    code += a < _KEY_BOUND.take(key)
    return code


def _scaled(a: np.ndarray, code: np.ndarray) -> np.ndarray:
    """round-half-even(a 10^(16+j)) for the j of each code, exactly where it
    is at least 2^53: the product is hi + lo by Dekker's two-product, hi is
    then an even integer, and lo rounds alone.  Overwrites a."""
    hi = _POW.take(code)
    hi *= a
    ah = a * _SPLIT
    lo = ah - a
    ah -= lo
    a -= ah
    ph, pl = _POW_HI.take(code), _POW_LO.take(code)
    # lo = ((ah ph - hi) + ah pl + al ph) + al pl, with al in a
    np.multiply(ah, ph, out=lo)
    lo -= hi
    ah *= pl
    lo += ah
    ph *= a
    lo += ph
    pl *= a
    lo += pl
    np.rint(lo, out=lo)
    n = hi.astype(np.int64)
    np.add(n, lo, out=n, dtype=np.int64, casting="unsafe")
    return n


def _render17(x: np.ndarray) -> np.ndarray:
    """format(v, ".17g") for each v of the 1-D float64 array x, as rows of
    three null-padded "<u8" words."""
    # each array is dropped once read: a batch's arrays peak at about nine
    # times the size of x
    a = np.abs(x)
    code = _codes(x, a)
    slow = _SLOW.take(code).nonzero()[0]
    # a value rendered by %-format passes as 1.1, whose 17 digits end in 0001
    a[slow] = 1.1
    n = _scaled(a, code)
    del a
    # n = d0 g1 g2 g3 g4: the first digit, then four groups of four
    q = n // 10 ** 8
    n -= q * 10 ** 8
    d0 = q // 10 ** 8
    q -= d0 * 10 ** 8
    d0 *= 14
    d0 += code
    words = np.empty((x.size, 3), "<u8")
    words[:, 0] = _HEAD.take(d0)
    del d0, code
    g1 = q // 10 ** 4
    q -= g1 * 10 ** 4
    g3 = n // 10 ** 4
    n -= g3 * 10 ** 4
    groups = (g1, q, g3, n)
    digits = words.view("<u4")
    for col, g in enumerate(groups[:3], 2):
        digits[:, col] = _DIGITS4.take(g)
    digits[:, 5] = _TAIL4.take(n)
    # where g4 is 0000, the trailing zeros run on into g3, g2 and g1, and
    # past all four they take the point of j = 0 too ("3", not "3.")
    zero = (n == 0).nonzero()[0]
    if zero.size:
        for col in (4, 3, 2):
            g = groups[col - 2].take(zero)
            digits[zero, col] = _TAIL4.take(g)
            zero = zero[g == 0]
        words[zero, 0] &= ~_POINT
    if slow.size:
        text = ("%.17g " * slow.size % tuple(x[slow].tolist())).split()
        words[slow] = np.array(text, "S24").view("<u8").reshape(-1, 3)
    return words


def _batches(blocks, size: int) -> Iterator[np.ndarray]:
    """The rows of blocks (arrays of rows) in arrays of size rows, the last
    one shorter.  A batch that spans blocks is gathered in one buffer; the
    others are views of their block."""
    buf, held = None, 0
    for block in blocks:
        block = np.asarray(block, float)
        if held:
            take = min(size - held, len(block))
            buf[held:held + take] = block[:take]
            held += take
            if held < size:
                continue
            yield buf
            block, held = block[take:], 0
        whole = len(block) - len(block) % size
        for start in range(0, whole, size):
            yield block[start:start + size]
        if whole < len(block):
            if buf is None:
                buf = np.empty((size,) + block.shape[1:])
            held = len(block) - whole
            buf[:held] = block[whole:]
    if held:
        yield buf[:held]


def _write_rows(stream: IO[str], rows, suffixes, prefixes=None, sep: str = "",
                opening: str = "") -> bool:
    """Write opening, then each row of rows (an array of rows or an
    iterable of them) as its values rendered by format(v, ".17g"), column i
    between prefixes[i] and suffixes[i], the rows joined by sep.  The rows
    go out in batches, across blocks, rendered into one buffer of
    _BLOCK_BYTES of words, so that no batch allocates or frees it.  Nothing
    is written, and False returned, when there is no row."""
    lead = 0 if prefixes is None else 1
    template = np.zeros((len(suffixes), lead + 4), "<u8")
    if prefixes is not None:
        template[:, 0] = _words(prefixes)
    template[:, -1] = _words(suffixes[:-1] + [suffixes[-1] + sep])
    end = _words(suffixes[-1:])[0]
    step = max(1, _BLOCK_BYTES // template.nbytes)
    words = np.empty((step,) + template.shape, "<u8")
    written = False
    for batch in _batches([rows] if isinstance(rows, np.ndarray) else rows, step):
        out = words[:len(batch)]
        out[:] = template
        out[-1, -1, -1] = end
        out[:, :, lead:lead + 3] = _render17(batch.ravel()).reshape(len(batch), -1, 3)
        stream.write(sep if written else opening)
        stream.write(out.tobytes().translate(None, b"\0").decode("ascii"))
        written = True
    return written


_COLUMNS = ["u", "v", "x1", "x2", "x3", "x4", "x5"]
_CSV_SUFFIXES = [","] * 6 + ["\n"]
_JSON_PREFIXES = ['  [\n   "'] + ['   "'] * 6
_JSON_SUFFIXES = ['",\n'] * 6 + ['"\n  ]']


def write_immersion_csv(stream: IO[str], params: SurfaceParams, rows) -> None:
    """The header lines, then the rows (an (N, 7) array or an iterable of
    them, such as immersion_blocks), each block written as it arrives."""
    stream.write(f"# r={params.r} k={params.k} n={params.n} m={params.m} "
                 f"topology={params.topology.value}\n")
    stream.write(",".join(_COLUMNS) + "\n")
    _write_rows(stream, rows, _CSV_SUFFIXES)


def write_immersion_json(stream: IO[str], params: SurfaceParams, rows) -> None:
    """The document json.dump(indent=1) would write with every value a
    17-digit string.  rows is an (N, 7) array or an iterable of them, such
    as immersion_blocks; each block is written as it arrives."""
    doc = {
        "params": {"r": params.r, "k": params.k, "n": params.n, "m": params.m},
        "topology": params.topology.value,
        "basis_note": EXCLUDED_DIRECTION_NOTE,
        "columns": _COLUMNS,
        "rows": [],
    }
    text = json.dumps(doc, indent=1)
    head, tail = text.rsplit("[]", 1)
    if _write_rows(stream, rows, _JSON_SUFFIXES, _JSON_PREFIXES, ",\n", head + "[\n"):
        text = "\n ]" + tail
    stream.write(text + "\n")
