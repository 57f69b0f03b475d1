"""Lawson tori/Klein bottles, their bipolar surfaces, and chart changes.

The integer pair (r, k) with 0 < k < r, gcd(r, k) = 1 selects a Lawson
surface; the derived pair (n, m) indexes the conformal model of its
bipolar surface.  This module holds the parameter map, the immersions
(Lawson in S^3, bipolar in S^4), the flat-chart metrics, the profile
coordinate change theta(y), and the H-transforms gluing the charts.

A per-(n, m) quadrature table is built lazily and cached; everything
else is a pure function of its arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import repeat
from typing import IO

import numpy as np
from scipy.interpolate import CubicSpline

from .special_functions import (
    EllipticModulus,
    complete_E,
    complete_K,
    jacobi_am,
    _am_array,
    _sncndn_array,
)

__all__ = [
    "InvalidParametersError",
    "ExcludedDirectionError",
    "Topology",
    "ParityClass",
    "HTransform",
    "SurfaceParams",
    "ImmersionPoint5",
    "derive_params",
    "params_from_nm",
    "admissible_pairs",
    "period_a",
    "theta_of_y",
    "theta_of_y_quadrature",
    "metric_f_array",
    "lawson_I",
    "lawson_normal",
    "bipolar_immersion",
    "bipolar_immersion_array",
    "bipolar_column",
    "parambip_column",
    "bipolar_metric",
    "h_transforms",
    "h1_inverse",
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


class HTransform(Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    H3PRIME = "H3prime"


@dataclass(frozen=True)
class SurfaceParams:
    """Classified parameters of a bipolar Lawson surface."""

    r: int
    k: int
    n: int
    m: int
    parity_class: ParityClass
    topology: Topology

    @property
    def modulus(self) -> EllipticModulus:
        """Profile modulus m/n (distinct from the orbit-space angle)."""
        return EllipticModulus.from_k(self.m / self.n)

    @property
    def h_modulus(self) -> EllipticModulus:
        """Modulus 2 sqrt(mn)/(n+m) used by the H1 substitution."""
        return EllipticModulus.from_k(2.0 * math.sqrt(self.m * self.n) / (self.n + self.m))

    def __str__(self):
        return (f"(r,k)=({self.r},{self.k}) -> (n,m)=({self.n},{self.m}), "
                f"{self.topology.value}, {self.parity_class.value}")


@dataclass(frozen=True)
class ImmersionPoint5:
    """Point of the bipolar surface as a unit vector in R^5."""

    coords: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


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
# theta(y) and the metric profile
# ---------------------------------------------------------------------------

def theta_of_y(y: float, params: SurfaceParams) -> float:
    """Profile angle theta(y), the inversion of
    y = (1/n) * integral_0^theta dt / sqrt(1 - (m/n)^2 cos^2 t).

    Evaluated through the Jacobi amplitude: theta = pi/2 - am(K - n y),
    which also encodes cos(theta(y)) = sn(K - n y, m/n).
    """
    K = complete_K(params.modulus)
    return math.pi / 2.0 - jacobi_am(K - params.n * y, params.modulus)


def _theta_array(y, params: SurfaceParams):
    K = complete_K(params.modulus)
    return math.pi / 2.0 - _am_array(K - params.n * np.asarray(y, float), params.modulus)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _cumulative_gauss(fun, grid: np.ndarray) -> np.ndarray:
    """Cumulative integral of fun over a grid, Gauss-Legendre per cell."""
    mid = 0.5 * (grid[1:] + grid[:-1])
    half = 0.5 * np.diff(grid)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    cell = half * (fun(nodes) @ _GL_WEIGHTS)
    return np.concatenate(([0.0], np.cumsum(cell)))


@lru_cache(maxsize=None)
def _theta_inversion_table(n: int, m: int):
    """Spline of the quadrature inversion theta(y) over one period."""
    alpha2 = (m / n) ** 2
    theta_grid = np.linspace(0.0, 2.0 * math.pi, 2049)
    y_grid = _cumulative_gauss(
        lambda t: 1.0 / (n * np.sqrt(1.0 - alpha2 * np.cos(t) ** 2)), theta_grid)
    return CubicSpline(y_grid, theta_grid), y_grid[-1]


def theta_of_y_quadrature(y: float, params: SurfaceParams) -> float:
    """Cross-check path for theta(y): dense cumulative quadrature of the
    defining integral, inverted by spline interpolation."""
    spline, a = _theta_inversion_table(params.n, params.m)
    cycles = math.floor(y / a)
    return float(spline(y - cycles * a)) + 2.0 * math.pi * cycles


def metric_f_array(y, params: SurfaceParams) -> np.ndarray:
    """Conformal factor f(y) = (m^2+n^2)/2 - m^2 cos^2(theta(y)) of the
    metric f (dx^2 + dy^2); f > 0 with f(y) = f(-y) = f(y + a/2)."""
    K = complete_K(params.modulus)
    sn, _, _ = _sncndn_array(K - params.n * np.asarray(y, float), params.modulus)
    return (params.m ** 2 + params.n ** 2) / 2.0 - params.m ** 2 * sn ** 2


# ---------------------------------------------------------------------------
# immersions
# ---------------------------------------------------------------------------

def _sq(x) -> np.ndarray:
    """x ** 2 elementwise, rounded as Python's float power rounds it (the
    C library's pow).  numpy squares by x * x, which differs from pow in
    the last bit for about one value in a thousand; pow keeps every mesh
    bit-identical to the point-by-point evaluation."""
    x = np.asarray(x, float)
    return np.fromiter(map(pow, x.ravel().tolist(), repeat(2)), float, x.size).reshape(x.shape)


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
    w = np.sqrt(r * r * _sq(cv) + k * k * _sq(sv))
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


def bipolar_immersion_array(u, v, params: SurfaceParams) -> np.ndarray:
    """Bipolar surface points at 1-D arrays u, v, one row (x1..x5) each,
    built as the wedge I ^ I* of the Lawson immersion with its normal,
    rotated by the block matrix A and projected onto the S^4 equator (see
    EXCLUDED_DIRECTION_NOTE for the basis).  A is applied one point at a
    time by a stacked matmul, which keeps every row bit-identical to the
    one-point evaluation; a single 2-D product rounds differently."""
    r, k = params.r, params.k
    wedge = _wedge6(lawson_I(u, v, r, k), lawson_normal(u, v, r, k))
    w6 = np.matmul(_A_BLOCKS, wedge.T[:, :, None])[:, :, 0]
    return _project5(w6, r, k, u, v)


def bipolar_immersion(u: float, v: float, params: SurfaceParams) -> ImmersionPoint5:
    """The one-point case of bipolar_immersion_array."""
    coords = bipolar_immersion_array(np.array([u], float), np.array([v], float), params)
    return ImmersionPoint5(coords=coords[0])


def bipolar_column(u, v, r: int, k: int) -> np.ndarray:
    """Closed-form 6-vector of the rotated bipolar immersion A o (I ^ I*);
    u and v are scalars or equal-shape arrays, components along axis 0."""
    w = np.sqrt(r * r * _sq(np.cos(v)) + k * k * _sq(np.sin(v)))
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


def parambip_column(u: float, v: float, params: SurfaceParams) -> np.ndarray:
    """Odd-rk form of the closed-form column, written in (n, m)."""
    if params.parity_class is ParityClass.EVEN_RK:
        raise InvalidParametersError("the (n, m) column form applies to odd rk only")
    n, m = params.n, params.m
    P = (n + m) ** 2 - 4.0 * m * n * math.sin(v) ** 2
    pref = 1.0 / (_SQRT2 * math.sqrt(P))
    c2v = math.cos(2 * v)
    return pref * np.array([
        m * math.sin(2 * v),
        n * math.sin(2 * v),
        (m + n * c2v) * math.sin(2 * m * u),
        (n + m * c2v) * math.sin(2 * n * u),
        (n + m * c2v) * math.cos(2 * n * u),
        (m + n * c2v) * math.cos(2 * m * u),
    ])


def bipolar_metric(u: float, v: float, params: SurfaceParams) -> tuple[float, float]:
    """Diagonal first-fundamental-form coefficients (g_uu, g_vv) of the
    bipolar surface in the (u, v) chart.  There is no cross term."""
    r, k = params.r, params.k
    w2 = r * r - (r * r - k * k) * math.sin(v) ** 2
    mcoef = (w2 * w2 + r * r * k * k) / w2
    return mcoef, mcoef / w2


# ---------------------------------------------------------------------------
# chart changes H1, H2, H3, H3'
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _z_table(n: int, m: int):
    """Cumulative quadrature of dz/dv = 1/((n+m) sqrt(1 - kh^2 sin^2 v))."""
    kh2 = (2.0 * math.sqrt(m * n) / (n + m)) ** 2
    v_grid = np.linspace(0.0, math.pi, 2049)
    z_grid = _cumulative_gauss(
        lambda t: 1.0 / ((n + m) * np.sqrt(1.0 - kh2 * np.sin(t) ** 2)), v_grid)
    return CubicSpline(v_grid, z_grid), z_grid[-1]


def z_of_v(v: float, params: SurfaceParams) -> float:
    """The H1 substitution z(v); quadrature table seed polished by Newton
    on the Jacobi-amplitude inverse v = am((n+m) z, kh)."""
    n, m = params.n, params.m
    spline, z_half = _z_table(n, m)
    cycles = math.floor(v / math.pi)
    vr = v - cycles * math.pi
    z = float(spline(vr)) + cycles * z_half
    kh = params.h_modulus
    s = n + m
    for _ in range(3):
        resid = jacobi_am(s * z, kh) - v
        z -= resid / (s * math.sqrt(1.0 - (kh.k * math.sin(v)) ** 2))
    return z


def v_of_z(z: float, params: SurfaceParams) -> float:
    """Inverse of the H1 substitution, v = am((n+m) z, kh)."""
    return jacobi_am((params.n + params.m) * z, params.h_modulus)


def h_transforms(point: tuple[float, float], which: HTransform,
                 params: SurfaceParams) -> tuple[float, float]:
    """Apply one of the chart transforms.

    H1: (u, v) -> (u, z(v));  H2: (u, z) -> (u + pi/2, a/4 - z);
    H3: (u, z) -> (u, 2z + K(m/n)/n);  H3': (u, z) -> (2u, 2z + K(m/n)/n).
    """
    x0, x1 = point
    if which is HTransform.H1:
        return x0, z_of_v(x1, params)
    if which is HTransform.H2:
        return x0 + math.pi / 2.0, period_a(params) / 4.0 - x1
    shift = complete_K(params.modulus) / params.n
    if which is HTransform.H3:
        return x0, 2.0 * x1 + shift
    if which is HTransform.H3PRIME:
        return 2.0 * x0, 2.0 * x1 + shift
    raise ValueError(f"unknown transform {which!r}")


def h1_inverse(point: tuple[float, float], params: SurfaceParams) -> tuple[float, float]:
    """(u, z) -> (u, v) with v = am((n+m) z, kh)."""
    return point[0], v_of_z(point[1], params)


def klein_deck_map(u: float, v: float, params: SurfaceParams) -> tuple[float, float]:
    """The composite H1^{-1} o H2 o H1 turning the torus into a Klein bottle
    when n is even and m is odd; the immersion is pointwise invariant."""
    p = h_transforms((u, v), HTransform.H1, params)
    p = h_transforms(p, HTransform.H2, params)
    return h1_inverse(p, params)


# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------

def area_closed_form(params: SurfaceParams) -> float:
    """Area 4 pi (n+m) E(2 sqrt(mn)/(m+n)), halved for a Klein bottle."""
    full = 4.0 * math.pi * (params.n + params.m) * complete_E(params.h_modulus)
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
    return np.column_stack((u, v, bipolar_immersion_array(u, v, params)))


# every value is rendered with 17 significant digits, so files round-trip
# double precision exactly; one %-format call renders a whole mesh
_COLUMNS = ["u", "v", "x1", "x2", "x3", "x4", "x5"]
_CSV_ROW = ",".join(["%.17g"] * 7) + "\n"
_JSON_ROW = "  [\n" + ",\n".join(['   "%.17g"'] * 7) + "\n  ]"


def _values(rows: np.ndarray) -> tuple:
    return tuple(np.asarray(rows, float).ravel().tolist())


def write_immersion_csv(stream: IO[str], params: SurfaceParams, rows: np.ndarray) -> None:
    stream.write(f"# r={params.r} k={params.k} n={params.n} m={params.m} "
                 f"topology={params.topology.value}\n")
    stream.write(",".join(_COLUMNS) + "\n")
    stream.write(_CSV_ROW * len(rows) % _values(rows))


def write_immersion_json(stream: IO[str], params: SurfaceParams, rows: np.ndarray) -> None:
    """The document json.dump(indent=1) would write with every value a
    17-digit string; the rows are rendered by one %-format call."""
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
        body = ",\n".join([_JSON_ROW] * len(rows)) % _values(rows)
        text = f"{head}[\n{body}\n ]{tail}"
    stream.write(text + "\n")
