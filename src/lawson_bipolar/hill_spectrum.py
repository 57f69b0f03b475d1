"""Periodic spectrum of the Hill equation phi'' + [lambda f(y) - p^2] phi = 0.

For each Fourier index p the eigenvalues gamma_i(p) of the a-periodic
problem come from Hill's method (Deconinck & Kutz, J. Comput. Phys. 219,
2006), a Fourier-Galerkin truncation of -phi'' + p^2 phi = lambda f phi.
As f is even with period b = a/2, it splits exactly into four
symmetric-definite blocks: cosine or sine modes give the eigenfunction
parity, even or odd mode index a b-periodic (Psi = +2) or b-antiperiodic
(Psi = -2) eigenfunction, Psi = z1(b) + z2'(b) being the Floquet
discriminant of the fundamental pair over the half period.

The eigenvalues come from the blocks alone.  The Floquet propagation is
kept as an independent oracle for the verification battery: the
fixed-step RK8 scheme of rk8, in Nystrom form, taken as a product of
per-step transfer matrices from f precomputed at the stage nodes, each
carried less the identity, built and multiplied a tile of steps x
(p, lambda) columns at a time, so its stage arrays stay under half a
megabyte whatever the steps and columns.

The extremal rank and the multiplicity-5 cluster at lambda = 2 come from
each block's 2F - diag(k_j^2), certified to hold the ell = 1 Lame cluster,
under the torus or Klein-bottle selection rules, with no line solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import rk8
from .special_functions import EllipticModulus, complete_E, complete_K
from .surface_model import (
    SurfaceParams,
    Topology,
    ParityClass,
    area_closed_form,
    derive_params,
    metric_f_array,
    period_a,
)

__all__ = [
    "SpectrumMismatchError",
    "Parity",
    "BLOCKS",
    "CLUSTER",
    "Eigenvalue",
    "SpectralLine",
    "ExtremalReport",
    "floquet",
    "branch_monotonicity",
    "extremal_rank",
    "rank_formula",
    "RANK_FORMULAS",
    "surface_lines",
    "eigenfunction_samples",
    "count_zeros",
    "DEFAULT_SOLVER_TOL",
    "CLUSTER_TOL",
    "EIGENFUNCTION_SAMPLES",
    "ZERO_SAMPLE_TOL",
]

DEFAULT_SOLVER_TOL = 1e-9
#: the cluster's mu lie within CLUSTER_TOL n^2 of p^2, every other mu below
#: -CLUSTER_TOL n^2; the members at p = 0 and 1 carry rounding near u n^2
CLUSTER_TOL = 1e-12
#: top of every scanned spectral line, just past lambda = 2; it must stay
#: below 3, where coexistence becomes possible and an eigenvalue shared by
#: an even and an odd eigenfunction has no single parity label
LAMBDA_MAX_COUNT = 2.0513713
#: most Galerkin modes per parity block: frequencies 2 pi j / a with j <= 2 N_MODES
N_MODES = 48
#: largest bound on the coefficients of f that N modes drop, sum_(j >= N) |c_2j|,
#: over c_0, that the truncation accepts
TAIL_BOUND = 1e-12
#: modes each block gets past the fewest that meet TAIL_BOUND, and the fewest
#: any block gets
MODE_MARGIN = 2
MIN_MODES = 6
#: samples of an eigenfunction over one period
EIGENFUNCTION_SAMPLES = 2048
#: a sample at most this fraction of the largest |sample| counts as a zero
ZERO_SAMPLE_TOL = 1e-9
#: most steps x columns of one tile of the Floquet propagation (about
#: 0.4 MB of stage arrays, whatever the number of steps and columns)
_TILE = 1 << 11
#: matrix entries of one batched eigvalsh of the line scan (1 MB a stack)
_SCAN_BLOCK = 1 << 17


class SpectrumMismatchError(RuntimeError):
    """Numerically counted spectrum disagrees with the closed-form count."""


class Parity(Enum):
    EVEN = "Even"
    ODD = "Odd"


#: (parity, psi_target) of the four Galerkin blocks, in the order they are stacked
BLOCKS = ((Parity.EVEN, 2.0), (Parity.EVEN, -2.0), (Parity.ODD, 2.0), (Parity.ODD, -2.0))
#: the blocks whose largest mu is p^2 on line p = 0, m, n: phi0, phi1 and phi2
#: of the cluster at lambda = 2, Lame's band edges sn, cn and dn
CLUSTER = ((Parity.EVEN, -2.0), (Parity.ODD, -2.0), (Parity.EVEN, 2.0))


def _q(p2: np.ndarray, lam: np.ndarray, f: np.ndarray) -> np.ndarray:
    """p2 - lam f in one array, with no second temporary of a tile's size:
    with one, a tile's arrays outgrow what the allocator keeps after the
    first call, and every later call faults its pages back in (about 420
    at (8, 1))."""
    q = np.multiply(lam, f)
    return np.subtract(p2, q, out=q)


def _propagate(params: SurfaceParams, p2, lam, y_start: float, y_end: float,
               n_steps: int) -> np.ndarray:
    """Fundamental pair of the Hill equation at y_end, started as z1 = 1,
    z1' = 0, z2 = 0, z2' = 1 at y_start, batched over columns.

    The equation is z'' = q z with q = p^2 - lambda f, f taken once at the
    stage nodes y_start + (step + c_i) h of all steps.  The RK8 step
    matrices, less the identity, are multiplied pairwise, later @
    earlier, by rk8.tiled_product, and the identity is added back to the
    product: columns go in blocks of at most _TILE / 16, and
    the steps of a block in tiles of the largest power of two that keeps
    a tile within _TILE steps x columns, each built and reduced before
    the next.  Each column's result does not depend on the others.

    Returns shape (4, B): rows z1, z1', z2, z2'.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    p2 = np.broadcast_to(np.asarray(p2, dtype=float), lam.shape)
    h = (y_end - y_start) / n_steps
    nodes = y_start + (np.arange(n_steps)[:, None] + rk8.C[None, :]) * h
    f = metric_f_array(nodes.ravel(), params).reshape(n_steps, 11).T[:, :, None]
    cols = lam.shape[0]
    # blocks of at most _TILE / 16 columns, so that a tile spans 16 steps
    # or more
    width = min(cols, _TILE >> 4) or 1
    tile = 1 << (_TILE // width).bit_length() - 1
    out = np.empty((4, cols))
    for lo in range(0, cols, width):
        p2_block, lam_block = p2[lo:lo + width], lam[lo:lo + width]
        prod = rk8.tiled_product(lambda steps: _q(p2_block, lam_block, f[:, steps]),
                                 n_steps, h, tile)
        out[:, lo:lo + width] = prod[[0, 2, 1, 3], 0]
    out[0] += 1.0
    out[3] += 1.0
    return out


# ---------------------------------------------------------------------------
# public data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eigenvalue:
    """One located root gamma_index(p) with its parity label."""

    gamma: float
    index: int
    parity: Parity
    psi_target: float          # +2 (b-periodic) or -2 (b-antiperiodic)


@dataclass(frozen=True)
class SpectralLine:
    """Ordered eigenvalues of one Fourier index p, gamma_0 < gamma_1 <= ..."""

    p: float
    eigenvalues: tuple[Eigenvalue, ...]


@dataclass(frozen=True)
class ExtremalReport:
    """Rank and multiplicity data for one surface."""

    params: SurfaceParams
    rank_i: int
    multiplicity: int
    lambda_functional: float
    cluster_gap: float         # worst |mu - p^2| / n^2 of the cluster
    next_mu: float             # largest mu / n^2 outside the cluster
    modes: int                 # Galerkin modes per block
    nome: float                # q of the profile's modulus
    tail: float                # bound on the coefficients of f the modes drop, over c_0
    residuals: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def _half_steps(params: SurfaceParams) -> int:
    """N/2 for floquet's grid of N steps over the half period b: the step
    count that b needs at DEFAULT_SOLVER_TOL, rounded up to even."""
    b = period_a(params) / 2.0
    return (rk8.steps_for(params.n, params.m, DEFAULT_SOLVER_TOL, b) + 1) // 2


def floquet(p, lam, params: SurfaceParams, y_end=None):
    """(z1, z1', z2, z2') at y_end, by default the half period b = a/2, of
    the fundamental pair z1 = 1, z1' = 0, z2 = 0, z2' = 1 at y = 0.  The
    Floquet discriminant is Psi = z1(b) + z2'(b); eigenvalues solve
    Psi^2 = 4.

    y_end is b, b/2 or a tuple of these, which gives one result per entry;
    any other y_end raises ValueError.  Scalar p and lam give four floats,
    1-D arrays four arrays.  Both ends lie on one grid of N steps of
    h = b/N, N the step count that b needs at DEFAULT_SOLVER_TOL rounded up
    to even: the pair at b/2 takes the first N/2 steps, and the pair at b
    is the product of the last N/2, with stage nodes from b/2 on, times
    the pair at b/2.
    """
    ps, lams = np.broadcast_arrays(np.asarray(p, float), np.asarray(lam, float))
    if not (np.all(np.isfinite(lams)) and np.all(np.isfinite(ps)) and np.all(ps >= 0)):
        raise ValueError("need finite lambda and finite p >= 0")
    b = period_a(params) / 2.0
    c = b / 2.0
    ends = y_end if isinstance(y_end, tuple) else (b if y_end is None else y_end,)
    if not all(end in (c, b) for end in ends):     # also false for a NaN
        raise ValueError(f"need y_end b/2 or b, or a tuple of them, b = {b!r}; "
                         f"got {y_end!r}")
    p2, half = ps * ps, _half_steps(params)
    pairs = {c: _propagate(params, p2, lams, 0.0, c, half)}
    if b in ends:
        x1, dx1, x2, dx2 = pairs[c]
        y1, dy1, y2, dy2 = _propagate(params, p2, lams, c, b, half)
        pairs[b] = np.array([y1 * x1 + y2 * dx1, dy1 * x1 + dy2 * dx1,
                             y1 * x2 + y2 * dx2, dy1 * x2 + dy2 * dx2])
    out = tuple(tuple(pairs[end][:, 0].tolist()) if lams.ndim == 0 else tuple(pairs[end])
                for end in ends)
    return out if isinstance(y_end, tuple) else out[0]


# ---------------------------------------------------------------------------
# Hill's method: Fourier-Galerkin parity blocks
# ---------------------------------------------------------------------------

def _nome_series(params: SurfaceParams) -> tuple[float, float, float]:
    """(q, s, c_0) of the cosine coefficients of f = (m^2-n^2)/2 +
    n^2 dn^2(K - n y, m/n): c_0 = (m^2-n^2)/2 + n^2 E/K and c_2j =
    s (-1)^j j q^j / (1 - q^2j), s = (pi n/K)^2, with the nome
    q = exp(-pi K'/K) (DLMF 22.11.13).  K' swaps k and k' of the modulus,
    which keeps it accurate where k' rounds to 1."""
    n, mod = params.n, params.modulus
    K = complete_K(mod)
    q = math.exp(-math.pi * complete_K(EllipticModulus(mod.k_prime, mod.k)) / K)
    return q, (math.pi * n / K) ** 2, (params.m ** 2 - n * n) / 2.0 + n * n * complete_E(mod) / K


def _truncation(params: SurfaceParams) -> tuple[np.ndarray, float, float]:
    """(c, q, tail): c_0..c_4N of f from its nome series, with N the
    Galerkin modes per block the nome q needs, and the bound on the
    coefficients of f they drop, over c_0.

    N modes leave out c_2j for j >= N, whose sum is at most
    s q^N (N - (N-1) q) / ((1-q)^2 (1-q^2N)), as |c_2j| <= s j q^j / (1-q^2N)
    there.  N is the fewest modes that bring this within TAIL_BOUND c_0,
    plus MODE_MARGIN, and at least MIN_MODES; tail is the bound at that N.
    Raises SpectrumMismatchError where N would pass N_MODES."""
    q, s, c0 = _nome_series(params)
    counts = np.arange(1, N_MODES + 1)
    tails = (s / c0) * q ** counts * (counts - (counts - 1) * q) / (
        (1.0 - q) ** 2 * (1.0 - q ** (2 * counts)))
    fits = np.flatnonzero(tails <= TAIL_BOUND)
    where = f"Fourier tail of f for (n,m)=({params.n},{params.m}) at nome q = {q:.6g}"
    if not fits.size:
        raise SpectrumMismatchError(
            f"{where}: no count up to N_MODES = {N_MODES} modes per block brings it "
            f"within TAIL_BOUND = {TAIL_BOUND:g} c_0; at {N_MODES} it is "
            f"{tails[-1]:.3e} c_0")
    fewest = int(fits[0]) + 1
    modes = max(fewest + MODE_MARGIN, MIN_MODES)
    if modes > N_MODES:
        raise SpectrumMismatchError(
            f"{where} asks for {modes} modes per block: {fewest}, the fewest whose tail "
            f"({tails[fewest - 1]:.3e} c_0) is within TAIL_BOUND = {TAIL_BOUND:g} c_0, "
            f"and MODE_MARGIN = {MODE_MARGIN} more, above N_MODES = {N_MODES}")
    i = np.arange(1, 2 * modes + 1)
    c = np.zeros(4 * modes + 1)
    c[0] = c0
    c[2::2] = s * (-1.0) ** i * i * q ** i / (1.0 - q ** (2 * i))
    return c, q, float(tails[modes - 1])


class _Blocks(NamedTuple):
    """The reduced blocks of one profile, each array stacked over BLOCKS,
    and the truncation they were built with."""

    j: np.ndarray     # (4, N) mode indices
    R: np.ndarray     # (4, N, N) inverse Cholesky factors of F
    A: np.ndarray     # (4, N, N) R diag(k_j^2) R^T
    G: np.ndarray     # (4, N, N) R R^T
    mu: np.ndarray    # (4, N) eigenvalues of 2F - diag(k_j^2), ascending
    nome: float       # q of the profile's modulus
    tail: float       # bound on the coefficients of f the N modes drop, over c_0


@lru_cache(maxsize=64)
def _galerkin_blocks(params: SurfaceParams) -> _Blocks:
    """The four blocks of the profile, stacked in the order of BLOCKS, each
    of the N modes that _truncation gives for the profile's nome.

    With c_l = (1/a) int_0^a f(y) cos(2 pi l y / a) dy, f acts on the
    orthonormal cosine modes as F_ij = c_|i-j| + c_(i+j) (the j = 0 mode
    scaled by 1/sqrt 2) and on the sine modes as c_|i-j| - c_(i+j).  As f
    has period a/2, c_l vanishes for odd l and each block splits again by
    the parity of j: even j are b-periodic (Psi = +2), odd j
    b-antiperiodic (Psi = -2).  Each block's eigenvalues at p solve
    diag(k_j^2 + p^2) v = lambda F v.  With F = L L^T and R = L^-1 that is
    the standard problem (A + p^2 G) w = lambda w, A = R diag(k_j^2) R^T,
    G = R R^T, v = R^T w: one Cholesky reduction serves every line.
    mu holds the eigenvalues of 2F - diag(k_j^2), ascending; F is positive
    definite, so by Sylvester's law of inertia the block has as many
    eigenvalues below 2 on line p as mu has entries above p^2.
    """
    a = period_a(params)
    c, nome, tail = _truncation(params)
    modes = (c.size - 1) // 4
    j = np.array([[0], [1], [2], [1]]) + 2 * np.arange(modes)
    sign = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]
    # |j_i - j_k| is the same in every block
    F = c[np.abs(j[0, :, None] - j[0])] + sign * c[j[:, :, None] + j[:, None]]
    F[0, 0] /= math.sqrt(2.0)
    F[0, :, 0] /= math.sqrt(2.0)
    k2 = (2.0 * math.pi * j / a) ** 2
    mu = np.linalg.eigvalsh(2.0 * F - k2[:, :, None] * np.eye(modes))
    R = np.linalg.inv(np.linalg.cholesky(F))
    Rt = R.transpose(0, 2, 1)
    arrays = (j, R, (R * k2[:, None]) @ Rt, R @ Rt, mu)
    for arr in arrays:
        arr.flags.writeable = False
    return _Blocks(*arrays, nome, tail)


def _scan_lines(params: SurfaceParams, p_values: Sequence[float]) -> list[SpectralLine]:
    """All eigenvalues <= LAMBDA_MAX_COUNT on several lines, one eigvalsh
    call over the four blocks of every line (of _SCAN_BLOCK entries at
    most), each line checked against the interlacing sign pattern."""
    blocks = _galerkin_blocks(params)
    p2 = np.square(np.asarray(p_values, dtype=float))[:, None, None, None]
    width = max(1, _SCAN_BLOCK // blocks.G.size)
    solved = [gammas for lo in range(0, len(p2), width)
              for gammas in np.linalg.eigvalsh(blocks.A + p2[lo:lo + width] * blocks.G)]
    lines = []
    for p, gammas in zip(p_values, solved):
        roots = sorted(
            ((float(g), parity, target)
             for (parity, target), row in zip(BLOCKS, gammas)
             for g in row[row <= LAMBDA_MAX_COUNT]),
            key=lambda root: root[0])
        eigs = tuple(Eigenvalue(gamma=g, index=i, parity=parity, psi_target=target)
                     for i, (g, parity, target) in enumerate(roots))
        line = SpectralLine(p=p, eigenvalues=eigs)
        _check_sign_pattern(line)
        lines.append(line)
    return lines


def _check_sign_pattern(line: SpectralLine) -> None:
    """The target signs must follow the +, -, -, +, +, -, -, ... interlacing;
    a violation means a block lost or gained an eigenvalue."""
    targets = [e.psi_target for e in line.eigenvalues]
    if targets != [2.0 if (i + 1) // 2 % 2 == 0 else -2.0
                   for i in range(len(targets))]:
        raise SpectrumMismatchError(
            f"discriminant sign pattern broken on line p={line.p}: {targets}")


def surface_lines(params: SurfaceParams) -> tuple[SpectralLine, ...]:
    """Spectral lines p = 0..n+1 up to just past lambda = 2."""
    return tuple(_scan_lines(params, list(range(params.n + 2))))


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

def branch_monotonicity(params: SurfaceParams, branch_index: int,
                        p_grid: Sequence[float]) -> np.ndarray:
    """gamma_{branch_index}(p) on a real p grid, one entry per grid point.

    No production caller reads it: it stays because perfbench/trace.py
    times it (the hill_spectrum.monotonicity_s metrics), and goes when the
    benchmark is next revised."""
    gammas = []
    for line in _scan_lines(params, list(p_grid)):
        if branch_index >= len(line.eigenvalues):
            raise SpectrumMismatchError(
                f"branch {branch_index} not found at p={line.p}")
        gammas.append(line.eigenvalues[branch_index].gamma)
    return np.array(gammas)


# ---------------------------------------------------------------------------
# counting and the extremal rank
# ---------------------------------------------------------------------------

def _keeps(parity: Parity, p: int, topology: Topology) -> bool:
    """Klein-bottle selection: cos(px) phi(y) survives the deck map
    (x, y) -> (x + pi, -y) iff (-1)^p matches the parity of phi."""
    return topology is Topology.TORUS or (p % 2 == 0) == (parity is Parity.EVEN)


def _cluster(params: SurfaceParams) -> tuple[tuple, float, float]:
    """The certificate of the cluster at lambda = 2: the largest mu of each
    CLUSTER block is p^2 on line p = 0, m, n within CLUSTER_TOL n^2, and
    every other mu is below -CLUSTER_TOL n^2, so below 2 on no line.
    Returns the members ((parity, psi_target), p, mu), the worst |mu - p^2|
    and the next mu, both over n^2; raises SpectrumMismatchError otherwise."""
    mu = _galerkin_blocks(params).mu
    rows, lines = [BLOCKS.index(block) for block in CLUSTER], (0, params.m, params.n)
    rest = mu.copy()
    rest[rows, -1] = -np.inf
    # squared in float64: an int64 n^2 wraps once n > 3.04e9
    squares = np.square(lines, dtype=float)
    gap = float(np.max(np.abs(mu[rows, -1] - squares))) / params.n ** 2
    next_mu = float(np.max(rest)) / params.n ** 2
    if not (gap <= CLUSTER_TOL and next_mu < -CLUSTER_TOL):
        tops = ", ".join(f"({parity.value}, Psi={target:+g}) {x!r}"
                         for (parity, target), x in zip(BLOCKS, mu[:, -1].tolist()))
        raise SpectrumMismatchError(
            f"no cluster at lambda = 2 for {params}: worst gap |mu - p^2| = {gap:.3e} n^2, "
            f"next mu = {next_mu:.3e} n^2, bound {CLUSTER_TOL:g} n^2; "
            f"each block's largest mu: {tops}")
    return tuple(zip(CLUSTER, lines, mu[rows, -1].tolist())), gap, next_mu


def _line_weight(lines: int, parity: Parity, topology: Topology) -> int:
    """Weight of the lines p = 0..lines-1 the topology keeps for a root of
    this parity: 1 for p = 0, 2 (cos px and sin px) for each p > 0."""
    kept = lines if topology is Topology.TORUS else (lines + (parity is Parity.EVEN)) // 2
    return 2 * kept - (lines > 0 and _keeps(parity, 0, topology))


def _count_below(params: SurfaceParams, members: tuple) -> tuple[int, tuple]:
    """(count, contributing): the nonzero eigenvalues below lambda = 2, each
    member of _cluster on the kept lines below its p, less the zero mode
    (the constants), and the members that add, as (parity, psi_target, mu, weight)."""
    weights = [_line_weight(p, parity, params.topology) for (parity, _), p, _ in members]
    weights[-1] -= 1      # the zero mode; members[-1] is block (EVEN, +2)
    contributing = tuple((parity.value, target, mu, w)
                         for ((parity, target), _, mu), w in zip(members, weights) if w)
    return sum(weights), contributing


def _multiplicity(params: SurfaceParams, members: tuple) -> tuple[int, tuple]:
    """Weighted count of the eigenvalues lambda = 2, the members of
    _cluster on a line p the topology keeps, as (p, branch_index, mu,
    parity, weight); the branch index counts the roots below 2 on line p."""
    cluster = tuple((p, sum(q > p for _, q, _ in members), mu, parity.value,
                     1 if p == 0 else 2)
                    for (parity, _), p, mu in members if _keeps(parity, p, params.topology))
    return sum(entry[-1] for entry in cluster), cluster


#: each parity class's closed-form extremal rank s r - 2, as (words, s)
RANK_FORMULAS = {
    ParityClass.EVEN_RK: ("4r-2", 4),
    ParityClass.RK_1_MOD_4: ("2r-2", 2),
    ParityClass.RK_3_MOD_4: ("r-2", 1),
}


def rank_formula(params: SurfaceParams) -> int:
    """Closed-form extremal rank: 4r-2, 2r-2, or r-2 by parity class."""
    return RANK_FORMULAS[params.parity_class][1] * params.r - 2


def extremal_rank(r: int, k: int) -> ExtremalReport:
    """Smallest index i with lambda_i = 2 and the multiplicity of 2.

    Both follow from one certificate of _cluster, which also gives the
    report its worst gap and next mu, and the blocks give its modes, nome
    and tail.  Reports the anchor residuals of
    gamma_0(0) = 0, gamma_2(0) = gamma_1(m) = gamma_0(n) = 2, each the
    lowest root of its block: the constants and phi2 of (EVEN, +2), phi0
    of (EVEN, -2) and phi1 of (ODD, -2).
    """
    params = derive_params(r, k)
    members, gap, next_mu = _cluster(params)
    rank = _count_below(params, members)[0] + 1
    mult, _ = _multiplicity(params, members)
    blocks = _galerkin_blocks(params)
    anchors = zip(map(BLOCKS.index, ((Parity.EVEN, 2.0),) + CLUSTER), (0, 0, params.m, params.n))
    g00, g20, g1m, g0n = np.linalg.eigvalsh(np.stack(
        [blocks.A[b] + (p * p) * blocks.G[b] for b, p in anchors]))[:, 0].tolist()
    residuals = {
        "anchor_gamma0_at_0": abs(g00),
        "anchor_gamma2_at_0": abs(g20 - 2.0),
        "anchor_gamma1_at_m": abs(g1m - 2.0),
        "anchor_gamma0_at_n": abs(g0n - 2.0),
    }
    return ExtremalReport(params=params, rank_i=rank, multiplicity=mult,
                          lambda_functional=2.0 * area_closed_form(params),
                          cluster_gap=gap, next_mu=next_mu, modes=blocks.j.shape[1],
                          nome=blocks.nome, tail=blocks.tail, residuals=residuals)


# ---------------------------------------------------------------------------
# eigenfunction reconstruction
# ---------------------------------------------------------------------------

def eigenfunction_samples(params: SurfaceParams, parity: Parity,
                          psi_target: float, p: float):
    """(gamma, ys, values): the lowest root gamma of the (parity,
    psi_target) block on line p, and its eigenfunction sampled at
    EIGENFUNCTION_SAMPLES points ys of [0, a), scaled like z1 (even,
    phi(0) = 1) or z2 (odd, phi'(0) = 1).

    Sums the cosine or sine series R^T w of the block's lowest
    eigenvector w by Horner's rule: on the grid ys_t = a t / N the mode
    j = j_0 + 2 l is z_t^j with z_t = exp(2 pi i t / N), so the series is
    z^j_0 times a polynomial in z^2, and its real part (cosines) or
    imaginary part (sines) is the sample.  As z_(t + N/2) = -z_t, the
    second half of the grid repeats the first times (-1)^j_0.
    Raises ValueError for a non-finite p or an unknown block.
    """
    if not math.isfinite(p):
        raise ValueError(f"need a finite p; got {p!r}")
    if (parity, psi_target) not in BLOCKS:
        raise ValueError(f"no block ({parity!r}, {psi_target!r}); the blocks are "
                         f"{', '.join(f'({b[0].name}, {b[1]:+g})' for b in BLOCKS)}")
    blocks, b = _galerkin_blocks(params), BLOCKS.index((parity, psi_target))
    j = blocks.j[b]
    w, v = np.linalg.eigh(blocks.A[b] + (p * p) * blocks.G[b])
    coef = blocks.R[b].T @ v[:, 0]
    a = period_a(params)
    n = EIGENFUNCTION_SAMPLES
    ys = a * np.arange(n) / n
    z = np.exp((2j * math.pi / n) * np.arange(n // 2))
    z2 = z * z
    if parity is Parity.EVEN:
        coef = np.where(j == 0, coef / math.sqrt(2.0), coef)
        norm = coef.sum()
    else:
        norm = (2.0 * math.pi * j / a) @ coef
    series = np.full(n // 2, coef[-1], complex)
    for c in coef[-2::-1].tolist():
        series *= z2
        series += c
    series *= (1.0, z, z2)[j[0]]
    half = (series.real if parity is Parity.EVEN else series.imag) / norm
    return float(w[0]), ys, np.concatenate((half, -half if j[0] % 2 else half))


def count_zeros(values: np.ndarray) -> int:
    """Zeros of a sampled function on one period (sign changes plus
    isolated zero samples; a zero run and its sign flip count once).  The
    last sample neighbours the first: a sign change between them counts,
    and a zero run at both ends is one run.
    Raises ValueError for an empty or non-finite array."""
    values = np.asarray(values, float)
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise ValueError("need a non-empty array of finite samples")
    scale = float(np.max(np.abs(values)))
    sign = np.where(np.abs(values) <= ZERO_SAMPLE_TOL * scale, 0, np.sign(values))
    zero = sign == 0
    if zero.all():
        return 1
    runs = np.count_nonzero(zero & ~np.roll(zero, 1))
    flips = np.count_nonzero(sign * np.roll(sign, 1) < 0)
    return int(runs + flips)
