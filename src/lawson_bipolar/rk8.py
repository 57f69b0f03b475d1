"""The Cooper-Verner eighth-order Runge-Kutta scheme (Cooper & Verner,
SIAM J. Numer. Anal. 9, 1972) beneath both integrators of the package:
the profile system of phi_system and the Floquet oracle of
hill_spectrum.

Both integrate second-order systems y'' = g(y) with no y' term, so both
step in the tableau's Nystrom form, whose stages need the values of y
alone.  The module holds the tableau and that form, and the batched
step of the linear z'' = q z with the product of its steps, whole or
tile by tile.  Each integrator takes its own step count: the profile
from its error model, phi_system.profile_steps, and the Floquet oracle
from hill_spectrum._half_steps.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["C", "A", "B", "A_BAR", "B_BAR", "step_matrices",
           "pairwise_product", "tiled_product"]

# stage sums keep sqrt(21) exactly
_S21 = math.sqrt(21.0)
#: the stage nodes c_i
C = np.array([0.0, 0.5, 0.5, (7 + _S21) / 14, (7 + _S21) / 14, 0.5,
              (7 - _S21) / 14, (7 - _S21) / 14, 0.5, (7 + _S21) / 14, 1.0])
#: row i holds the nonzero (j, a_ij) of stage i
A = [
    [],
    [(0, 0.5)],
    [(0, 0.25), (1, 0.25)],
    [(0, 1 / 7), (1, (-7 - 3 * _S21) / 98), (2, (21 + 5 * _S21) / 49)],
    [(0, (11 + _S21) / 84), (2, (18 + 4 * _S21) / 63), (3, (21 - _S21) / 252)],
    [(0, (5 + _S21) / 48), (2, (9 + _S21) / 36), (3, (-231 + 14 * _S21) / 360),
     (4, (63 - 7 * _S21) / 80)],
    [(0, (10 - _S21) / 42), (2, (-432 + 92 * _S21) / 315),
     (3, (633 - 145 * _S21) / 90), (4, (-504 + 115 * _S21) / 70),
     (5, (63 - 13 * _S21) / 35)],
    [(0, 1 / 14), (4, (14 - 3 * _S21) / 126), (5, (13 - 3 * _S21) / 63), (6, 1 / 9)],
    [(0, 1 / 32), (4, (91 - 21 * _S21) / 576), (5, 11 / 72),
     (6, (-385 - 75 * _S21) / 1152), (7, (63 + 13 * _S21) / 128)],
    [(0, 1 / 14), (4, 1 / 9), (5, (-733 - 147 * _S21) / 2205),
     (6, (515 + 111 * _S21) / 504), (7, (-51 - 11 * _S21) / 56),
     (8, (132 + 28 * _S21) / 245)],
    [(4, (-42 + 7 * _S21) / 18), (5, (-18 + 28 * _S21) / 45),
     (6, (-273 - 53 * _S21) / 72), (7, (301 + 53 * _S21) / 72),
     (8, (28 - 28 * _S21) / 45), (9, (49 - 7 * _S21) / 18)],
]
#: the nonzero (i, b_i) of the weights
B = [(0, 1 / 20), (7, 49 / 180), (8, 16 / 45), (9, 49 / 180), (10, 1 / 20)]
_C = C.tolist()


def _times_a(terms: list) -> list:
    """The nonzero (j, sum_k x_k a_kj) of the (k, x_k) in terms, in order
    of j, each sum correctly rounded from its float products.  A sum whose
    products cancel to within 1e-12 of their magnitudes is 0 in Q(sqrt 21):
    its float is the rounding of the tableau's entries (-2.2e-16 at
    abar_10,0 and -2.0e-17 at bbar_4), so it is left out."""
    sums = {}
    for k, x in terms:
        for j, a in A[k]:
            sums.setdefault(j, []).append(x * a)
    return [(j, math.fsum(t)) for j, t in sorted(sums.items())
            if abs(math.fsum(t)) > 1e-12 * math.fsum(map(abs, t))]


#: the Nystrom form of the tableau for y'' = g(y) (Hairer, Norsett &
#: Wanner, Solving ODEs I, II.14): row i holds the nonzero (j, abar_ij) of
#: A^2, 40 in all, and B_BAR the nonzero (j, bbar_j) of b^T A, at stages
#: 0, 7, 8 and 9.  Stage i's value of y is y0 + c_i h y0' + h^2 sum_j
#: abar_ij g_j, and a step gives y0 + h y0' + h^2 sum_j bbar_j g_j and
#: y0' + h sum_j b_j g_j: the same eighth-order method as A and B on the
#: first-order form (y, y'), with the stage values of y alone
A_BAR = [_times_a(row) for row in A]
B_BAR = _times_a(B)


def step_matrices(q: np.ndarray, h: float) -> np.ndarray:
    """Step matrices less the identity, S - I, (4, n_steps, B), entries
    00, 01, 10, 11, of z'' = q z from q (11, n_steps, B) at the stage
    nodes.

    The equation is linear and has no z' term, so one step is a 2x2
    matrix per column in Nystrom form: stage i's value of z is the row
    Z_i = (1, c_i h) + h^2 sum_j abar_ij F_j over (z, z') at the step's
    start, with F_j = q_j Z_j = (F_j0, F_j1), and
    S - I = [[h^2 sum_j bbar_j F_j0, h + h^2 sum_j bbar_j F_j1],
             [h sum_j b_j F_j0, h sum_j b_j F_j1]].
    Stage i builds F_i in place in f[i]: its first term, then each
    further term through one reused temporary, then (1, c_i h), then
    q_i.  The rows of S - I are summed alike, each weight's term in
    stage order, then h.  Leaving out the identity keeps the low bits of
    the diagonal's O(h^2 q), which 1 + O(h^2 q) rounds away: against a
    long-double stage loop the oracle's error at (100, 1) falls from
    2.5e-12 to 1.5e-13 over b."""
    shape = q.shape[1:]
    f = np.empty((11, 2) + shape)
    tmp = np.empty((2,) + shape)
    h2 = h * h
    for i, row in enumerate(A_BAR):
        z = f[i]
        if row:
            (j, a), *rest = row
            np.multiply(f[j], h2 * a, out=z)
            for j, a in rest:
                z += np.multiply(f[j], h2 * a, out=tmp)
            z[0] += 1.0
            z[1] += h * _C[i]
        else:
            z[0] = 1.0
            z[1] = h * _C[i]
        z *= q[i]
    s = np.empty((4,) + shape)
    for out, weights, scale in ((s[:2], B_BAR, h2), (s[2:], B, h)):
        (j, w), *rest = weights
        np.multiply(f[j], scale * w, out=out)
        for j, w in rest:
            out += np.multiply(f[j], scale * w, out=tmp)
    s[1] += h
    return s


def _halve(d: np.ndarray) -> np.ndarray:
    """One level of the product tree of matrices less the identity,
    (4, n, B): P - I for P = (I + d[:, 2i+1]) @ (I + d[:, 2i]), a zero
    after the last of an odd n.  That is o @ e + e + o for o and e the odd
    and even d; entry (i, j) of o @ e is o_i0 e_0j + o_i1 e_1j, all four
    entries in one broadcast."""
    if d.shape[1] % 2:
        d = np.concatenate([d, np.zeros((4, 1) + d.shape[2:])], axis=1)
    pairs = d.reshape((2, 2) + d.shape[1:])
    e, o = pairs[:, :, 0::2], pairs[:, :, 1::2]
    prod = o[:, 0, None] * e[0]
    prod += o[:, 1, None] * e[1]
    prod += e
    prod += o
    return prod.reshape((4,) + prod.shape[2:])


def pairwise_product(d: np.ndarray) -> np.ndarray:
    """P - I for the product P = (I + d[:, -1]) @ ... @ (I + d[:, 0]) of
    2x2 matrices given less the identity, d (4, n, B), as (4, 1, B).

    Neighbours multiply level by level; an odd level gets a zero last.
    """
    while d.shape[1] > 1:
        d = _halve(d)
    return d


def tiled_product(q_at, n_steps: int, h: float, tile: int) -> np.ndarray:
    """pairwise_product(step_matrices(q, h)), bit for bit, with no more than
    tile steps of q (11, n_steps, B) and of its step matrices at a time;
    q_at(steps), for a slice of steps, gives q[:, steps].

    tile is a power of two, so tiles of it from step 0 are the subtrees of
    pairwise_product's tree at level log2(tile).  Each tile is reduced by
    that many levels as soon as it is built, the last, short one too: a
    level where it is down to one matrix pads it with a zero, as the
    whole tree would.  The tree then goes on over the tile products.
    """
    if n_steps <= tile:
        return pairwise_product(step_matrices(q_at(slice(0, n_steps)), h))
    levels = tile.bit_length() - 1
    products = []
    for lo in range(0, n_steps, tile):
        s = step_matrices(q_at(slice(lo, lo + tile)), h)
        for _ in range(levels):
            s = _halve(s)
        products.append(s)
    return pairwise_product(np.concatenate(products, axis=1))
