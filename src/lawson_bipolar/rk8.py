"""The Cooper-Verner eighth-order Runge-Kutta scheme (Cooper & Verner,
SIAM J. Numer. Anal. 9, 1972) beneath both integrators of the package:
the profile system of phi_system and the Floquet oracle of
hill_spectrum.

It holds the tableau, the fixed step count of the Floquet oracle, and
the batched step of a linear 2x2 system with the product of its steps,
whole or tile by tile.  The profile takes its step count from its own
error model, phi_system.profile_steps.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["C", "A", "B", "steps_for", "step_matrices", "pairwise_product",
           "tiled_product"]

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


def steps_for(n: int, m: int, tol: float, span: float) -> int:
    """Fixed step count of the Floquet oracle over span for the Hill
    equation on the profile of (n, m) at tol.  The count grows with
    K(m/n), which the largest n whose m/n is below 1 as a double bounds:
    no admissible pair needs more than 1359 steps to b at the Floquet
    tolerance."""
    omega = math.sqrt((n + 2) ** 2 + 1.03 * (n * n + m * m))
    return max(int(math.ceil(1.5 * omega * span * tol ** (-1.0 / 8.0))), 96)


def step_matrices(q: np.ndarray, h: float) -> np.ndarray:
    """Step matrices (4, n_steps, B) of z'' = q z, entries 00, 01, 10, 11,
    from q (11, n_steps, B) at the stage nodes.

    The equation is linear, so one step is a 2x2 matrix per column,
    S = I + h sum_i b_i K_i with K_i = A_i M_i, M_i = I + h sum_j a_ij K_j
    and A_i = [[0, 1], [q_i, 0]].  Stage i builds M_i in place in k[i],
    its entries in the order 10, 11, 00, 01: the first term, then the
    identity, then each further term through one reused temporary, so
    every entry takes the additions of I + sum_j in row order.  Scaling
    entries 00 and 01 by q_i then leaves K_i = [[M10, M11], [q_i M00,
    q_i M01]] in k[i].  The step matrix is summed alike."""
    shape = q.shape[1:]
    k = np.empty((11, 4) + shape)
    tmp = np.empty((4,) + shape)
    # k and tmp as pairs of entries (00, 01), (10, 11); swapped[j] holds
    # K_j's entries in the order 10, 11, 00, 01, the order of M_i in k[i]
    pairs, tmp_pairs = k.reshape((11, 2, 2) + shape), tmp.reshape((2, 2) + shape)
    swapped = pairs[:, ::-1]
    for i, row in enumerate(A):
        m = k[i]
        if row:
            np.multiply(swapped[row[0][0]], h * row[0][1], out=pairs[i])
        else:
            m.fill(0.0)
        m[1:3] += 1.0          # the identity: entries 11 and 00
        for j, a in row[1:]:
            np.multiply(swapped[j], h * a, out=tmp_pairs)
            m += tmp
        m[2:] *= q[i]          # q_i M00, q_i M01
    (i, w), *rest = B
    s = np.multiply(k[i], h * w)
    s[::3] += 1.0              # entries 00 and 11
    for i, w in rest:
        s += np.multiply(k[i], h * w, out=tmp)
    return s


def _halve(s: np.ndarray) -> np.ndarray:
    """One level of the product tree of (4, n, B): s[:, 2i+1] @ s[:, 2i],
    an identity after the last of an odd n.  Entry (i, j) of a product is
    o_i0 e_0j + o_i1 e_1j, all four entries in one broadcast."""
    if s.shape[1] % 2:
        eye = np.zeros((4, 1) + s.shape[2:])
        eye[0] = eye[3] = 1.0
        s = np.concatenate([s, eye], axis=1)
    pairs = s.reshape((2, 2) + s.shape[1:])
    e, o = pairs[:, :, 0::2], pairs[:, :, 1::2]
    prod = o[:, 0, None] * e[0]
    prod += o[:, 1, None] * e[1]
    return prod.reshape((4,) + prod.shape[2:])


def pairwise_product(s: np.ndarray) -> np.ndarray:
    """Product s[:, -1] @ ... @ s[:, 0] of 2x2 matrices (4, n, B), as (4, 1, B).

    Neighbours multiply level by level; an odd level gets an identity last.
    """
    while s.shape[1] > 1:
        s = _halve(s)
    return s


def tiled_product(q_at, n_steps: int, h: float, tile: int) -> np.ndarray:
    """pairwise_product(step_matrices(q, h)), bit for bit, with no more than
    tile steps of q (11, n_steps, B) and of its step matrices at a time;
    q_at(steps), for a slice of steps, gives q[:, steps].

    tile is a power of two, so tiles of it from step 0 are the subtrees of
    pairwise_product's tree at level log2(tile).  Each tile is reduced by
    that many levels as soon as it is built, the last, short one too: a
    level where it is down to one matrix pads it with the identity, as
    the whole tree would.  The tree then goes on over the tile products.
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
