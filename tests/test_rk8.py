"""Tests for the Nystrom form of the Cooper-Verner tableau in rk8.

The oracle is the tableau in exact arithmetic: every entry is
(p + q sqrt 21) / r, held here as a pair of Fractions (rational part,
coefficient of sqrt 21), so A^2 and b^T A come out exactly.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from lawson_bipolar import rk8

#: the Cooper-Verner tableau as (p, q, r) for (p + q sqrt 21) / r: row i
#: holds the (j, a_ij), then the weights b and the nodes c
_A = [
    [],
    [(0, (1, 0, 2))],
    [(0, (1, 0, 4)), (1, (1, 0, 4))],
    [(0, (1, 0, 7)), (1, (-7, -3, 98)), (2, (21, 5, 49))],
    [(0, (11, 1, 84)), (2, (18, 4, 63)), (3, (21, -1, 252))],
    [(0, (5, 1, 48)), (2, (9, 1, 36)), (3, (-231, 14, 360)), (4, (63, -7, 80))],
    [(0, (10, -1, 42)), (2, (-432, 92, 315)), (3, (633, -145, 90)),
     (4, (-504, 115, 70)), (5, (63, -13, 35))],
    [(0, (1, 0, 14)), (4, (14, -3, 126)), (5, (13, -3, 63)), (6, (1, 0, 9))],
    [(0, (1, 0, 32)), (4, (91, -21, 576)), (5, (11, 0, 72)), (6, (-385, -75, 1152)),
     (7, (63, 13, 128))],
    [(0, (1, 0, 14)), (4, (1, 0, 9)), (5, (-733, -147, 2205)), (6, (515, 111, 504)),
     (7, (-51, -11, 56)), (8, (132, 28, 245))],
    [(4, (-42, 7, 18)), (5, (-18, 28, 45)), (6, (-273, -53, 72)), (7, (301, 53, 72)),
     (8, (28, -28, 45)), (9, (49, -7, 18))],
]
_B = [(0, (1, 0, 20)), (7, (49, 0, 180)), (8, (16, 0, 45)), (9, (49, 0, 180)),
      (10, (1, 0, 20))]
_C = [(0, 0, 1), (1, 0, 2), (1, 0, 2), (7, 1, 14), (7, 1, 14), (1, 0, 2), (7, -1, 14),
      (7, -1, 14), (1, 0, 2), (7, 1, 14), (1, 0, 1)]
_ZERO = (Fraction(0), Fraction(0))


def _exact(p, q, r):
    return Fraction(p, r), Fraction(q, r)


def _mul(x, y):
    return x[0] * y[0] + 21 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _add(*terms):
    return sum((t[0] for t in terms), Fraction(0)), sum((t[1] for t in terms), Fraction(0))


def _float(x) -> float:
    """x = u + v sqrt 21 rounded to the nearest double."""
    with localcontext() as ctx:
        ctx.prec = 60
        value = (Decimal(x[0].numerator) / x[0].denominator
                 + Decimal(x[1].numerator) / x[1].denominator * Decimal(21).sqrt())
    return float(value)


A = [[_ZERO] * 11 for _ in range(11)]
for _i, _row in enumerate(_A):
    for _j, _entry in _row:
        A[_i][_j] = _exact(*_entry)
B = [_ZERO] * 11
for _i, _entry in _B:
    B[_i] = _exact(*_entry)
C = [_exact(*entry) for entry in _C]
A_BAR = [[_add(*(_mul(A[i][k], A[k][j]) for k in range(11))) for j in range(11)]
         for i in range(11)]
B_BAR = [_add(*(_mul(B[i], A[i][j]) for i in range(11))) for j in range(11)]


def _parts(x) -> float:
    """|u| + |v| sqrt 21 for x = u + v sqrt 21: the size of the terms that
    a float evaluation of x adds, which sets its rounding error."""
    return abs(float(x[0])) + abs(float(x[1])) * math.sqrt(21.0)


#: the unit of rounding; float tableaux are held to FEW of it times the
#: parts of what they evaluate.  The closed forms of rk8.A err by at most
#: 1.9 u |parts|, abar and bbar by at most 2.0 u sum |parts| |parts|: in
#: ulps of the entry, up to 20 at a_6,4 and 69 at abar_6,0, where p and
#: q sqrt 21 cancel
U = 2.0 ** -53
FEW = 4.0


def _dense(rows):
    """The (j, x) rows of rk8 as an 11 x 11 list of floats."""
    out = [[0.0] * 11 for _ in range(11)]
    for i, row in enumerate(rows):
        for j, x in row:
            out[i][j] = x
    return out


def _close(got: float, want, size: float) -> bool:
    """got within FEW units of rounding of size of the exact want."""
    return abs(got - _float(want)) <= FEW * U * size


def test_floats_are_the_exact_tableau():
    # the transcription above is rk8's tableau
    a = _dense(rk8.A)
    for i in range(11):
        for j in range(11):
            assert _close(a[i][j], A[i][j], _parts(A[i][j])), (i, j)
        assert _close(rk8.C[i], C[i], _parts(C[i])), i
    assert dict(rk8.B) == {i: _float(b) for i, b in enumerate(B) if b != _ZERO}


def test_row_sums_are_the_nodes_exactly():
    # sum_j a_ij = c_i in Q(sqrt 21), which the Nystrom form's c_i h y'
    # term rests on
    for i in range(11):
        assert _add(*A[i]) == C[i], i


def _product_parts(x, y) -> float:
    return sum(_parts(u) * _parts(v) for u, v in zip(x, y))


def test_nystrom_tables_are_the_exact_products():
    # abar = A^2 and bbar = b^T A in Q(sqrt 21): every nonzero entry
    # within FEW units of rounding of the parts of its products, every
    # zero left out of rk8's rows
    a_bar = _dense(rk8.A_BAR)
    for i in range(11):
        for j in range(11):
            if A_BAR[i][j] == _ZERO:
                assert j not in dict(rk8.A_BAR[i]), (i, j)
            else:
                size = _product_parts(A[i], [A[k][j] for k in range(11)])
                assert _close(a_bar[i][j], A_BAR[i][j], size), (i, j)
    b_bar = dict(rk8.B_BAR)
    for j in range(11):
        if B_BAR[j] == _ZERO:
            assert j not in b_bar, j
        else:
            assert _close(b_bar[j], B_BAR[j], _product_parts(B, [A[i][j] for i in range(11)]))
    assert sum(map(len, rk8.A_BAR)) == 40


def test_zeros_that_round_away_from_zero_stay_zero():
    # abar_10,0 and bbar_4 are 0 in Q(sqrt 21), but their float sums are
    # not; bbar vanishes at stages 1 to 6 and 10
    assert A_BAR[10][0] == _ZERO and 0 not in dict(rk8.A_BAR[10])
    assert B_BAR[4] == _ZERO and 4 not in dict(rk8.B_BAR)
    assert [j for j in range(11) if B_BAR[j] != _ZERO] == [0, 7, 8, 9]
    assert [j for j, _ in rk8.B_BAR] == [0, 7, 8, 9]


@pytest.mark.parametrize("i", range(11))
def test_stage_identities(i):
    # in floats, sum_j abar_ij = sum_j a_ij c_j (stage i's second-order
    # condition; not c_i^2 / 2, which stage 1 misses by 1/8) and
    # sum_j a_ij = c_i, to FEW units of rounding of their parts
    c = rk8.C.tolist()
    abar_size = sum(_product_parts(A[i], [A[k][j] for k in range(11)]) for j in range(11))
    ac_size = _product_parts(A[i], C)
    got = math.fsum(a for _, a in rk8.A_BAR[i])
    assert abs(got - math.fsum(a * c[j] for j, a in rk8.A[i])) <= FEW * U * (abar_size
                                                                             + ac_size)
    assert abs(math.fsum(a for _, a in rk8.A[i]) - c[i]) <= FEW * U * (
        sum(map(_parts, A[i])) + _parts(C[i]))


def test_weight_identities():
    # in floats, sum_j bbar_j = 1/2 and sum_j bbar_j c_j = 1/6, the
    # Nystrom weights' first two order conditions, to FEW units of
    # rounding of their parts
    c = rk8.C.tolist()
    sizes = [_product_parts(B, [A[i][j] for i in range(11)]) for j in range(11)]
    assert abs(math.fsum(w for _, w in rk8.B_BAR) - 0.5) <= FEW * U * sum(sizes)
    assert abs(math.fsum(w * c[j] for j, w in rk8.B_BAR) - 1.0 / 6.0) <= FEW * U * sum(
        size * _parts(cj) for size, cj in zip(sizes, C))
