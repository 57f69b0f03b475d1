"""Elliptic special functions on the real line.

Complete elliptic integrals K and E are evaluated with the
arithmetic-geometric mean, the Jacobi functions sn, cn, dn with a
descending Landen transformation (Bulirsch's recursion) over the levels
of that same AGM loop, which also gives their period, the incomplete
integral F by Carlson's duplication for R_F, and the Weierstrass P
function by reduction to Jacobi functions read off the roots of its
cubic 4t^3 - g2 t - g3, which the caller gives.  Everything is plain
double precision; accuracy is near machine epsilon away from poles.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "PoleProximityError",
    "EllipticModulus",
    "complete_K",
    "complete_E",
    "jacobi_sncndn",
    "jacobi_am",
    "weierstrass_p",
]

_AGM_ITMAX = 40
#: duplication steps of R_F: for every k' >= 1e-8 the relative spread of
#: x, y, z is below 2.5e-3 after 9 steps (the fifth-order series then errs
#: below 1e-16), and each further step divides the spread by 4
_RF_STEPS = 10
#: below this |u| the Landen recursion's 1/u^2 overflows, and (u, 1, 1) is
#: the triple (sn, cn, dn) to double precision
_SN_TINY = 1e-150
#: minimum distance from a lattice point accepted by weierstrass_p
POLE_THRESHOLD = 1e-9


class DomainError(ValueError):
    """Argument outside the supported real domain."""


class PoleProximityError(ValueError):
    """Evaluation point closer than POLE_THRESHOLD to a lattice pole."""


@dataclass(frozen=True)
class EllipticModulus:
    """Modulus k with its complement k' = sqrt(1 - k^2) >= 0.

    k must lie in [0, 1] and k' must not be NaN or negative.  k' = 0 is
    admitted only so that E(1) = 1 is expressible (K diverges there and
    raises); a k that rounds to 1 with k' > 0 is an ordinary modulus.
    """

    k: float
    k_prime: float

    def __post_init__(self):
        if not (0.0 <= self.k <= 1.0) or not math.isfinite(self.k):
            raise DomainError(f"modulus k={self.k!r} outside [0, 1]")
        if not (self.k_prime >= 0.0
                and abs(self.k * self.k + self.k_prime * self.k_prime - 1.0) <= 1e-14):
            raise DomainError(f"k_prime={self.k_prime!r} is not sqrt(1 - k^2) >= 0 "
                              f"for k={self.k!r}")

    @classmethod
    def from_k(cls, k: float) -> "EllipticModulus":
        k = float(k)
        if not (0.0 <= k <= 1.0) or not math.isfinite(k):
            raise DomainError(f"modulus k={k!r} outside [0, 1]")
        # (1-k)(1+k) keeps k' accurate for k near 1
        return cls(k, math.sqrt((1.0 - k) * (1.0 + k)))


def _agm(modulus: EllipticModulus) -> tuple[list, float]:
    """AGM of 1 and k': its levels (a_n, b_n) from (1, k') until
    |a - b| <= ulp(a), at most _AGM_ITMAX steps, with s = sum_(n>=0)
    2^(n-1) c_n^2 along them (c_0 = k, c_n = (a_(n-1) - b_(n-1))/2);
    returns (levels, s).  Rounded, the AGM may cycle one ulp apart, so it
    stops there; a wider gap after _AGM_ITMAX steps (k' = 0 with k < 1)
    raises DomainError."""
    a, b = 1.0, modulus.k_prime
    s, p = 0.5 * modulus.k * modulus.k, 1.0
    levels = [(a, b)]
    for _ in range(_AGM_ITMAX):
        if abs(a - b) <= math.ulp(a):
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        s += p * c * c
        p *= 2.0
        levels.append((a, b))
    if abs(a - b) > math.ulp(a):
        raise DomainError(f"AGM of 1 and k'={modulus.k_prime!r} for k={modulus.k!r} not "
                          f"converged in {_AGM_ITMAX} steps: |a - b|/a = {abs(a - b) / a:.3g}")
    return levels, s


def complete_K(modulus: EllipticModulus) -> float:
    """Complete elliptic integral of the first kind K(k) = pi / (2 AGM(1, k'))
    (DLMF 19.8.5), finite for every k' > 0, a k that rounds to 1 too."""
    if modulus.k_prime == 0.0:
        raise DomainError("K(k) requires k' > 0")
    levels, _ = _agm(modulus)
    return math.pi / (2.0 * levels[-1][0])


def complete_E(modulus: EllipticModulus) -> float:
    """Complete elliptic integral of the second kind E(k) = K (1 - s)."""
    if modulus.k_prime == 0.0:
        return 1.0
    levels, s = _agm(modulus)
    return math.pi / (2.0 * levels[-1][0]) * (1.0 - s)


def _sncndn_reduced(w, modulus: EllipticModulus):
    """(q, sn, cn, dn) for array w, 0 < k < 1: the triple at w - 2Kq,
    q the nearest integer to w/2K.  One AGM gives K and the levels of
    Bulirsch's descending Landen recursion (Numer. Math. 7, 1965), run up
    from the first with |a - b| <= 1e-8 a, for every element of w."""
    levels, _ = _agm(modulus)
    K = math.pi / (2.0 * levels[-1][0])
    q = np.round(w / (2.0 * K))
    u = w - 2.0 * K * q
    if modulus.k_prime == 1.0:
        return q, np.sin(u), np.cos(u), np.ones_like(u)
    depth = next(i for i, (a, b) in enumerate(levels) if abs(a - b) <= 1e-8 * a)
    c = 0.5 * sum(levels[depth])
    sn = np.sin(c * u)
    cn = np.cos(c * u)
    dn = np.ones_like(sn)
    nz = np.abs(u) >= _SN_TINY
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(nz, cn / np.where(nz, sn, 1.0), 0.0)
        cc = c * a
        for b, e in reversed(levels[:depth + 1]):
            a = a * cc
            cc = cc * dn
            dn = (e + a) / (b + a)
            a = cc / b
        amp = 1.0 / np.sqrt(cc * cc + 1.0)
    # u + 0.0 turns -0.0 into 0.0
    sn_out = np.where(nz, np.where(sn >= 0.0, amp, -amp), u + 0.0)
    cn_out = np.where(nz, cc * sn_out, 1.0)
    dn_out = np.where(nz, dn, 1.0)
    return q, sn_out, cn_out, dn_out


def _finite(x) -> np.ndarray:
    """x as a float array; a NaN or an infinity raises DomainError."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("argument must be finite")
    return x


def jacobi_sncndn(w, modulus: EllipticModulus):
    """Jacobi elliptic triple (sn, cn, dn) at real w, a scalar (giving
    three floats) or an array (giving three arrays of its shape).

    The argument is reduced modulo the period 2K before the Landen
    recursion, so any finite w is accepted; a NaN or an infinity raises
    DomainError.
    """
    ws = _finite(w)
    if modulus.k == 0.0:
        out = np.sin(ws), np.cos(ws), np.ones_like(ws)
    elif modulus.k == 1.0:
        # cosh overflows to inf past |w| = 710, where sech = 0 is the limit
        with np.errstate(over="ignore"):
            sech = 1.0 / np.cosh(ws)
        out = np.tanh(ws), sech, sech
    else:
        q, sn, cn, dn = _sncndn_reduced(ws, modulus)
        sgn = np.where((q % 2.0) != 0.0, -1.0, 1.0)
        out = sgn * sn, sgn * cn, dn
    return tuple(map(float, out)) if ws.ndim == 0 else out


def jacobi_am(w, modulus: EllipticModulus):
    """Continuous (monotone) Jacobi amplitude, am(w + 2K) = am(w) + pi, at
    a scalar w (giving a float) or an array (giving an array of its
    shape); a NaN or an infinity raises DomainError."""
    ws = _finite(w)
    if modulus.k == 0.0:
        am = ws + 0.0
    elif modulus.k == 1.0:
        # the gudermannian; sinh overflows to +-inf past |w| = 710, where
        # arctan gives the limit +-pi/2
        with np.errstate(over="ignore"):
            am = np.arctan(np.sinh(ws))
    else:
        q, sn, cn, _ = _sncndn_reduced(ws, modulus)
        # sn^2 + cn^2 = 1 exactly by construction, so atan2 is uniformly stable
        am = q * math.pi + np.arctan2(sn, cn)
    return float(am) if ws.ndim == 0 else am


def _carlson_rf(x, y, z):
    """Carlson's symmetric integral R_F(x, y, z), elementwise, by a fixed
    number of duplication steps and the fifth-order series of Carlson,
    Numer. Algorithms 10 (1995); at most one argument may be zero."""
    for _ in range(_RF_STEPS):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    mu = (x + y + z) / 3.0
    dx, dy = 1.0 - x / mu, 1.0 - y / mu
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
            - 3.0 * e2 * e3 / 44.0) / np.sqrt(mu)


def _ellip_f_array(phi, modulus: EllipticModulus):
    """Incomplete elliptic integral of the first kind F(phi, k), k < 1,
    for array phi.  With phi = j pi + psi, |psi| <= pi/2,
    F = 2 j K + sin(psi) R_F(cos^2 psi, 1 - k^2 sin^2 psi, 1), the second
    argument formed as cos^2 psi + k'^2 sin^2 psi to keep it accurate for
    k near 1."""
    phi = _finite(phi)
    j = np.round(phi / math.pi)
    psi = phi - math.pi * j
    s, c = np.sin(psi), np.cos(psi)
    kp = modulus.k_prime
    rf = _carlson_rf(c * c, c * c + kp * kp * (s * s), 1.0)
    return s * rf + 2.0 * complete_K(modulus) * j


def _wp_reduction(roots):
    """Reduction of P to Jacobi functions (DLMF 23.6(ii)) read off the
    roots (e1, e2, e3) of its cubic 4t^3 - g2 t - g3, which sum to 0.

    Three distinct real roots e1 > e2 > e3 give P(y) = e3 + (e1 - e3) /
    sn^2(y sqrt(e1 - e3)) at k^2 = (e2 - e3)/(e1 - e3), k'^2 = (e1 - e2) /
    (e1 - e3).  A real e1 with a conjugate pair e2, e3 gives P(y) = e1 +
    H (1 + cn)/(1 - cn) at 2 y sqrt(H), H = |e1 - e2|, k^2 = 1/2 -
    3 e1/(4H), k'^2 = 1/2 + 3 e1/(4H).  Roots of any other shape, not
    finite, or whose sum is above 1e-14 |e1 - e3|, raise DomainError.
    Returns (three_real, base, coefficient, scale, modulus, period).
    """
    e1, e2, e3 = (complex(e) for e in roots)
    if not (all(map(cmath.isfinite, (e1, e2, e3)))
            and abs(e1 + e2 + e3) <= 1e-14 * abs(e1 - e3)):
        raise DomainError(f"roots {roots!r} are not finite or do not sum to 0")
    if e1.imag == e2.imag == e3.imag == 0.0 and e1.real > e2.real > e3.real:
        d = e1.real - e3.real
        mod = EllipticModulus(math.sqrt((e2.real - e3.real) / d),
                              math.sqrt((e1.real - e2.real) / d))
        scale = math.sqrt(d)
        return True, e3.real, d, scale, mod, 2.0 * complete_K(mod) / scale
    if e1.imag == 0.0 and e2.imag != 0.0 and e3 == e2.conjugate():
        h = abs(e1 - e2)
        t = 0.75 * e1.real / h
        mod = EllipticModulus(math.sqrt(0.5 - t), math.sqrt(0.5 + t))
        scale = 2.0 * math.sqrt(h)
        return False, e1.real, h, scale, mod, 4.0 * complete_K(mod) / scale
    raise DomainError(f"roots {roots!r} are neither three distinct reals e1 > e2 > e3 "
                      "nor a real e1 and a conjugate pair e2, e3")


def weierstrass_p(y, roots):
    """Weierstrass P at real y away from lattice points, from the roots
    (e1, e2, e3) of its cubic, summing to 0: three distinct reals
    e1 > e2 > e3, or a real e1 and a conjugate pair e2, e3.  y is a scalar
    (giving a float) or an array (giving an array of its shape).

    Raises DomainError for a non-finite y or roots of another shape, and
    PoleProximityError naming the worst point when any y is within
    POLE_THRESHOLD of a pole.
    """
    ys = _finite(y)
    three_real, base, c, scale, mod, period = _wp_reduction(roots)
    flat = ys.ravel()
    d = np.abs(flat) % period
    gap = np.minimum(d, period - d)
    worst = int(np.argmin(gap))
    if gap[worst] < POLE_THRESHOLD:
        raise PoleProximityError(
            f"y={float(flat[worst])!r} within {POLE_THRESHOLD} of a pole (period {period})")
    sn, cn, _ = jacobi_sncndn(ys * scale, mod)
    if three_real:
        out = base + c / (sn * sn)
    else:
        # (1+cn)/(1-cn) in the form that avoids cancellation: near poles
        # (cn -> 1) divide by sn^2, near the minimum (cn -> -1) by (1-cn)^2
        near_pole = cn >= 0.0
        num = np.where(near_pole, (1.0 + cn) * (1.0 + cn), sn * sn)
        den = np.where(near_pole, sn * sn, (1.0 - cn) * (1.0 - cn))
        out = base + c * num / den
    return float(out) if ys.ndim == 0 else out
