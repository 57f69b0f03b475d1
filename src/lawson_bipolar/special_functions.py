"""Elliptic special functions on the real line.

Complete elliptic integrals K and E are evaluated with the
arithmetic-geometric mean, the Jacobi functions sn, cn, dn with a
descending Landen transformation (Bulirsch's recursion), and the
Weierstrass P function by reduction to Jacobi functions through the
roots of the cubic 4t^3 - g2 t - g3.  Everything is plain double
precision; accuracy is near machine epsilon away from poles.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DomainError",
    "PoleProximityError",
    "EllipticModulus",
    "WeierstrassInvariants",
    "complete_K",
    "complete_E",
    "jacobi_sncndn",
    "jacobi_am",
    "weierstrass_p",
    "weierstrass_real_period",
]

_AGM_ITMAX = 40
#: minimum distance from a lattice point accepted by weierstrass_p
POLE_THRESHOLD = 1e-9


class DomainError(ValueError):
    """Argument outside the supported real domain."""


class PoleProximityError(ValueError):
    """Evaluation point closer than POLE_THRESHOLD to a lattice pole."""


@dataclass(frozen=True)
class EllipticModulus:
    """Modulus k with its complement k' = sqrt(1 - k^2).

    k must lie in [0, 1]; k = 1 is admitted only so that E(1) = 1 is
    expressible (K diverges there and raises).
    """

    k: float
    k_prime: float

    def __post_init__(self):
        if not (0.0 <= self.k <= 1.0) or not math.isfinite(self.k):
            raise DomainError(f"modulus k={self.k!r} outside [0, 1]")
        if abs(self.k * self.k + self.k_prime * self.k_prime - 1.0) > 1e-14:
            raise DomainError("k^2 + k_prime^2 must equal 1")

    @classmethod
    def from_k(cls, k: float) -> "EllipticModulus":
        k = float(k)
        if not (0.0 <= k <= 1.0) or not math.isfinite(k):
            raise DomainError(f"modulus k={k!r} outside [0, 1]")
        # (1-k)(1+k) keeps k' accurate for k near 1
        return cls(k, math.sqrt((1.0 - k) * (1.0 + k)))


@dataclass(frozen=True)
class WeierstrassInvariants:
    """Invariants (g2, g3) of the cubic 4t^3 - g2 t - g3."""

    g2: float
    g3: float

    def __post_init__(self):
        if not (math.isfinite(self.g2) and math.isfinite(self.g3)):
            raise DomainError("invariants must be finite")

    @property
    def discriminant(self) -> float:
        return self.g2 ** 3 - 27.0 * self.g3 ** 2


def complete_K(modulus: EllipticModulus) -> float:
    """Complete elliptic integral of the first kind K(k)."""
    if modulus.k >= 1.0:
        raise DomainError("K(k) requires k < 1")
    a, b = 1.0, modulus.k_prime
    for _ in range(_AGM_ITMAX):
        if abs(a - b) <= 2e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def complete_E(modulus: EllipticModulus) -> float:
    """Complete elliptic integral of the second kind E(k).

    Uses the AGM together with the accumulated c_n^2 sum,
    E = K (1 - sum 2^{n-1} c_n^2) with c_0 = k.
    """
    if modulus.k == 1.0:
        return 1.0
    a, b = 1.0, modulus.k_prime
    c = modulus.k
    s = 0.5 * c * c
    p = 1.0
    for _ in range(_AGM_ITMAX):
        if abs(a - b) <= 2e-16 * a:
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        s += p * c * c
        p *= 2.0
    return math.pi / (2.0 * a) * (1.0 - s)


@lru_cache(maxsize=64)
def _landen_chain(kp2: float):
    """Descending Landen chain for complementary parameter kp2 = k'^2.

    The chain depends only on the modulus, so it is shared by every
    argument; returns (scale c, a-levels, geometric-mean levels).
    """
    emc = kp2
    a = 1.0
    em = []
    en = []
    c = 1.0
    for _ in range(13):
        emc = math.sqrt(emc)
        em.append(a)
        en.append(emc)
        c = 0.5 * (a + emc)
        if abs(a - emc) <= 1e-8 * a:
            break
        emc = emc * a
        a = c
    return c, tuple(em), tuple(en)


def _sncndn_reduced(u, kp2: float):
    """Bulirsch sn/cn/dn for array u, |u| <= K(k); kp2 = k'^2 in (0, 1]."""
    u = np.asarray(u, dtype=float)
    if kp2 == 1.0:
        return np.sin(u), np.cos(u), np.ones_like(u)
    c, em, en = _landen_chain(kp2)
    sn = np.sin(c * u)
    cn = np.cos(c * u)
    dn = np.ones_like(sn)
    nz = sn != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(nz, cn / np.where(nz, sn, 1.0), 0.0)
        cc = c * a
        for b, e in zip(reversed(em), reversed(en)):
            a = a * cc
            cc = cc * dn
            dn = (e + a) / (b + a)
            a = cc / b
        amp = 1.0 / np.sqrt(cc * cc + 1.0)
    sn_out = np.where(nz, np.where(sn >= 0.0, amp, -amp), 0.0)
    cn_out = np.where(nz, cc * sn_out, 1.0)
    dn_out = np.where(nz, dn, 1.0)
    return sn_out, cn_out, dn_out


def _sncndn_array(w, modulus: EllipticModulus):
    """sn, cn, dn for array argument, any real w (period reduction mod 2K)."""
    w = np.asarray(w, dtype=float)
    if modulus.k == 0.0:
        return np.sin(w), np.cos(w), np.ones_like(w)
    if modulus.k == 1.0:
        sech = 1.0 / np.cosh(w)
        return np.tanh(w), sech, sech
    K = complete_K(modulus)
    q = np.round(w / (2.0 * K))
    wr = w - 2.0 * K * q
    sn, cn, dn = _sncndn_reduced(wr, modulus.k_prime ** 2)
    flip = (q % 2.0) != 0.0
    sgn = np.where(flip, -1.0, 1.0)
    return sgn * sn, sgn * cn, dn


def jacobi_sncndn(w: float, modulus: EllipticModulus):
    """Jacobi elliptic triple (sn, cn, dn) at real argument w.

    The argument is reduced modulo the period 2K before the Landen
    recursion, so any finite w is accepted.
    """
    if not math.isfinite(w):
        raise DomainError("argument must be finite")
    sn, cn, dn = _sncndn_array(w, modulus)
    return float(sn), float(cn), float(dn)


def _am_array(w, modulus: EllipticModulus):
    """Continuous Jacobi amplitude am(w, k) for array argument."""
    w = np.asarray(w, dtype=float)
    if modulus.k == 0.0:
        return w + 0.0
    K = complete_K(modulus)
    q = np.round(w / (2.0 * K))
    wr = w - 2.0 * K * q
    sn, cn, _ = _sncndn_reduced(wr, modulus.k_prime ** 2)
    # sn^2 + cn^2 = 1 exactly by construction, so atan2 is uniformly stable
    return q * math.pi + np.arctan2(sn, cn)


def jacobi_am(w: float, modulus: EllipticModulus) -> float:
    """Continuous (monotone) Jacobi amplitude, am(w + 2K) = am(w) + pi."""
    if not math.isfinite(w):
        raise DomainError("argument must be finite")
    if modulus.k == 1.0:
        return math.atan(math.sinh(w))  # gudermannian limit
    return float(_am_array(w, modulus))


@lru_cache(maxsize=64)
def _wp_reduction(g2: float, g3: float):
    """Root data for P(y; g2, g3) on the real axis.

    Roots of 4t^3 - g2 t - g3 are polished with Newton steps.  Two
    reductions apply: three real roots e1 >= e2 >= e3 (positive
    discriminant) or a single real root with a complex pair (negative
    discriminant).  Returns (case, params, real_period).
    """
    disc = g2 ** 3 - 27.0 * g3 ** 2
    if disc == 0.0:
        raise DomainError("degenerate invariants: discriminant is zero")
    roots = np.roots([4.0, 0.0, -g2, -g3])
    for _ in range(4):
        roots = roots - (4.0 * roots ** 3 - g2 * roots - g3) / (12.0 * roots ** 2 - g2)
    if disc > 0.0:
        e1, e2, e3 = np.sort(roots.real)[::-1]
        scale = math.sqrt(e1 - e3)
        mod = EllipticModulus.from_k(math.sqrt((e2 - e3) / (e1 - e3)))
        period = 2.0 * complete_K(mod) / scale
        return "real_roots", (e1, e2, e3, scale, mod), period
    e = float(roots[np.argmin(np.abs(roots.imag))].real)
    big_a = math.sqrt(2.0 * e * e + g3 / (4.0 * e))
    mod = EllipticModulus.from_k(math.sqrt(0.5 - 3.0 * e / (4.0 * big_a)))
    scale = 2.0 * math.sqrt(big_a)
    period = 4.0 * complete_K(mod) / scale
    return "one_real_root", (e, big_a, scale, mod), period


def weierstrass_real_period(inv: WeierstrassInvariants) -> float:
    """Real lattice period of P(y; g2, g3); poles sit at its multiples."""
    return _wp_reduction(inv.g2, inv.g3)[2]


def weierstrass_p(y: float, inv: WeierstrassInvariants) -> float:
    """Weierstrass P at real y away from lattice points.

    Raises PoleProximityError when y is within POLE_THRESHOLD of a pole.
    """
    case, par, period = _wp_reduction(inv.g2, inv.g3)
    d = abs(y) % period
    if min(d, period - d) < POLE_THRESHOLD:
        raise PoleProximityError(
            f"y={y!r} within {POLE_THRESHOLD} of a pole (period {period})")
    mod: EllipticModulus
    if case == "real_roots":
        e1, e2, e3, scale, mod = par
        sn, _, _ = _sncndn_array(y * scale, mod)
        return e3 + (e1 - e3) / float(sn) ** 2
    e, big_a, scale, mod = par
    sn, cn, _ = _sncndn_array(y * scale, mod)
    sn, cn = float(sn), float(cn)
    # (1+cn)/(1-cn) in the form that avoids cancellation: near poles
    # (cn -> 1) divide by sn^2, near the minimum (cn -> -1) by (1-cn)^2
    if cn >= 0.0:
        return e + big_a * (1.0 + cn) ** 2 / sn ** 2
    return e + big_a * sn ** 2 / (1.0 - cn) ** 2
