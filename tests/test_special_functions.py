"""Tests for the elliptic special functions.

Oracles: adaptive quadrature of the defining integrals, scipy.special
(an independent Cephes-based implementation), classical identities, and
high-order finite differences for the Weierstrass ODE.
"""

import math

import numpy as np
import pytest
import scipy.special as ss
from scipy.integrate import quad

from lawson_bipolar.special_functions import (
    DomainError,
    EllipticModulus,
    PoleProximityError,
    complete_E,
    complete_K,
    jacobi_am,
    jacobi_sncndn,
    weierstrass_p,
)
from lawson_bipolar.special_functions import _SN_TINY, _agm, _wp_reduction
from lawson_bipolar.surface_model import admissible_pairs, derive_params


def mod(k):
    return EllipticModulus.from_k(k)


def _reference_K(modulus):
    """K by its own AGM loop, as written before K and E shared one."""
    a, b = 1.0, modulus.k_prime
    for _ in range(40):
        if abs(a - b) <= 2e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _reference_E(modulus):
    """E by its own AGM loop with the c_n^2 sum, as written before."""
    a, b = 1.0, modulus.k_prime
    c = modulus.k
    s = 0.5 * c * c
    p = 1.0
    for _ in range(40):
        if abs(a - b) <= 2e-16 * a:
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        s += p * c * c
        p *= 2.0
    return math.pi / (2.0 * a) * (1.0 - s)


# each case, inv in the tests, fixes (g2, g3) by its roots: the (n, m) =
# (2, 1) profile rows (three real roots, a real root with a conjugate
# pair, three real roots of which the lower two are 1.9e-2 apart), then
# (g2, g3) = (-4, 0), whose real root is 0
WP_CASES = [
    (5 / 6, 7 / 12, -17 / 12),
    (1 / 3, complex(-1 / 6, math.sqrt(3.0) / 2), complex(-1 / 6, -math.sqrt(3.0) / 2)),
    (7 / 12 + math.sqrt(3.0), 7 / 12 - math.sqrt(3.0), -7 / 6),
    (0.0, 1j, -1j),
]


def _invariants(roots):
    """(g2, g3) = (-4 (e1 e2 + e1 e3 + e2 e3), 4 e1 e2 e3), as floats."""
    e1, e2, e3 = roots
    return (-4.0 * (e1 * e2 + e1 * e3 + e2 * e3)).real, (4.0 * e1 * e2 * e3).real


class TestModulus:
    def test_complement(self):
        m = mod(0.6)
        assert m.k_prime == pytest.approx(0.8, abs=1e-15)

    def test_rejects_bad_modulus(self):
        with pytest.raises(DomainError):
            mod(1.5)
        with pytest.raises(DomainError):
            mod(-0.1)
        with pytest.raises(DomainError):
            EllipticModulus(0.5, 0.5)

    def test_rejects_nan_complement(self):
        # NaN fails every comparison, so it must not pass for a small
        # |k^2 + k'^2 - 1|; K would be NaN and sn, cn, dn (NaN, -1, 1)
        with pytest.raises(DomainError, match="k_prime=nan"):
            EllipticModulus(0.6, math.nan)

    def test_rejects_negative_complement(self):
        # k^2 + k'^2 = 1 holds for k' = -0.8, but the AGM would take its
        # square root
        with pytest.raises(DomainError, match="k_prime=-0.8"):
            EllipticModulus(0.6, -0.8)


class TestCompleteIntegrals:
    def test_K_at_zero(self):
        assert complete_K(mod(0.0)) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_K_against_quadrature(self):
        k = 0.5
        oracle, _ = quad(lambda t: 1.0 / math.sqrt(1 - k * k * math.sin(t) ** 2),
                         0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
        assert complete_K(mod(k)) == pytest.approx(oracle, rel=1e-12)

    def test_K_landen_identity(self):
        # (1/(m+n)) K(2 sqrt(mn)/(m+n)) = (1/n) K(m/n) at (n, m) = (2, 1)
        n, m = 2, 1
        lhs = complete_K(mod(2 * math.sqrt(m * n) / (m + n))) / (m + n)
        rhs = complete_K(mod(m / n)) / n
        assert abs(lhs - rhs) < 1e-12

    def test_K_domain_error(self):
        with pytest.raises(DomainError):
            complete_K(mod(1.0))

    def test_E_endpoints(self):
        assert complete_E(mod(0.0)) == pytest.approx(math.pi / 2, abs=1e-15)
        assert complete_E(mod(1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_E_against_quadrature(self):
        k = 2 * math.sqrt(2) / 3  # feeds the (3, 1) eigenvalue functional
        oracle, _ = quad(lambda t: math.sqrt(1 - k * k * math.sin(t) ** 2),
                         0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
        assert complete_E(mod(k)) == pytest.approx(oracle, rel=1e-12)

    def test_monotonicity_on_grid(self):
        ks = np.linspace(0.0, 0.995, 100)
        Ks = [complete_K(mod(k)) for k in ks]
        Es = [complete_E(mod(k)) for k in ks]
        assert np.all(np.diff(Ks) > 0)
        assert np.all(np.diff(Es) < 0)

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.99])
    def test_against_scipy(self, k):
        assert complete_K(mod(k)) == pytest.approx(ss.ellipk(k * k), rel=1e-14)
        assert complete_E(mod(k)) == pytest.approx(ss.ellipe(k * k), rel=1e-14)

    @pytest.mark.parametrize("modulus", [
        *(mod(k) for k in (0.0, 1e-9, 0.5, 7 / 9, 1.0 - 2.0 ** -40)),
        derive_params(1000, 999).h_modulus,
    ], ids=["0", "1e-9", "0.5", "7/9", "1-2^-40", "h-1000-999"])
    def test_shared_agm_keeps_the_bits(self, modulus):
        # K and E read one AGM loop; each must equal its own loop bit for bit
        assert complete_K(modulus).hex() == _reference_K(modulus).hex()
        assert complete_E(modulus).hex() == _reference_E(modulus).hex()

    def test_agm_stops_at_one_ulp(self):
        # the H1 modulus of (5, 1) reaches a and b one ulp apart after five
        # steps, and the rounded AGM would cycle there until _AGM_ITMAX
        levels, _ = _agm(derive_params(5, 1).h_modulus)
        (a, b), (a0, b0) = levels[-1], levels[-2]
        assert len(levels) == 6
        assert abs(a - b) <= math.ulp(a) < abs(a0 - b0)

    def test_E_at_one_skips_the_agm(self):
        assert complete_E(mod(1.0)) == 1.0

    def test_unconverged_agm_raises(self):
        # k' = 0 with k < 1 passes the modulus's 1e-14 tolerance, and the
        # AGM of 1 and 0 never converges: every function must say so
        # rather than return K = 1.7e12 or E = 0.79.  K refuses k' = 0
        # before the AGM, and E gives its value there, 1
        m = EllipticModulus(0.999999999999995, 0.0)
        with pytest.raises(DomainError, match=r"K\(k\) requires k' > 0"):
            complete_K(m)
        assert complete_E(m) == 1.0
        for call in (lambda m: jacobi_sncndn(1.0, m), lambda m: jacobi_am(1.0, m)):
            with pytest.raises(DomainError, match=r"k'=0\.0 for k=0\.999999999999995 "
                               r"not converged in 40 steps: \|a - b\|/a = 1"):
                call(m)

    @pytest.mark.parametrize("n", [1407504089, 2 * 10 ** 12 - 1, 2 * 10 ** 15 - 1])
    def test_k_rounded_to_one_keeps_its_complement(self, n):
        # the complement k' = 1/n of k = sqrt(1 - 1/n^2), which rounds to
        # 1: K = pi / (2 AGM(1, k')) and E are finite and near their
        # series ln(4/k') + O(k'^2 ln k') and 1 + O(k'^2 ln k') (DLMF
        # 19.12.1-2); E = K (1 - s) loses about K ulps to the cancellation
        m = EllipticModulus(1.0, 1.0 / n)
        assert complete_K(m) == pytest.approx(math.log(4.0 * n), rel=1e-15)
        assert complete_E(m) == pytest.approx(1.0, abs=1e-14)


class TestJacobi:
    def test_origin(self):
        assert jacobi_sncndn(0.0, mod(0.7)) == (0.0, 1.0, 1.0)

    def test_quarter_period(self):
        m = mod(0.7)
        K = complete_K(m)
        sn, cn, dn = jacobi_sncndn(K, m)
        assert sn == pytest.approx(1.0, abs=1e-13)
        assert cn == pytest.approx(0.0, abs=1e-13)
        assert dn == pytest.approx(m.k_prime, abs=1e-13)

    def test_landen_ascent_identity(self):
        # sn[(1+a) n z, 2 sqrt(a)/(1+a)] = (1+a) sn(nz, a)/(1 + a sn^2(nz, a))
        alpha, n, z = 0.5, 2, 0.3
        big = mod(2 * math.sqrt(alpha) / (1 + alpha))
        lhs = jacobi_sncndn((1 + alpha) * n * z, big)[0]
        sn, _, _ = jacobi_sncndn(n * z, mod(alpha))
        rhs = (1 + alpha) * sn / (1 + alpha * sn * sn)
        assert abs(lhs - rhs) < 1e-11

    def test_pythagorean_identities(self):
        rng = np.random.default_rng(7)
        for k in (0.1, 0.5, 0.77, 0.9922):
            m = mod(k)
            K = complete_K(m)
            for w in rng.uniform(-4 * K, 4 * K, 50):
                sn, cn, dn = jacobi_sncndn(w, m)
                assert abs(sn * sn + cn * cn - 1.0) < 1e-12
                assert abs(dn * dn + k * k * sn * sn - 1.0) < 1e-12

    def test_parity(self):
        m = mod(0.6)
        for w in (0.2, 0.9, 2.3):
            sn, cn, dn = jacobi_sncndn(w, m)
            sn_m, cn_m, dn_m = jacobi_sncndn(-w, m)
            assert sn_m == pytest.approx(-sn, abs=1e-14)
            assert cn_m == pytest.approx(cn, abs=1e-14)
            assert dn_m == pytest.approx(dn, abs=1e-14)

    def test_shift_identities(self):
        m = mod(0.77)
        K = complete_K(m)
        w = 0.4123
        sn, cn, dn = jacobi_sncndn(w, m)
        sn2, cn2, dn2 = jacobi_sncndn(w + K, m)
        assert sn2 == pytest.approx(cn / dn, abs=1e-13)
        assert cn2 == pytest.approx(-m.k_prime * sn / dn, abs=1e-13)
        assert dn2 == pytest.approx(m.k_prime / dn, abs=1e-13)

    def test_against_scipy_over_four_periods(self):
        rng = np.random.default_rng(11)
        for k in (0.3, 0.707, 0.95):
            m = mod(k)
            K = complete_K(m)
            for w in rng.uniform(-4 * K, 4 * K, 100):
                got = jacobi_sncndn(w, m)
                ref = ss.ellipj(w, k * k)[:3]
                np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_tiny_argument(self):
        # below 1e-150 the Landen recursion would overflow; the triple is
        # (w, 1, 1) to double precision
        m = mod(0.5)
        assert jacobi_sncndn(1e-200, m) == (1e-200, 1.0, 1.0)
        assert jacobi_sncndn(-1e-200, m) == (-1e-200, 1.0, 1.0)
        assert jacobi_am(1e-200, m) == 1e-200

    @pytest.mark.parametrize("k", [0.0, 0.3, 0.77, 0.9922, 1.0])
    def test_array_argument_is_the_scalar_call_elementwise(self, k):
        m = mod(k)
        w = np.linspace(-7.0, 7.0, 57)
        sn, cn, dn = jacobi_sncndn(w, m)
        am = jacobi_am(w, m)
        assert sn.shape == cn.shape == dn.shape == am.shape == w.shape
        for i, x in enumerate(w.tolist()):
            assert (sn[i], cn[i], dn[i]) == jacobi_sncndn(x, m)
            assert am[i] == jacobi_am(x, m)

    def test_amplitude_at_k1_is_the_gudermannian(self):
        # numpy's arctan(sinh(w)) is within one ulp of libm's (one ulp at w = 0.7)
        for w in (0.7, -2.3, 0.1, 5.0):
            ref = math.atan(math.sinh(w))
            assert abs(jacobi_am(w, mod(1.0)) - ref) <= math.ulp(ref)

    def test_k1_limits_past_the_overflow(self):
        # cosh and sinh overflow past |w| = 710; the suite turns a
        # RuntimeWarning into an error, so the limits must come quietly
        m = mod(1.0)
        for w, sign in ((800.0, 1.0), (-800.0, -1.0)):
            assert jacobi_sncndn(w, m) == (sign, 0.0, 0.0)
            assert jacobi_am(w, m) == sign * math.pi / 2
        sn, cn, dn = jacobi_sncndn(np.array([-800.0, 800.0]), m)
        assert sn.tolist() == [-1.0, 1.0] and cn.tolist() == dn.tolist() == [0.0, 0.0]
        assert jacobi_am(np.array([-800.0, 800.0]), m).tolist() == [-math.pi / 2, math.pi / 2]
        # below the overflow the values are the plain numpy expressions
        w = np.linspace(-700.0, 700.0, 1401)
        sn, cn, dn = jacobi_sncndn(w, m)
        assert np.array_equal(sn, np.tanh(w))
        assert np.array_equal(cn, 1.0 / np.cosh(w)) and np.array_equal(dn, cn)
        assert np.array_equal(jacobi_am(w, m), np.arctan(np.sinh(w)))

    def test_amplitude_matches_scipy(self):
        rng = np.random.default_rng(13)
        for k in (0.3, 0.77):
            m = mod(k)
            K = complete_K(m)
            for w in rng.uniform(-4 * K, 4 * K, 100):
                assert jacobi_am(w, m) == pytest.approx(
                    ss.ellipj(w, k * k)[3], abs=1e-13)


def _reference_landen_chain(kp2: float):
    """The descending Landen chain as written before the Jacobi functions
    read the levels of complete_K's AGM, verbatim."""
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
    return c, em, en


def _reference_sncndn_reduced(u, kp2: float):
    """Bulirsch sn/cn/dn on its own chain, verbatim as written before."""
    u = np.asarray(u, dtype=float)
    if kp2 == 1.0:
        return np.sin(u), np.cos(u), np.ones_like(u)
    c, em, en = _reference_landen_chain(kp2)
    sn = np.sin(c * u)
    cn = np.cos(c * u)
    dn = np.ones_like(sn)
    nz = np.abs(u) >= _SN_TINY
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(nz, cn / np.where(nz, sn, 1.0), 0.0)
        cc = c * a
        for b, e in zip(reversed(em), reversed(en)):
            a = a * cc
            cc = cc * dn
            dn = (e + a) / (b + a)
            a = cc / b
        amp = 1.0 / np.sqrt(cc * cc + 1.0)
    sn_out = np.where(nz, np.where(sn >= 0.0, amp, -amp), u + 0.0)
    cn_out = np.where(nz, cc * sn_out, 1.0)
    dn_out = np.where(nz, dn, 1.0)
    return sn_out, cn_out, dn_out


def _reference_jacobi(ws, modulus):
    """(sn, cn, dn, am) for 0 < k < 1 by the general branches of
    jacobi_sncndn and jacobi_am as written before, with K from its own
    AGM loop."""
    K = _reference_K(modulus)
    q = np.round(ws / (2.0 * K))
    sn, cn, dn = _reference_sncndn_reduced(ws - 2.0 * K * q, modulus.k_prime ** 2)
    sgn = np.where((q % 2.0) != 0.0, -1.0, 1.0)
    return sgn * sn, sgn * cn, dn, q * math.pi + np.arctan2(sn, cn)


def _modulus_of_complement(kp):
    """A modulus with complement kp and k < 1, below kp = 1.5e-8 the
    largest float under 1."""
    return EllipticModulus(min(math.sqrt((1.0 - kp) * (1.0 + kp)), math.nextafter(1.0, 0.0)), kp)


def test_jacobi_functions_keep_the_bits_of_their_own_landen_chain():
    """Reading the levels of one AGM, jacobi_sncndn and jacobi_am give the
    bits of the former route, a Landen chain on k'^2 beside complete_K's
    AGM, and K and E keep the bits of their own loops, which stop at
    |a - b| <= 2e-16 a, not at one ulp.  The moduli are the
    profile and H1 moduli of every pair with r <= 40 (the H1 moduli of
    eight, (5, 1) first, reach a and b one ulp apart, above 2e-16 a, where
    the old loops ran all 40 steps), k' = 1 at small k, and k' from 0.8
    down to 1e-150."""
    surfaces = [derive_params(*pair) for pair in admissible_pairs(40)]
    moduli = ([m for p in surfaces for m in (p.modulus, p.h_modulus)] + [mod(1e-9), mod(1e-8)]
              + [_modulus_of_complement(float(kp)) for kp in np.logspace(-0.1, -150.0, 76)])
    rng = np.random.default_rng(5)
    around_tiny = _SN_TINY * np.array([0.5, 1.0 - 2.0 ** -52, 1.0, 1.0 + 2.0 ** -52, 2.0])
    base = np.concatenate([[0.0, -0.0, 1e-200], around_tiny, -around_tiny,
                           np.linspace(-1e3, 1e3, 201), rng.uniform(-20.0, 20.0, 200)])
    for modulus in moduli:
        K = _reference_K(modulus)
        assert complete_K(modulus).hex() == K.hex()
        assert complete_E(modulus).hex() == _reference_E(modulus).hex()
        periods = K * np.arange(-8.0, 9.0)
        ws = np.concatenate([base, periods, np.nextafter(periods, np.inf)])
        got = (*jacobi_sncndn(ws, modulus), jacobi_am(ws, modulus))
        for mine, ref in zip(got, _reference_jacobi(ws, modulus)):
            assert mine.tobytes() == ref.tobytes(), modulus


@pytest.mark.parametrize("kp", [1e-158, 1e-200, 5e-324])
def test_jacobi_functions_at_a_vanishing_complement(kp):
    """Where k'^2 is subnormal or underflows to 0, the triple is
    (tanh, sech, sech) and the amplitude the gudermannian, each within
    8 (1 + |w|) eps relative: sech(w) carries the rounding of w, relative
    eps |w|, times w tanh(w)."""
    m = _modulus_of_complement(kp)
    w = np.linspace(-300.0, 300.0, 2001)
    tol = 8.0 * (1.0 + np.abs(w)) * np.finfo(float).eps
    sech = 1.0 / np.cosh(w)
    *triple, am = (*jacobi_sncndn(w, m), jacobi_am(w, m))
    for got, ref in zip((*triple, am), (np.tanh(w), sech, sech, np.arctan(np.sinh(w)))):
        assert np.all(np.abs(got - ref) <= tol * np.abs(ref))


def _real_period(inv):
    """Real lattice period of P with the roots inv; poles sit at its
    multiples."""
    return _wp_reduction(inv)[-1]


def _wp_band_points(inv, rng, count):
    """Sample arguments at least a quarter period from every pole."""
    period = _real_period(inv)
    u = rng.uniform(0.25, 0.45, count)
    return period * np.where(rng.uniform(size=count) < 0.5, u, 1.0 - u)


class TestWeierstrass:
    @pytest.mark.parametrize("inv", WP_CASES)
    def test_laurent_leading_term(self, inv):
        y = 1e-4
        assert abs(y * y * weierstrass_p(y, inv) - 1.0) < 1e-6

    @pytest.mark.parametrize("inv", WP_CASES)
    def test_defining_ode_by_finite_differences(self, inv):
        rng = np.random.default_rng(17)
        h = 3e-4
        g2, g3 = _invariants(inv)
        for y in _wp_band_points(inv, rng, 100):
            f = lambda t: weierstrass_p(t, inv)
            dp = (-f(y - 3 * h) + 9 * f(y - 2 * h) - 45 * f(y - h)
                  + 45 * f(y + h) - 9 * f(y + 2 * h) + f(y + 3 * h)) / (60 * h)
            p = f(y)
            assert abs(dp * dp - (4 * p ** 3 - g2 * p - g3)) < 1e-8

    @pytest.mark.parametrize("inv", WP_CASES)
    def test_evenness(self, inv):
        rng = np.random.default_rng(19)
        for y in _wp_band_points(inv, rng, 50):
            assert abs(weierstrass_p(y, inv) - weierstrass_p(-y, inv)) < 1e-10

    @pytest.mark.parametrize("inv", WP_CASES)
    def test_periodicity(self, inv):
        period = _real_period(inv)
        for y in (0.31 * period, 0.44 * period):
            assert weierstrass_p(y + period, inv) == pytest.approx(
                weierstrass_p(y, inv), rel=1e-10)

    def test_pole_proximity_error(self):
        inv = WP_CASES[0]
        period = _real_period(inv)
        with pytest.raises(PoleProximityError):
            weierstrass_p(1e-10, inv)
        with pytest.raises(PoleProximityError):
            weierstrass_p(period + 1e-10, inv)

    def test_pole_error_names_the_worst_point_of_an_array(self):
        inv = WP_CASES[0]
        period = _real_period(inv)
        with pytest.raises(PoleProximityError, match=repr(2.0 * period + 1e-11)):
            weierstrass_p(np.array([0.3, 2.0 * period + 1e-11, 1e-10]), inv)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected(self, bad):
        with pytest.raises(DomainError, match="argument must be finite"):
            weierstrass_p(bad, WP_CASES[0])
        with pytest.raises(DomainError, match="argument must be finite"):
            weierstrass_p(np.array([0.3, bad]), WP_CASES[1])

    def test_degenerate_invariants_rejected(self):
        # repeated roots: (g2, g3) = (3, 1) and (12, -8), discriminant 0
        for roots in ((1.0, -0.5, -0.5), (1.0, 1.0, -2.0)):
            with pytest.raises(DomainError, match="neither three distinct reals"):
                weierstrass_p(0.5, roots)

    @pytest.mark.parametrize("roots", [
        (-17 / 12, 7 / 12, 5 / 6),
        (5 / 6, -17 / 12, 7 / 12),
        (WP_CASES[1][1], WP_CASES[1][0], WP_CASES[1][2]),
        (1 / 3, complex(-1 / 6, 0.8), complex(-1 / 6, 0.9)),
        (1.0, 0.5, -2.0),
        (1.0, 0.0, math.nan),
    ], ids=["ascending", "unordered", "pair-first", "not-conjugate", "nonzero-sum", "nan"])
    def test_roots_of_another_shape_rejected(self, roots):
        with pytest.raises(DomainError):
            weierstrass_p(0.5, roots)


class TestWeierstrassAgainstProfile:
    def test_phi2_formula_matches_ode_profile(self):
        # P-form of the third profile function against direct integration
        from lawson_bipolar.phi_system import (_integrate, closed_form_weierstrass,
                                               initial_state)
        from lawson_bipolar.surface_model import period_a
        from pairs import params_from_nm

        params = params_from_nm(2, 1)
        a = period_a(params)
        grid, states, _ = _integrate(params, initial_state(params), 1e-10, 512, a)
        poles = np.array([0.0, 0.25 * a, 0.5 * a, 0.75 * a, a])
        checked = 0
        for y, state in zip(grid, states):
            if np.min(np.abs(poles - y)) < 0.02 * a:
                continue
            mags = closed_form_weierstrass(y, params)
            assert abs(mags[2] - abs(state[2])) < 1e-6
            checked += 1
        assert checked >= 100
