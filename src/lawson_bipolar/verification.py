"""Cross-cutting mathematical checks aggregated into one report per (r, k).

Each check produces a CheckResult with a residual and its threshold; the
full battery covers the minimal-immersion identities of the profile, the
isometry between the bipolar chart and the flat (x, y) model, the area
and eigenvalue-functional closed forms, the Floquet structure, and the
orbit-space geodesic property.  All grids are fixed, and the scattered
sample points come from a deterministic additive-recurrence sequence, so
repeated runs reproduce reports bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hill_spectrum as hs
from . import phi_system as ps
from . import surface_model as sm
from .special_functions import complete_K, jacobi_sncndn
from .surface_model import (
    SurfaceParams,
    Topology,
    ParityClass,
    derive_params,
    klein_deck_map,
    metric_f_array,
    period_a,
)

__all__ = [
    "CheckResult",
    "FullReport",
    "profile_checks",
    "isometry_checks",
    "invariance_checks",
    "immersion_agreement_check",
    "area_quadrature",
    "orbit_space_checks",
    "floquet_structure_checks",
    "eigenfunction_zero_checks",
    "full_report",
]

#: the plastic number g, the real root of g^3 = g + 1; the R2 sequence
#: frac(1/2 + i (1/g, 1/g^2)) fills the unit square with low discrepancy
_PLASTIC = 1.324717957244746
_R2_STEP = np.array([1.0 / _PLASTIC, 1.0 / (_PLASTIC * _PLASTIC)])


#: the fixed settings of the battery's checks
PROFILE_TOL = 1e-13          # profile_checks: RK8 tolerance of the profile
AGREEMENT_POINTS = 50        # immersion_agreement_check: R2 points (u, v)
INVARIANCE_POINTS = 100      # invariance_checks: R2 points per group
ISOMETRY_GRID = 64           # isometry_checks: values of v
ORBIT_GRID = 512             # orbit_space_checks: interior values of y
FLOQUET_POINTS = 50          # floquet_structure_checks: R2 points (p, lambda)
#: area_quadrature: trapezoid nodes, the least power of two at or above
#: 4 N_MODES.  They alias only the coefficients c_2j of f with j >= 2 N_MODES,
#: which the tail that rank accepts, sum_(j >= N_MODES) |c_2j| <= TAIL_BOUND c_0,
#: already bounds
AREA_POINTS = 1 << (4 * hs.N_MODES - 1).bit_length()
AREA_BOUND = 1e-9            # area_identity: relative gap, quadrature to closed form
SIMPLICITY_FLOOR = 1e-9      # simplicity_in_window: a root's own entry at b/2, relative


def _r2_points(start: int, count: int, lo, hi) -> np.ndarray:
    """count points of the R2 sequence, from index start on, mapped to
    the box [lo, hi); shape (2, count), one row per axis.  Each check
    starts 10000 further on, so that no two take the same points."""
    i = np.arange(start, start + count, dtype=float)
    unit = (0.5 + i[:, None] * _R2_STEP) % 1.0
    lo = np.asarray(lo, float)
    return (lo + unit * (np.asarray(hi, float) - lo)).T


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named residual check."""

    name: str
    residual: float
    threshold: float
    context: str = ""

    @property
    def passed(self) -> bool:
        return self.residual < self.threshold

    def __str__(self):
        tag, rel = ("pass", "<") if self.passed else ("FAIL", ">=")
        return f"[{tag}] {self.name}: residual {self.residual:.3e} {rel} {self.threshold:.1e}"


# ---------------------------------------------------------------------------
# profile checks
# ---------------------------------------------------------------------------

def _takahashi_residual(params: SurfaceParams, states: np.ndarray,
                        f: np.ndarray) -> tuple[float, str]:
    """Residual of (p_j^2 phi_j - phi_j'') / f - 2 phi_j over the grid,
    phi'' from the profile system, f the conformal factor on the grid."""
    n2, m2 = params.n ** 2, params.m ** 2
    p0, p1, p2 = states[:, 0], states[:, 1], states[:, 2]
    twof_hat = 2.0 * (m2 * p1 ** 2 + n2 * p2 ** 2)
    parts = {
        "phi0": np.max(np.abs((0.0 * p0 + twof_hat * p0) / f - 2.0 * p0)),
        "phi1": np.max(np.abs((m2 * p1 - (m2 - twof_hat) * p1) / f - 2.0 * p1)),
        "phi2": np.max(np.abs((n2 * p2 - (n2 - twof_hat) * p2) / f - 2.0 * p2)),
    }
    ctx = ", ".join(f"{k}: {v:.3e}" for k, v in parts.items())
    return float(np.max(list(parts.values()))), ctx


def profile_checks(params: SurfaceParams, scale: float = 1.0) -> list[CheckResult]:
    """Sphere/conformality/Takahashi residuals, first-integral drift,
    the reversal residual at y = a/4, and the three-way closed-form
    agreement, each threshold times scale (verify --strict takes 0.5).

    The reversal residual max(|phi0|, |phi1'|, |phi2'|) at a/4 says
    whether the quarter closes the orbit.  Its floor is 10 * PROFILE_TOL
    relative to the largest component there, |phi0'(a/4)| = c0 n =
    sqrt((n^2 + m^2)/2); an absolute floor would tighten as n grows.
    Its context states the floor it is judged against, scale included,
    and the step count with its modelled error, ps.step_error c0 n.

    The battery integrates at the tightest sanctioned tolerance: the
    conserved quantities scale like n^4, so the absolute pointwise
    targets (1e-9 conformality, 1e-8 drift) need the extra orders on
    the largest admissible profiles.  The pointwise residuals are taken
    at every step end of the RK8 on ps.profile_steps at PROFILE_TOL over
    the fundamental quarter [0, a/4], which fixes the whole orbit by its
    two reversal symmetries.  The theta closed form is compared in signed values over
    the whole period, with the quarter's states and their reversor
    images at a/2 - y, a/2 + y and a - y; the Weierstrass magnitudes are
    compared over the period."""
    a = period_a(params)
    profile = ps.integrate_system(params, tol=PROFILE_TOL, n_points=None)
    st = profile.states
    sphere = float(np.max(np.abs(np.sum(st[:, :3] ** 2, axis=1) - 1.0)))
    f = metric_f_array(profile.grid, params)
    f_hat = params.m ** 2 * st[:, 1] ** 2 + params.n ** 2 * st[:, 2] ** 2
    conf = float(np.max(np.abs(np.sum(st[:, 3:] ** 2, axis=1) - f_hat)))
    metric_gap = float(np.max(np.abs(f_hat - f)))
    taka, taka_ctx = _takahashi_residual(params, st, f)

    e1, e2 = ps.first_integrals(st, params)
    e1_drift = float(np.max(np.abs(e1 - e1[0])))
    e2_drift = float(np.max(np.abs(e2 - e2[0])))
    # the reversor images of the quarter cover the rest of the period:
    # x(a/2 - y) = R_q x(y), x(a/2 + y) = R_q R_0 x(y), x(a - y) = R_0 x(y)
    y = profile.grid
    ys = np.concatenate((y, 0.5 * a - y, 0.5 * a + y, a - y))
    images = np.vstack((st, st * ps.REVERSE_AT_QUARTER,
                        st * (ps.REVERSE_AT_QUARTER * ps.REVERSE_AT_0),
                        st * ps.REVERSE_AT_0))
    cross_theta = float(np.max(np.abs(ps.closed_form_theta(ys, params) - images)))

    # the Weierstrass route is an independent cross-check; only magnitudes
    # compare, as the printed phi1 P-form does not fix the odd sign
    # convention (the signed gap is a diagnostic)
    ys = np.linspace(0.037 * a, 0.963 * a, 100)
    mags = np.column_stack(ps.closed_form_weierstrass(ys, params))
    ref = ps.closed_form_theta(ys, params)[:, :3]
    cross_wp = float(np.max(np.abs(mags - np.abs(ref))))
    signed_gap = float(np.max(np.abs(mags[:, 1] - ref[:, 1])))

    reversal = profile.reversal_residual()
    c0n = math.sqrt((params.n ** 2 + params.m ** 2) / 2.0)
    floor = 10.0 * PROFILE_TOL * c0n * scale
    steps = len(profile.grid)
    model = ps.step_error(params, steps, a / 4.0) * c0n
    return [
        CheckResult("sphere_constraint", sphere, 1e-8 * scale),
        CheckResult("conformality", conf, 1e-9 * scale,
                    f"profile-vs-f(y) gap {metric_gap:.3e}"),
        CheckResult("takahashi_identity", taka, 1e-8 * scale, taka_ctx),
        CheckResult("first_integral_E1_drift", e1_drift, 1e-8 * scale),
        CheckResult("first_integral_E2_drift", e2_drift, 1e-8 * scale),
        CheckResult("phi_reversal", reversal, floor,
                    f"max |phi0, phi1', phi2'| at a/4 = {reversal:.3e}, "
                    f"floor 10 tol c0 n = {floor:.1e} "
                    f"at tol {PROFILE_TOL:.1e}, {steps} RK8 steps, model error {model:.1e}"),
        CheckResult("phi_theta_vs_ode", cross_theta, 1e-8 * scale),
        CheckResult("phi_weierstrass_vs_theta", cross_wp, 1e-6 * scale,
                    f"signed phi1 comparison (diagnostic) {signed_gap:.3e}"),
    ]


# ---------------------------------------------------------------------------
# isometry of the two charts
# ---------------------------------------------------------------------------

def isometry_checks(params: SurfaceParams) -> list[CheckResult]:
    """Pull the flat-model metric back through H1 o H3 (even rk) or
    H1 o H3' (odd rk) and compare with the bipolar-chart metric; also
    check the sn/cn bridging identities along the chart change."""
    n, m = params.n, params.m
    even_rk = params.parity_class is ParityClass.EVEN_RK
    chart, dx_du = ("H3", 1.0) if even_rk else ("H3prime", 2.0)
    K = complete_K(params.modulus)

    v = np.linspace(0.0, math.pi, ISOMETRY_GRID, endpoint=False)
    z = sm.z_of_v(v, params)
    y = 2.0 * z + K / n     # H3 and H3' alike; x = u or 2u gives dx_du
    ftil = metric_f_array(y, params)
    sv = np.sin(v)
    P = (n + m) ** 2 - 4.0 * m * n * sv * sv
    # dz/dv = 1/sqrt(P) and dy/dz = 2, so dy/dv = 2/sqrt(P)
    g_uu, g_vv = sm.bipolar_metric(v, params)
    pull = [ftil * dx_du ** 2 - g_uu, ftil * 4.0 / P - g_vv]
    # sn(K - n y) = -sn(2 n z) and cn(K - n y) = cn(2 n z) at each z
    sn2, cn2, _ = jacobi_sncndn(2.0 * n * z, params.modulus)
    sny, cny, _ = jacobi_sncndn(K - n * y, params.modulus)
    bridge = [sny + sn2, cny - cn2]
    return [
        CheckResult("isometry_pullback", float(np.max(np.abs(pull))), 1e-8,
                    f"chart {chart}, {ISOMETRY_GRID} values of v"),
        CheckResult("bridging_identities", float(np.max(np.abs(bridge))), 1e-10),
    ]


def invariance_checks(params: SurfaceParams) -> list[CheckResult]:
    """Invariance of the closed-form column under the surface's deck group."""
    r, k = params.r, params.k
    if params.parity_class is ParityClass.EVEN_RK:
        gens = [("v+pi", lambda u, v: (u, v + math.pi)),
                ("u+2pi", lambda u, v: (u + 2.0 * math.pi, v))]
    else:
        gens = [("v+pi", lambda u, v: (u, v + math.pi)),
                ("u+pi", lambda u, v: (u + math.pi, v))]
    u, v = _r2_points(0, INVARIANCE_POINTS, 0.0, [2.0 * math.pi, math.pi])
    base = sm.bipolar_column(u, v, r, k)
    res = float(np.max([np.max(np.abs(sm.bipolar_column(*gen(u, v), r, k) - base))
                        for _, gen in gens]))
    out = [CheckResult("group_invariance", res, 1e-12,
                       "generators " + ", ".join(name for name, _ in gens))]
    if params.topology is Topology.KLEIN_BOTTLE:
        u, v = _r2_points(10_000, INVARIANCE_POINTS, [0.0, 0.01],
                          [2.0 * math.pi, math.pi - 0.01])
        u2, v2 = klein_deck_map(u, v, params)
        kres = np.abs(sm.bipolar_column(u2, v2, r, k) - sm.bipolar_column(u, v, r, k))
        out.append(CheckResult("klein_invariance", float(np.max(kres)), 1e-9,
                               "deck map H1^-1 o H2 o H1"))
    return out


def immersion_agreement_check(params: SurfaceParams) -> CheckResult:
    """Wedge-product route against the printed closed-form column."""
    u, v = _r2_points(20_000, AGREEMENT_POINTS, 0.0, [2.0 * math.pi, math.pi])
    wedge = sm.bipolar_immersion(u, v, params)
    closed = sm._project5(sm.bipolar_column(u, v, params.r, params.k), params.r, params.k, u, v)
    norm = np.linalg.norm(wedge, axis=1)
    res = float(np.max([np.max(np.abs(wedge - closed)), np.max(np.abs(norm - 1.0))]))
    return CheckResult("immersion_column_agreement", res, 1e-12)


# ---------------------------------------------------------------------------
# area and the eigenvalue functional
# ---------------------------------------------------------------------------

def area_quadrature(params: SurfaceParams) -> float:
    """Area 2 pi * integral_0^a f dy by the periodic trapezoid rule
    (spectrally accurate for the analytic periodic integrand); halved
    for a Klein bottle."""
    a = period_a(params)
    ys = np.linspace(0.0, a, AREA_POINTS, endpoint=False)
    area = 2.0 * math.pi * a * float(np.mean(metric_f_array(ys, params)))
    if params.topology is Topology.KLEIN_BOTTLE:
        area /= 2.0
    return area


def _area_identity(quad_area: float, closed_area: float) -> CheckResult:
    """The area_identity check: the relative gap of the quadrature area to
    the closed form, against AREA_BOUND.  full_report and the area
    command both judge the areas here."""
    return CheckResult("area_identity", abs(quad_area - closed_area) / closed_area,
                       AREA_BOUND, f"quadrature {quad_area!r}, closed {closed_area!r}")


# ---------------------------------------------------------------------------
# orbit space
# ---------------------------------------------------------------------------

def orbit_space_checks(params: SurfaceParams) -> list[CheckResult]:
    """The profile curve is a unit-speed geodesic of the psi = 0 slice
    metric g11 d rho^2 + g22 d a^2, g11 = cos^2(rho) (m^2 cos^2 a +
    n^2 sin^2 a), g22 = g11 cos^2(rho), after reparametrizing by
    ds/dy = f = m^2 phi1^2 + n^2 phi2^2, where (phi0, phi1, phi2) =
    (sin rho, cos rho cos a, cos rho sin a).

    phi and phi' come from the theta closed form, phi'' from the profile
    system, the y-derivatives of rho, a and f from the chain rule, and
    the Christoffel symbols from the closed-form partials of g11, g22;
    no step size enters."""
    n2, m2 = params.n ** 2, params.m ** 2
    a_per = period_a(params)
    ys = np.linspace(0.03 * a_per, 0.97 * a_per, ORBIT_GRID)
    st = ps.closed_form_theta(ys, params)
    p0, p1, p2, d0, d1, d2 = st.T
    _, _, _, dd0, dd1, dd2 = ps.odesystem_rhs(st.T, params)

    rho, al = np.arcsin(p0), np.arctan2(p2, p1)
    cr, sr, ca, sa = np.cos(rho), np.sin(rho), np.cos(al), np.sin(al)
    ident = np.abs([p0 - sr, p1 - cr * ca, p2 - cr * sa])
    ellipse = np.abs(2.0 * (p1 * p1) + (2.0 * n2 / (n2 + m2)) * (p0 * p0) - 1.0)

    # y-derivatives of rho = asin(phi0), a = atan2(phi2, phi1) and f
    cos2, cos2_r = cr * cr, -2.0 * sr * cr
    w, q = p1 * d2 - p2 * d1, p1 * d1 + p2 * d2
    r_y = d0 / cr
    r_yy = (dd0 + p0 * r_y * r_y) / cr
    a_y = w / cos2
    a_yy = (p1 * dd2 - p2 * dd1) / cos2 - 2.0 * w * q / (cos2 * cos2)
    f = m2 * p1 * p1 + n2 * p2 * p2
    f_y = 2.0 * (m2 * p1 * d1 + n2 * p2 * d2)
    rdot, adot = r_y / f, a_y / f
    rddot = r_yy / (f * f) - f_y * r_y / (f * f * f)
    addot = a_yy / (f * f) - f_y * a_y / (f * f * f)

    # the metric and its partials in (rho, a)
    G, G_a = m2 * ca * ca + n2 * sa * sa, 2.0 * (n2 - m2) * sa * ca
    g11, g11_r, g11_a = cos2 * G, cos2_r * G, cos2 * G_a
    g22, g22_r, g22_a = g11 * cos2, g11_r * cos2 + g11 * cos2_r, g11_a * cos2
    c111, c112, c122 = g11_r / (2.0 * g11), g11_a / (2.0 * g11), -g22_r / (2.0 * g11)
    c211, c212, c222 = -g11_a / (2.0 * g22), g22_r / (2.0 * g22), g22_a / (2.0 * g22)
    geo = np.abs([
        rddot + c111 * rdot * rdot + 2.0 * c112 * rdot * adot + c122 * adot * adot,
        addot + c211 * rdot * rdot + 2.0 * c212 * rdot * adot + c222 * adot * adot])
    return [
        CheckResult("orbit_identification", float(np.max(ident)), 1e-10),
        CheckResult("orbit_ellipse", float(np.max(ellipse)), 1e-12),
        CheckResult("orbit_geodesic", float(np.max(geo)), 1e-6,
                    f"{ORBIT_GRID} interior points, exact derivatives"),
    ]


# ---------------------------------------------------------------------------
# Floquet structure
# ---------------------------------------------------------------------------

#: the entry of the scaled pair (z1, c z1', z2/c, z2') at c = b/2 that
#: vanishes at a root of each block, in the order of hs.BLOCKS: z1' (EVEN,
#: +2), z1 (EVEN, -2), z2 (ODD, +2), z2' (ODD, -2).  Entry 3 - own is the
#: partner's, the block of the other parity with the same Psi.
_OWN_ENTRY = np.array([1, 0, 2, 3])
_ENTRY_NAMES = ("z1", "c z1'", "z2/c", "z2'")


def _simplicity(roots: list, pair: np.ndarray, c: float,
                floor: float = SIMPLICITY_FLOOR) -> CheckResult:
    """simplicity_in_window from the fundamental pair (4, R) at c = b/2 of
    the located roots [(p, Eigenvalue)], against floor.

    f is even about 0 and about c, so a root of a block is a zero of one
    entry of the pair at c (Magnus & Winkler, Hill's Equation, ch. 1).  The
    pair is scaled as (z1, c z1', z2/c, z2'), whose Wronskian is 1, and
    over its largest entry.  A root is simple when its own entry is below
    floor and its partner's is not; the Wronskian keeps the
    other two entries away from 0, and the half-period identities make a
    zero own entry Psi = +-2."""
    scaled = np.abs(pair * np.array([[1.0], [c], [1.0 / c], [1.0]]))
    scaled /= scaled.max(axis=0)
    own = _OWN_ENTRY[[hs.BLOCKS.index((eig.parity, eig.psi_target)) for _, eig in roots]]
    own_q, partner_q = scaled[[own, 3 - own], np.arange(len(roots))]
    flags = []
    for i in np.flatnonzero(~((own_q < floor) & (partner_q >= floor))):
        (p, eig), entry = roots[i], own[i]
        flags.append(f"gamma_{eig.index}({p})={eig.gamma:.12g}: {eig.parity.value}, "
                     f"Psi={eig.psi_target:+g}, own {_ENTRY_NAMES[entry]} {own_q[i]:.3e}, "
                     f"partner {_ENTRY_NAMES[3 - entry]} {partner_q[i]:.3e}")
    ctx = "; ".join(flags) if flags else (
        f"{len(roots)} roots at b/2: worst own {own_q.max():.3e}, "
        f"smallest partner {partner_q.min():.3e}, floor {floor:g}")
    return CheckResult("simplicity_in_window",
                       float(own_q.max()) + (1.0 if flags else 0.0), floor, ctx)


def floquet_structure_checks(params: SurfaceParams, scale: float = 1.0) -> list[CheckResult]:
    """Wronskian and half-period identities at R2 points (p, lambda), and
    simplicity at located roots, each judged at b/2 by _simplicity
    against SIMPLICITY_FLOOR; every threshold, that floor too, times scale.

    The points fill the spectral window lambda in [0, 3), p in [0, n],
    where the fundamental pair stays O(1) (n * b = 2 K(m/n)); outside it
    the solutions grow exponentially and an absolute Wronskian residual
    stops being meaningful.

    hs.floquet, the checks' only route to the propagation, takes the R2
    points to b/2 and on to b in one call, the pair at b composed from a
    propagation over each half, and every located root to b/2 alone in a
    second; each column's bits do not depend on the others in its call."""
    b = period_a(params) / 2.0
    c, half = b / 2.0, hs._half_steps(params)
    pvals, lvals = _r2_points(30_000, FLOQUET_POINTS, 0.0, [float(params.n), 3.0])
    roots = [(line.p, eig) for line in hs.surface_lines(params) for eig in line.eigenvalues]
    (z1h, dz1h, z2h, dz2h), (z1b, dz1b, z2b, dz2b) = hs.floquet(
        pvals, lvals, params, y_end=(c, b))
    at_roots = np.array(hs.floquet([p for p, _ in roots], [eig.gamma for _, eig in roots],
                                   params, y_end=c))
    wronsk = float(np.max(np.abs(z1b * dz2b - z2b * dz1b - 1.0)))
    half_ids = float(np.max([
        np.max(np.abs(z1b - (2.0 * z1h * dz2h - 1.0))),
        np.max(np.abs(z1b - (1.0 + 2.0 * z2h * dz1h))),
        np.max(np.abs(dz1b - 2.0 * z1h * dz1h)),
        np.max(np.abs(z2b - 2.0 * z2h * dz2h)),
        np.max(np.abs(dz2b - z1b))]))
    return [
        CheckResult("floquet_wronskian", wronsk, 1e-10 * scale,
                    f"{FLOQUET_POINTS} R2 points (p, lambda), {2 * half} RK8 steps "
                    f"to b, {half} per half"),
        CheckResult("half_period_identities", half_ids, 1e-9 * scale),
        _simplicity(roots, at_roots, c, SIMPLICITY_FLOOR * scale),
    ]


def eigenfunction_zero_checks(params: SurfaceParams) -> CheckResult:
    """gamma_1 and gamma_2 eigenfunctions have exactly 2 zeros per period,
    the gamma_0 ground line none.  Each is the lowest root of its block:
    gamma_1(0) of the odd and gamma_2(0) of the even b-antiperiodic
    block on line 0, gamma_0(1) of the even b-periodic block on line 1."""
    expected = [(hs.Parity.ODD, -2.0, 0, 1, 2), (hs.Parity.EVEN, -2.0, 0, 2, 2),
                (hs.Parity.EVEN, 2.0, 1, 0, 0)]
    worst = 0
    details = []
    for parity, target, p, index, want in expected:
        gamma, _, vals = hs.eigenfunction_samples(params, parity, target, p)
        got = hs.count_zeros(vals)
        details.append(f"gamma_{index}({p})={gamma:.6f}: {got} zeros (want {want})")
        worst = max(worst, abs(got - want))
    return CheckResult("eigenfunction_zero_counts", float(worst), 0.5,
                       "; ".join(details))


# ---------------------------------------------------------------------------
# full battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullReport:
    """ExtremalReport plus the complete list of CheckResults."""

    params: SurfaceParams
    rank_i: int
    multiplicity: int
    lambda_value: float
    area: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "params": {"r": self.params.r, "k": self.params.k,
                       "n": self.params.n, "m": self.params.m},
            "topology": self.params.topology.value,
            "rank_i": self.rank_i,
            "multiplicity": self.multiplicity,
            "lambda_value": self.lambda_value,
            "area": self.area,
            "passed": self.passed,
            "checks": [{"name": c.name, "residual": c.residual, "threshold": c.threshold,
                        "passed": c.passed, "context": c.context}
                       for c in self.checks],
        }


def _scaled(checks: list[CheckResult], scale: float) -> list[CheckResult]:
    """checks with every threshold times scale."""
    return [CheckResult(c.name, c.residual, c.threshold * scale, c.context) for c in checks]


def full_report(r: int, k: int, strict: bool = False) -> FullReport:
    """Run every check for one surface; passes iff all residuals are in
    tolerance and the computed rank matches the parity-class formula.
    Strict mode halves every threshold: profile_checks and
    floquet_structure_checks halve theirs where they form them, so the
    floors their contexts state are the halved ones."""
    scale = 0.5 if strict else 1.0
    params = derive_params(r, k)
    checks = profile_checks(params, scale)
    checks += _scaled([immersion_agreement_check(params), *invariance_checks(params),
                       *isometry_checks(params), *orbit_space_checks(params)], scale)
    checks += floquet_structure_checks(params, scale)
    closed_area = sm.area_closed_form(params)
    checks += _scaled([eigenfunction_zero_checks(params),
                       _area_identity(area_quadrature(params), closed_area)], scale)

    report = hs.extremal_rank(r, k)
    checks += _scaled([
        CheckResult("rank_matches_formula",
                    float(abs(report.rank_i - hs.rank_formula(params))), 0.5,
                    f"rank {report.rank_i}, formula {hs.rank_formula(params)}"),
        CheckResult("multiplicity_is_5", float(abs(report.multiplicity - 5)), 0.5,
                    f"cluster within {report.cluster_gap:.3e} n^2 of p^2, "
                    f"next mu {report.next_mu:.3e} n^2"),
        CheckResult("branch_anchors",
                    float(np.max([report.residuals[key] for key in
                                  ("anchor_gamma0_at_0", "anchor_gamma2_at_0",
                                   "anchor_gamma1_at_m", "anchor_gamma0_at_n")])), 1e-7,
                    f"{report.modes} modes per block at nome q = {report.nome:.3e}, "
                    f"Fourier tail {report.tail:.3e} c_0"),
    ], scale)
    return FullReport(params=params, rank_i=report.rank_i,
                      multiplicity=report.multiplicity,
                      lambda_value=report.lambda_functional,
                      area=closed_area, checks=tuple(checks))
