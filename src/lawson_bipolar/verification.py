"""Cross-cutting mathematical checks aggregated into one report per (r, k).

Each check produces a CheckResult with a residual and its threshold; the
full battery covers the minimal-immersion identities of the profile, the
isometry between the bipolar chart and the flat (x, y) model, the area
and eigenvalue-functional closed forms, the Floquet structure, and the
orbit-space geodesic property.  All grids and random draws are fixed, so
repeated runs reproduce reports bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hill_spectrum as hs
from . import phi_system as ps
from . import surface_model as sm
from .special_functions import complete_K, jacobi_sncndn
from .surface_model import (
    HTransform,
    SurfaceParams,
    Topology,
    ParityClass,
    derive_params,
    h_transforms,
    klein_deck_map,
    metric_f_array,
    period_a,
)

__all__ = [
    "VerificationError",
    "CheckResult",
    "OrbitPoint",
    "FullReport",
    "orbit_point_from_state",
    "takahashi_check",
    "profile_checks",
    "isometry_checks",
    "isometry_check",
    "invariance_checks",
    "area_quadrature",
    "area_and_lambda",
    "orbit_space_check",
    "orbit_space_checks",
    "floquet_structure_checks",
    "full_report",
    "RANDOM_SEED",
]

RANDOM_SEED = 20240915


class VerificationError(RuntimeError):
    """A hard consistency failure (quadrature vs closed form and the like)."""


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
        tag = "pass" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: residual {self.residual:.3e} < {self.threshold:.1e}"


@dataclass(frozen=True)
class OrbitPoint:
    """Orbit-space coordinates of a profile point on the psi = 0 slice.

    orbit_alpha is the angular coordinate of the orbit space; it is
    unrelated to the profile modulus m/n.
    """

    rho: float
    orbit_alpha: float
    psi: float = 0.0


def orbit_point_from_state(state: ps.PhiState) -> OrbitPoint:
    """Identify (phi0, phi1, phi2) = (sin rho, cos rho cos a, cos rho sin a)."""
    return OrbitPoint(rho=math.asin(state.phi0),
                      orbit_alpha=math.atan2(state.phi2, state.phi1))


# ---------------------------------------------------------------------------
# profile checks
# ---------------------------------------------------------------------------

def _takahashi_residual(profile: ps.PhiProfile) -> tuple[float, str]:
    """Residual of (p_j^2 phi_j - phi_j'') / f - 2 phi_j over the grid,
    with phi'' taken from the profile system itself."""
    params = profile.params
    n2, m2 = params.n ** 2, params.m ** 2
    p0, p1, p2 = profile.states[:, 0], profile.states[:, 1], profile.states[:, 2]
    f = metric_f_array(profile.grid, params)
    twof_hat = 2.0 * (m2 * p1 ** 2 + n2 * p2 ** 2)
    parts = {
        "phi0": np.max(np.abs((0.0 * p0 + twof_hat * p0) / f - 2.0 * p0)),
        "phi1": np.max(np.abs((m2 * p1 - (m2 - twof_hat) * p1) / f - 2.0 * p1)),
        "phi2": np.max(np.abs((n2 * p2 - (n2 - twof_hat) * p2) / f - 2.0 * p2)),
    }
    worst = max(parts.values())
    ctx = ", ".join(f"{k}: {v:.3e}" for k, v in parts.items())
    return float(worst), ctx


def takahashi_check(params: SurfaceParams, grid_size: int = 1024,
                    tol: float = 1e-10) -> CheckResult:
    """Each immersion component is a Laplace eigenfunction of eigenvalue 2."""
    profile = ps.integrate_system(params, tol=tol, n_points=grid_size)
    worst, ctx = _takahashi_residual(profile)
    return CheckResult("takahashi_identity", worst, 1e-8, ctx)


def profile_checks(params: SurfaceParams, grid_size: int = 1024,
                   tol: float = 1e-13) -> list[CheckResult]:
    """Sphere/conformality/Takahashi residuals, first-integral drift,
    periodicity, and the three-way closed-form agreement.

    The battery integrates at the tightest sanctioned tolerance: the
    conserved quantities scale like n^4, so the absolute pointwise
    targets (1e-9 conformality, 1e-8 drift) need the extra orders on
    the largest admissible profiles."""
    profile = ps.integrate_system(params, tol=tol, n_points=grid_size)
    st = profile.states
    sphere = float(np.max(np.abs(np.sum(st[:, :3] ** 2, axis=1) - 1.0)))
    f = metric_f_array(profile.grid, params)
    conf = float(np.max(np.abs(
        np.sum(st[:, 3:] ** 2, axis=1)
        - (params.m ** 2 * st[:, 1] ** 2 + params.n ** 2 * st[:, 2] ** 2))))
    metric_gap = float(np.max(np.abs(
        (params.m ** 2 * st[:, 1] ** 2 + params.n ** 2 * st[:, 2] ** 2) - f)))
    taka, taka_ctx = _takahashi_residual(profile)

    e = np.array([ps.first_integrals(profile.state_at(i), params)
                  for i in range(len(profile.grid))])
    e1_drift = float(np.max(np.abs(e[:, 0] - e[0, 0])))
    e2_drift = float(np.max(np.abs(e[:, 1] - e[0, 1])))

    theta_states = np.array([ps.closed_form_theta(y, params).as_array()
                             for y in profile.grid])
    cross_theta = float(np.max(np.abs(theta_states - st)))

    a = period_a(params)
    ys = np.linspace(0.037 * a, 0.963 * a, 100)
    cross_wp = 0.0
    signed_gap = 0.0        # diagnostic only: the printed phi1 P-form does
    for y in ys:            # not fix the odd sign convention
        mags = ps.closed_form_weierstrass(y, params)
        ref = ps.closed_form_theta(y, params)
        cross_wp = max(cross_wp,
                       abs(mags[0] - abs(ref.phi0)),
                       abs(mags[1] - abs(ref.phi1)),
                       abs(mags[2] - abs(ref.phi2)))
        signed_gap = max(signed_gap, abs(mags[1] - ref.phi1))

    return [
        CheckResult("sphere_constraint", sphere, 1e-8),
        CheckResult("conformality", conf, 1e-9,
                    f"profile-vs-f(y) gap {metric_gap:.3e}"),
        CheckResult("takahashi_identity", taka, 1e-8, taka_ctx),
        CheckResult("first_integral_E1_drift", e1_drift, 1e-8),
        CheckResult("first_integral_E2_drift", e2_drift, 1e-8),
        CheckResult("phi_periodicity", profile.periodicity_residual(), 1e-8),
        CheckResult("phi_theta_vs_ode", cross_theta, 1e-8),
        CheckResult("phi_weierstrass_vs_theta", float(cross_wp), 1e-6,
                    f"signed phi1 comparison (diagnostic) {signed_gap:.3e}"),
    ]


# ---------------------------------------------------------------------------
# isometry of the two charts
# ---------------------------------------------------------------------------

def isometry_checks(r: int, k: int, grid: int = 64) -> list[CheckResult]:
    """Pull the flat-model metric back through H1 o H3 (even rk) or
    H1 o H3' (odd rk) and compare with the bipolar-chart metric; also
    check the three sn/cn bridging identities along the chart change."""
    params = derive_params(r, k)
    n, m = params.n, params.m
    even_rk = params.parity_class is ParityClass.EVEN_RK
    which = HTransform.H3 if even_rk else HTransform.H3PRIME
    dx_du = 1.0 if even_rk else 2.0
    K = complete_K(params.modulus)

    pull_res = 0.0
    bridge_res = 0.0
    vs = np.linspace(0.0, math.pi, grid, endpoint=False)
    us = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    for v in vs:
        z = sm.z_of_v(v, params)
        _, y = h_transforms((0.0, z), which, params)
        ftil = float(metric_f_array(y, params))
        P = (n + m) ** 2 - 4.0 * m * n * math.sin(v) ** 2
        # dz/dv = 1/sqrt(P) and dy/dz = 2, so dy/dv = 2/sqrt(P)
        pb_uu = ftil * dx_du ** 2
        pb_vv = ftil * 4.0 / P
        for u in us:
            g_uu, g_vv = sm.bipolar_metric(u, v, params)
            pull_res = max(pull_res, abs(pb_uu - g_uu), abs(pb_vv - g_vv))
        # bridging identities at this z
        sn2, cn2, _ = jacobi_sncndn(2.0 * n * z, params.modulus)
        th = sm.theta_of_y(y, params)
        sny, _, _ = jacobi_sncndn(K - n * y, params.modulus)
        bridge_res = max(bridge_res,
                         abs(math.cos(th) + sn2),
                         abs(math.sin(th) - cn2),
                         abs(math.cos(th) - sny))
    return [
        CheckResult("isometry_pullback", float(pull_res), 1e-8,
                    f"chart {which.value}, {grid}x{grid} grid"),
        CheckResult("bridging_identities", float(bridge_res), 1e-10),
    ]


def isometry_check(r: int, k: int, grid: int = 64) -> CheckResult:
    """Metric pullback agreement (the bridging residual rides in context)."""
    pull, bridge = isometry_checks(r, k, grid)
    ctx = f"{pull.context}; bridging residual {bridge.residual:.3e}"
    return CheckResult(pull.name, pull.residual, pull.threshold, ctx)


def invariance_checks(params: SurfaceParams, n_points: int = 100) -> list[CheckResult]:
    """Invariance of the closed-form column under the surface's deck group."""
    rng = np.random.default_rng(RANDOM_SEED)
    r, k = params.r, params.k
    if params.parity_class is ParityClass.EVEN_RK:
        gens = [("v+pi", lambda u, v: (u, v + math.pi)),
                ("u+2pi", lambda u, v: (u + 2.0 * math.pi, v))]
    else:
        gens = [("v+pi", lambda u, v: (u, v + math.pi)),
                ("u+pi", lambda u, v: (u + math.pi, v))]
    u, v = rng.uniform(0.0, [2.0 * math.pi, math.pi], size=(n_points, 2)).T
    base = sm.bipolar_column(u, v, r, k)
    res = max(float(np.max(np.abs(sm.bipolar_column(*gen(u, v), r, k) - base)))
              for _, gen in gens)
    out = [CheckResult("group_invariance", res, 1e-12,
                       "generators " + ", ".join(name for name, _ in gens))]
    if params.topology is Topology.KLEIN_BOTTLE:
        kres = 0.0
        for _ in range(n_points):
            u = rng.uniform(0.0, 2.0 * math.pi)
            v = rng.uniform(0.01, math.pi - 0.01)
            u2, v2 = klein_deck_map(u, v, params)
            kres = max(kres, float(np.max(np.abs(
                sm.parambip_column(u2, v2, params) - sm.parambip_column(u, v, params)))))
        out.append(CheckResult("klein_invariance", kres, 1e-9,
                               "deck map H1^-1 o H2 o H1"))
    return out


def immersion_agreement_check(params: SurfaceParams, n_points: int = 50) -> CheckResult:
    """Wedge-product route against the printed closed-form column."""
    rng = np.random.default_rng(RANDOM_SEED + 1)
    u, v = rng.uniform(0.0, [2.0 * math.pi, math.pi], size=(n_points, 2)).T
    wedge = sm.bipolar_immersion_array(u, v, params)
    col6 = sm.bipolar_column(u, v, params.r, params.k)
    closed = sm._project5(col6.T, params.r, params.k, u, v)
    norm = np.sqrt(sm._row_dot(wedge, wedge))
    res = max(float(np.max(np.abs(wedge - closed))),
              float(np.max(np.abs(norm - 1.0))))
    return CheckResult("immersion_column_agreement", res, 1e-12)


# ---------------------------------------------------------------------------
# area and the eigenvalue functional
# ---------------------------------------------------------------------------

def area_quadrature(params: SurfaceParams, n_points: int = 8192) -> float:
    """Area 2 pi * integral_0^a f dy by the periodic trapezoid rule
    (spectrally accurate for the analytic periodic integrand); halved
    for a Klein bottle."""
    a = period_a(params)
    ys = np.linspace(0.0, a, n_points, endpoint=False)
    area = 2.0 * math.pi * a * float(np.mean(metric_f_array(ys, params)))
    if params.topology is Topology.KLEIN_BOTTLE:
        area /= 2.0
    return area


def area_and_lambda(r: int, k: int) -> tuple[float, float, int]:
    """(area, Lambda value, extremal rank); quadrature and closed form
    must agree to 1e-9 relative or a VerificationError is raised."""
    params = derive_params(r, k)
    quad_area = area_quadrature(params)
    closed = sm.area_closed_form(params)
    rel = abs(quad_area - closed) / closed
    if rel > 1e-9:
        raise VerificationError(
            f"area quadrature {quad_area!r} vs closed form {closed!r} "
            f"(relative gap {rel:.3e}) for {params}")
    report = hs.extremal_rank(r, k)
    return quad_area, 2.0 * quad_area, report.rank_i


# ---------------------------------------------------------------------------
# orbit space
# ---------------------------------------------------------------------------

def _fd1(fun, x: float, h: float) -> float:
    return (8.0 * (fun(x + h) - fun(x - h)) - (fun(x + 2 * h) - fun(x - 2 * h))) / (12.0 * h)


def _fd2(fun, x: float, h: float) -> float:
    return (-fun(x + 2 * h) + 16.0 * fun(x + h) - 30.0 * fun(x)
            + 16.0 * fun(x - h) - fun(x - 2 * h)) / (12.0 * h * h)


def orbit_space_checks(params: SurfaceParams, grid: int = 512) -> list[CheckResult]:
    """The profile curve is a unit-speed geodesic of the psi = 0 slice
    metric cos^2(rho) (m^2 cos^2 a + n^2 sin^2 a)(d rho^2 + cos^2 rho d a^2)
    after reparametrizing by ds/dy = m^2 phi1^2 + n^2 phi2^2."""
    n, m = params.n, params.m
    a_per = period_a(params)
    h = 1e-4

    def rho_of(y):
        return math.asin(ps.closed_form_theta(y, params).phi0)

    def alpha_of(y):
        st = ps.closed_form_theta(y, params)
        return math.atan2(st.phi2, st.phi1)

    def f_of(y):
        st = ps.closed_form_theta(y, params)
        return m * m * st.phi1 ** 2 + n * n * st.phi2 ** 2

    def g11(rho, al):
        return math.cos(rho) ** 2 * (m * m * math.cos(al) ** 2 + n * n * math.sin(al) ** 2)

    def g22(rho, al):
        return g11(rho, al) * math.cos(rho) ** 2

    ident_res = 0.0
    ellipse_res = 0.0
    geo_res = 0.0
    ys = np.linspace(0.03 * a_per, 0.97 * a_per, grid)
    for y in ys:
        st = ps.closed_form_theta(y, params)
        op = orbit_point_from_state(st)
        ident_res = max(
            ident_res,
            abs(st.phi0 - math.sin(op.rho)),
            abs(st.phi1 - math.cos(op.rho) * math.cos(op.orbit_alpha)),
            abs(st.phi2 - math.cos(op.rho) * math.sin(op.orbit_alpha)))
        ellipse_res = max(ellipse_res, abs(
            2.0 * st.phi1 ** 2 + (2.0 * n * n / (n * n + m * m)) * st.phi0 ** 2 - 1.0))

        f0 = f_of(y)
        fy = _fd1(f_of, y, h)
        r_y, r_yy = _fd1(rho_of, y, h), _fd2(rho_of, y, h)
        a_y, a_yy = _fd1(alpha_of, y, h), _fd2(alpha_of, y, h)
        rho, al = rho_of(y), alpha_of(y)
        rdot, adot = r_y / f0, a_y / f0
        rddot = r_yy / f0 ** 2 - fy * r_y / f0 ** 3
        addot = a_yy / f0 ** 2 - fy * a_y / f0 ** 3
        g11_r = _fd1(lambda t: g11(t, al), rho, h)
        g11_a = _fd1(lambda t: g11(rho, t), al, h)
        g22_r = _fd1(lambda t: g22(t, al), rho, h)
        g22_a = _fd1(lambda t: g22(rho, t), al, h)
        c111 = g11_r / (2.0 * g11(rho, al))
        c112 = g11_a / (2.0 * g11(rho, al))
        c122 = -g22_r / (2.0 * g11(rho, al))
        c211 = -g11_a / (2.0 * g22(rho, al))
        c212 = g22_r / (2.0 * g22(rho, al))
        c222 = g22_a / (2.0 * g22(rho, al))
        geo_res = max(
            geo_res,
            abs(rddot + c111 * rdot ** 2 + 2.0 * c112 * rdot * adot + c122 * adot ** 2),
            abs(addot + c211 * rdot ** 2 + 2.0 * c212 * rdot * adot + c222 * adot ** 2))
    return [
        CheckResult("orbit_identification", float(ident_res), 1e-10),
        CheckResult("orbit_ellipse", float(ellipse_res), 1e-12),
        CheckResult("orbit_geodesic", float(geo_res), 1e-6,
                    f"{grid} interior points, fd step {h}"),
    ]


def orbit_space_check(params: SurfaceParams, grid: int = 512) -> CheckResult:
    """Geodesic-equation residual on the psi = 0 slice."""
    return orbit_space_checks(params, grid)[-1]


# ---------------------------------------------------------------------------
# Floquet structure
# ---------------------------------------------------------------------------

def floquet_structure_checks(params: SurfaceParams,
                             n_random: int = 50) -> list[CheckResult]:
    """Wronskian and half-period identities at random (p, lambda), and
    simplicity (exactly one of z2(b), z1'(b) vanishes) at located roots.

    Draws come from the spectral window lambda in [0, 3), p in [0, n],
    where the fundamental pair stays O(1) (n * b = 2 K(m/n)); outside it
    the solutions grow exponentially and an absolute Wronskian residual
    stops being meaningful."""
    rng = np.random.default_rng(RANDOM_SEED + 2)
    b = period_a(params) / 2.0
    pvals = rng.uniform(0.0, float(params.n), n_random)
    lvals = rng.uniform(0.0, 3.0, n_random)
    n_steps = hs._steps_for(params, hs.DEFAULT_SOLVER_TOL, b)
    full = hs._propagate(params, pvals ** 2, lvals, b, n_steps)
    half = hs._propagate(params, pvals ** 2, lvals, b / 2.0, n_steps)
    z1b, dz1b, z2b, dz2b = full
    z1h, dz1h, z2h, dz2h = half
    wronsk = float(np.max(np.abs(z1b * dz2b - z2b * dz1b - 1.0)))
    half_ids = float(max(
        np.max(np.abs(z1b - (2.0 * z1h * dz2h - 1.0))),
        np.max(np.abs(z1b - (1.0 + 2.0 * z2h * dz1h))),
        np.max(np.abs(dz1b - 2.0 * z1h * dz1h)),
        np.max(np.abs(z2b - 2.0 * z2h * dz2h)),
        np.max(np.abs(dz2b - z1b))))

    simp = 0.0
    flags = []
    for line in hs.surface_lines(params):
        flags.extend(line.double_root_flags)
        for eig in line.eigenvalues:
            if 0.0 < eig.gamma < 3.0:
                simp = max(simp, min(abs(eig.fm.dz1_b), abs(eig.fm.z2_b) / b))
    simp_ctx = "; ".join(flags) if flags else "no double-root flags below 3"
    return [
        CheckResult("floquet_wronskian", wronsk, 1e-10,
                    f"{n_random} random (p, lambda)"),
        CheckResult("half_period_identities", half_ids, 1e-9),
        CheckResult("simplicity_in_window", simp + (1.0 if flags else 0.0),
                    1e-7, simp_ctx),
    ]


def eigenfunction_zero_checks(params: SurfaceParams) -> CheckResult:
    """gamma_1 and gamma_2 eigenfunctions have exactly 2 zeros per period,
    the gamma_0 ground line none."""
    lines = {int(line.p): line for line in hs.surface_lines(params)}
    expected = [(lines[0].eigenvalues[1], 2), (lines[0].eigenvalues[2], 2),
                (lines[1].eigenvalues[0], 0)]
    worst = 0
    details = []
    for eig, want in expected:
        _, vals = hs.eigenfunction_samples(params, eig.fm.p, eig.gamma,
                                           eig.parity, n_samples=2048)
        got = hs.count_zeros(vals)
        details.append(f"gamma_{eig.index}({eig.fm.p:g})={eig.gamma:.6f}: "
                       f"{got} zeros (want {want})")
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
    extremal: hs.ExtremalReport = field(repr=False, default=None)

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
            "checks": [{"name": c.name, "residual": c.residual,
                        "threshold": c.threshold, "passed": c.passed}
                       for c in self.checks],
        }


def full_report(r: int, k: int, strict: bool = False) -> FullReport:
    """Run every check for one surface; passes iff all residuals are in
    tolerance and the computed rank matches the parity-class formula.
    Strict mode halves every threshold."""
    params = derive_params(r, k)
    checks: list[CheckResult] = []
    checks.extend(profile_checks(params))
    checks.append(immersion_agreement_check(params))
    checks.extend(invariance_checks(params))
    checks.extend(isometry_checks(r, k))
    checks.extend(orbit_space_checks(params))
    checks.extend(floquet_structure_checks(params))
    checks.append(eigenfunction_zero_checks(params))

    quad_area = area_quadrature(params)
    closed_area = sm.area_closed_form(params)
    checks.append(CheckResult("area_identity",
                              abs(quad_area - closed_area) / closed_area, 1e-9,
                              f"quadrature {quad_area!r}, closed {closed_area!r}"))

    report = hs.extremal_rank(r, k)
    checks.append(CheckResult(
        "rank_matches_formula",
        float(abs(report.rank_i - hs.rank_formula(params))), 0.5,
        f"rank {report.rank_i}, formula {hs.rank_formula(params)}"))
    checks.append(CheckResult("multiplicity_is_5",
                              float(abs(report.multiplicity - 5)), 0.5))
    checks.append(CheckResult(
        "branch_anchors",
        max(report.residuals[key] for key in
            ("anchor_gamma0_at_0", "anchor_gamma2_at_0",
             "anchor_gamma1_at_m", "anchor_gamma0_at_n")), 1e-7))

    if strict:
        checks = [CheckResult(c.name, c.residual, c.threshold / 2.0, c.context)
                  for c in checks]
    return FullReport(params=params, rank_i=report.rank_i,
                      multiplicity=report.multiplicity,
                      lambda_value=report.lambda_functional,
                      area=quad_area, checks=tuple(checks), extremal=report)
