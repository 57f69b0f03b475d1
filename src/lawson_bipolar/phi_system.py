"""Profile functions (phi0, phi1, phi2) of the bipolar surface.

The profile solves the coupled second-order system

    phi0'' = -2 (m^2 phi1^2 + n^2 phi2^2) phi0
    phi1'' = (m^2 - 2 (m^2 phi1^2 + n^2 phi2^2)) phi1
    phi2'' = (n^2 - 2 (m^2 phi1^2 + n^2 phi2^2)) phi2

with phi1 odd, phi0 and phi2 even, and sits on the unit sphere.  The
orbit is also reversible about y = a/4 = K/n (phi0 odd, phi1 and phi2
even there), so the fundamental quarter [0, a/4] fixes the whole period.
Three evaluation routes are provided: direct fixed-step RK8 integration
over the quarter in Python floats, each step a loop over the rows of the
Nystrom form of the Cooper-Verner tableau of rk8, on the step count of
the profile's own error model (profile_steps), the theta closed form
(authoritative; needs only Jacobi functions), and the Weierstrass
closed form (magnitudes only), its P read off the roots of each row's
cubic, which are closed forms in (n, m).  Two first integrals E1, E2 are evaluated for drift
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rk8
from .special_functions import complete_K, jacobi_sncndn, weierstrass_p
from .surface_model import SurfaceParams, period_a

__all__ = [
    "PhiProfile",
    "REVERSE_AT_0",
    "REVERSE_AT_QUARTER",
    "initial_state",
    "integrate_system",
    "step_error",
    "profile_steps",
    "closed_form_theta",
    "closed_form_weierstrass",
    "weierstrass_tables_exact",
    "first_integrals",
    "odesystem_rhs",
]

#: the reversors of the profile orbit, as sign flips of (phi0, phi1, phi2,
#: phi0', phi1', phi2'): x(-y) = REVERSE_AT_0 x(y) (phi1 odd, phi0 and phi2
#: even) and x(a/2 - y) = REVERSE_AT_QUARTER x(y) (phi0 odd about a/4,
#: phi1 and phi2 even)
REVERSE_AT_0 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
REVERSE_AT_QUARTER = np.array([-1.0, 1.0, 1.0, 1.0, -1.0, -1.0])

#: C of the RK8 error model of step_error: step doubling measures at most
#: 5.7e-6 over the modulus m/n, near m/n = 1/2, and 1.1e-6 as m/n -> 0
STEP_ERROR_C = 1e-5
#: how far under tol profile_steps keeps the modelled error
STEP_ERROR_MARGIN = 1000.0


@dataclass(frozen=True)
class PhiProfile:
    """Sampled profile over the fundamental quarter [0, a/4): states[i]
    belongs to grid[i].

    states has one row (phi0, phi1, phi2, phi0', phi1', phi2') per grid
    point; end_state is the integrated state at y = a/4 for the reversal
    diagnostics.
    """

    grid: np.ndarray
    states: np.ndarray
    end_state: np.ndarray

    def reversal_residual(self) -> float:
        """max(|phi0|, |phi1'|, |phi2'|) at y = a/4: the components the
        reversor about a/4 reverses, which vanish on its fixed set."""
        return float(np.max(np.abs(self.end_state[REVERSE_AT_QUARTER < 0.0])))


def initial_state(params: SurfaceParams) -> np.ndarray:
    """Periodic-orbit initial data (phi0, phi1, phi2, phi0', phi1', phi2')
    at y = 0: phi0(0) = sqrt((n^2+m^2)/(2n^2)), phi2(0) =
    sqrt((n^2-m^2)/(2n^2)), phi1'(0) = sqrt((n^2-m^2)/2), all other
    components zero."""
    n2, m2 = params.n ** 2, params.m ** 2
    return np.array([math.sqrt((n2 + m2) / (2.0 * n2)), 0.0,
                     math.sqrt((n2 - m2) / (2.0 * n2)), 0.0,
                     math.sqrt((n2 - m2) / 2.0), 0.0])


def odesystem_rhs(state, params: SurfaceParams) -> tuple:
    """First-order form of the coupled profile system, which is
    autonomous, on floats or equal-shape arrays."""
    p0, p1, p2, d0, d1, d2 = state
    n2, m2 = params.n * params.n, params.m * params.m
    twof = 2.0 * (m2 * p1 * p1 + n2 * p2 * p2)
    return d0, d1, d2, -twof * p0, (m2 - twof) * p1, (n2 - twof) * p2


def _rk8_step(params: SurfaceParams, h: float):
    """The Cooper-Verner RK8 step of the profile system at step size h, in
    the Nystrom form of rk8: step(x0, ..., x5) gives the six floats
    h x' + h^2 sum_j bbar_j g_j and h sum_j b_j g_j for the state
    x = (phi, phi'), g_j the accelerations (phi0'', phi1'', phi2'') at
    stage j's value of phi, x + c_j h x' + h^2 sum_k abar_jk g_k.  Each
    stage sum starts from c_j h x', adds its terms in row order of
    rk8.A_BAR, then x; each acceleration is odesystem_rhs spelt out; the
    increments add their terms in stage order, then h x'."""
    m2, n2 = float(params.m * params.m), float(params.n * params.n)
    h2 = h * h
    stages = [(h * c, [(j, h2 * a) for j, a in row])
              for c, row in zip(rk8.C.tolist(), rk8.A_BAR)]
    top = [(j, h2 * w) for j, w in rk8.B_BAR]
    bottom = [(j, h * w) for j, w in rk8.B]

    def step(x0, x1, x2, x3, x4, x5):
        g = []
        append = g.append
        for hc, row in stages:
            s0 = hc * x3; s1 = hc * x4; s2 = hc * x5
            for j, c in row:
                g0, g1, g2 = g[j]
                s0 += c * g0; s1 += c * g1; s2 += c * g2
            s0 += x0; s1 += x1; s2 += x2
            t = 2.0 * (m2 * s1 * s1 + n2 * s2 * s2)
            append((-t * s0, (m2 - t) * s1, (n2 - t) * s2))
        s0 = s1 = s2 = s3 = s4 = s5 = 0.0
        for j, c in top:
            g0, g1, g2 = g[j]
            s0 += c * g0; s1 += c * g1; s2 += c * g2
        for j, c in bottom:
            g0, g1, g2 = g[j]
            s3 += c * g0; s4 += c * g1; s5 += c * g2
        return s0 + h * x3, s1 + h * x4, s2 + h * x5, s3, s4, s5

    return step


def _omega_span(params: SurfaceParams, span: float) -> float:
    """omega span, omega = sqrt(2 n^2 + 3 m^2): the square root of the
    largest eigenvalue of the Jacobian of (phi0'', phi1'', phi2'') in
    (phi0, phi1, phi2) over the orbit, which is 2 n^2 as m/n -> 0 and
    5 n^2 as m/n -> 1; between, omega is at most 3.4% below it."""
    return math.sqrt(2.0 * params.n ** 2 + 3.0 * params.m ** 2) * span


def step_error(params: SurfaceParams, steps: int, span: float) -> float:
    """Modelled global error of the profile's RK8 over [0, span] on steps
    steps of h = span / steps, relative to c0 n: C (omega h)^8 omega span,
    C = STEP_ERROR_C.  An eighth-order step errs by O((omega h)^9) and
    steps times omega h is omega span (Hairer, Norsett & Wanner, Solving
    ODEs I, II.3).  The profile, in units of n y, depends on m/n alone,
    so C depends on m/n and the tableau; a tier-1 test measures it by
    step doubling (ibid., II.4)."""
    w = _omega_span(params, span)
    return STEP_ERROR_C * (w / steps) ** 8 * w


def profile_steps(params: SurfaceParams, tol: float, span: float) -> int:
    """The fewest RK8 steps over [0, span] whose step_error is within
    tol / STEP_ERROR_MARGIN.  Over a quarter a/4 = K/n or more, omega span
    is at least sqrt(2) pi/2, so omega h stays below 1, where the model
    holds, for every tol in [1e-13, 1e-6]."""
    w = _omega_span(params, span)
    return math.ceil(w * (STEP_ERROR_C * STEP_ERROR_MARGIN * w / tol) ** 0.125)


def _integrate(params: SurfaceParams, state0, tol: float, n_points: int | None,
               span: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The RK8 loop of integrate_system over [0, span] from any 6-vector
    state0, Kahan-summed in Python floats: (grid, states, end_state).
    profile_steps at tol over span, rounded up to a multiple of n_points,
    makes every grid point a step end; with n_points None the grid is
    every step end.  Raises ValueError, before any step, for a tol outside
    [1e-13, 1e-6], an n_points that is neither None nor an int >= 1, or a
    state0 that is not six finite floats."""
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError(f"tolerance {tol!r} outside [1e-13, 1e-6]")
    if n_points is not None and not (isinstance(n_points, int)
                                     and not isinstance(n_points, bool) and n_points >= 1):
        raise ValueError(f"need n_points None or an int >= 1; got {n_points!r}")
    x = np.asarray(state0, float)
    if x.shape != (6,) or not np.all(np.isfinite(x)):
        raise ValueError(f"need state0 of six finite floats; got {state0!r}")
    steps = profile_steps(params, tol, span)
    n_points = steps if n_points is None else n_points
    per = -(-steps // n_points)
    step = _rk8_step(params, span / (n_points * per))
    x0, x1, x2, x3, x4, x5 = x.tolist()
    c0 = c1 = c2 = c3 = c4 = c5 = 0.0
    states = []
    for _ in range(n_points):
        states.append((x0, x1, x2, x3, x4, x5))
        for _ in range(per):
            s0, s1, s2, s3, s4, s5 = step(x0, x1, x2, x3, x4, x5)
            d = s0 - c0; t = x0 + d; c0 = (t - x0) - d; x0 = t
            d = s1 - c1; t = x1 + d; c1 = (t - x1) - d; x1 = t
            d = s2 - c2; t = x2 + d; c2 = (t - x2) - d; x2 = t
            d = s3 - c3; t = x3 + d; c3 = (t - x3) - d; x3 = t
            d = s4 - c4; t = x4 + d; c4 = (t - x4) - d; x4 = t
            d = s5 - c5; t = x5 + d; c5 = (t - x5) - d; x5 = t
    grid = np.linspace(0.0, span, n_points, endpoint=False)
    return grid, np.array(states), np.array((x0, x1, x2, x3, x4, x5))


def integrate_system(params: SurfaceParams, tol: float,
                     n_points: int | None) -> PhiProfile:
    """Fixed-step RK8 integration of the profile system over the
    fundamental quarter [0, a/4], on n_points grid points, or on every
    step end when n_points is None.  The step count is that at tol over
    a/4, rounded up as in _integrate.

    The orbit is reversible about y = 0 and about y = a/4, where the
    state must be (0, 1/sqrt2, 1/sqrt2, -c0 n, 0, 0); meeting the fixed
    sets of both reversors makes it periodic, so the quarter fixes the
    whole orbit.  Whether the integrated quarter closes is the
    profile's reversal_residual, which the verification battery judges.
    tol and n_points are checked as in _integrate.
    """
    grid, states, end_state = _integrate(
        params, initial_state(params), tol, n_points, period_a(params) / 4.0)
    return PhiProfile(grid=grid, states=states, end_state=end_state)


# ---------------------------------------------------------------------------
# theta closed form
# ---------------------------------------------------------------------------

def closed_form_theta(y, params: SurfaceParams) -> np.ndarray:
    """Profile states (phi0, phi1, phi2, phi0', phi1', phi2') from the
    theta parametrization, at a scalar y (giving one 6-vector) or a 1-D
    array (giving one row each).

    phi0 = sqrt((n^2+m^2)/(2n^2)) cos(theta), phi1 = sin(theta)/sqrt(2)
    and phi2 = theta'/(sqrt(2) n), where cos(theta) = sn(K - n y, m/n), so
    sin(theta) = cn and theta' = sqrt(n^2 - m^2 cos^2 theta) = n dn: one
    Jacobi triple gives every row.
    """
    n, m = params.n, params.m
    ys = np.asarray(y, float)
    sn, cn, dn = jacobi_sncndn(complete_K(params.modulus) - n * ys.reshape(-1),
                               params.modulus)
    c0 = math.sqrt((n * n + m * m) / (2.0 * n * n))
    rows = np.column_stack((
        c0 * sn,
        cn / math.sqrt(2.0),
        dn / math.sqrt(2.0),
        -c0 * n * cn * dn,
        n * sn * dn / math.sqrt(2.0),
        m * m * sn * cn / (math.sqrt(2.0) * n),
    ))
    return rows[0] if ys.ndim == 0 else rows


# ---------------------------------------------------------------------------
# Weierstrass closed form
# ---------------------------------------------------------------------------

def weierstrass_tables_exact(n: int, m: int) -> tuple[list[tuple], list[float]]:
    """The constants of the P-function closed forms: row i holds the
    roots (e1, e2, e3) of the i-th profile function's cubic, closed forms
    in (n, m) (three real roots in rows 0 and 2, a real root and a
    conjugate pair in row 1), and b the shifts in the denominators
    2 P + b_i."""
    n2, m2, s = n * n, m * m, math.sqrt(n * n - m * m)
    pair = complex((2 * m2 - n2) / 12, 0.5 * m * s)
    roots = [
        ((n2 + m2) / 6, (6 * n * m - n2 - m2) / 12, -(6 * n * m + n2 + m2) / 12),
        ((n2 - 2 * m2) / 6, pair, pair.conjugate()),
        ((2 * n2 - m2) / 12 + 0.5 * n * s, (2 * n2 - m2) / 12 - 0.5 * n * s,
         (m2 - 2 * n2) / 6),
    ]
    b = [(n2 - 5 * m2) / 6, (4 * m2 + n2) / 6, (4 * n2 - 5 * m2) / 6]
    return roots, b


def closed_form_weierstrass(y, params: SurfaceParams) -> tuple:
    """Magnitudes (|phi0|, |phi1|, |phi2|) from the P-function closed forms,
    at a scalar y (three floats) or an array (three arrays of its shape).

    The phi1 formula carries the shift y + K(m/n)/n in its argument; only
    magnitudes are comparable across routes because the printed phi1 form
    does not fix the odd sign convention.  No denominator 2 P + b_i of the
    true P vanishes: |phi_j| <= 1 keeps them at least (n^2 - m^2)/2, n^2/2
    and above 0.
    """
    n, m = params.n, params.m
    roots, b = weierstrass_tables_exact(n, m)
    y = np.asarray(y, float)
    shift = complete_K(params.modulus) / n
    dens = [2.0 * weierstrass_p(arg, roots[i]) + b[i]
            for i, arg in enumerate((y, y + shift, y))]
    phi0 = math.sqrt((n * n + m * m) / (2.0 * n * n)) * (1.0 - (n * n - m * m) / dens[0])
    phi1 = (1.0 / math.sqrt(2.0)) * (-1.0 + n * n / dens[1])
    phi2 = math.sqrt((n * n - m * m) / (2.0 * n * n)) * (1.0 + m * m / dens[2])
    mags = (np.abs(phi0), np.abs(phi1), np.abs(phi2))
    return tuple(map(float, mags)) if y.ndim == 0 else mags


# ---------------------------------------------------------------------------
# first integrals
# ---------------------------------------------------------------------------

def first_integrals(states, params: SurfaceParams) -> tuple[np.ndarray, np.ndarray]:
    """The two conserved quantities E1, E2 of the profile system at one
    state vector (phi0..phi2, phi0'..phi2') or at rows of them.

    E1 doubles as a Hamiltonian under q_i = phi_i, p_i = 2 m_i^2 phi_i'
    (making the (phi1, phi2) equations an integrable system with E2 the
    second integral); only the conserved-quantity role is implemented
    here, for drift checks."""
    n2, m2 = params.n ** 2, params.m ** 2
    _, p1, p2, _, d1, d2 = np.asarray(states, float).T
    f = m2 * p1 * p1 + n2 * p2 * p2
    e1 = (f * f
          - (m2 * m2 * p1 * p1 + n2 * n2 * p2 * p2)
          + m2 * d1 * d1 + n2 * d2 * d2)
    e2 = (n2 * (n2 - m2) * p2 * p2 * (p2 * p2 - 1.0)
          + m2 * (n2 - m2) * p2 * p2 * p1 * p1
          + m2 * p2 * p2 * d1 * d1
          - 2.0 * m2 * p1 * p2 * d1 * d2
          + d2 * d2 * ((n2 - m2) + m2 * p1 * p1))
    return e1, e2
