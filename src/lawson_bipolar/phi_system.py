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
Cooper-Verner tableau, the theta closed form (authoritative; needs
only Jacobi functions), and the Weierstrass closed form (magnitudes
only).  Two first integrals E1, E2 are evaluated for drift checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hill_spectrum import _CV_A, _CV_B, _steps_for
from .special_functions import (
    PoleProximityError,
    WeierstrassInvariants,
    complete_K,
    jacobi_sncndn,
    weierstrass_p,
)
from .surface_model import SurfaceParams, period_a

__all__ = [
    "IntegrationFailureError",
    "PhiProfile",
    "REVERSE_AT_0",
    "REVERSE_AT_QUARTER",
    "initial_state",
    "integrate_system",
    "closed_form_theta",
    "closed_form_weierstrass",
    "weierstrass_tables_exact",
    "first_integrals",
    "odesystem_rhs",
]

DEFAULT_TOL = 1e-10
DEFAULT_POINTS = 2048

#: the reversors of the profile orbit, as sign flips of (phi0, phi1, phi2,
#: phi0', phi1', phi2'): x(-y) = REVERSE_AT_0 x(y) (phi1 odd, phi0 and phi2
#: even) and x(a/2 - y) = REVERSE_AT_QUARTER x(y) (phi0 odd about a/4,
#: phi1 and phi2 even)
REVERSE_AT_0 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
REVERSE_AT_QUARTER = np.array([-1.0, 1.0, 1.0, 1.0, -1.0, -1.0])


class IntegrationFailureError(RuntimeError):
    """The integrated orbit missed the reversal symmetry at y = a/4 that
    closes it up."""


@dataclass(frozen=True)
class PhiProfile:
    """Sampled profile over the fundamental quarter [0, a/4): states[i]
    belongs to grid[i].

    states has one row (phi0, phi1, phi2, phi0', phi1', phi2') per grid
    point; end_state is the integrated state at y = a/4 for the reversal
    diagnostics.
    """

    params: SurfaceParams
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
    """The Cooper-Verner RK8 step of the profile system at step size h:
    step(x0, ..., x5) gives the six floats sum_i (h b_i) k_i for the
    state x.  It loops over the h-scaled rows of _CV_A and _CV_B; each
    stage sum adds its terms in row order and each slope is odesystem_rhs
    spelt out, so the step is the stage loop over the tableau bit for
    bit."""
    m2, n2 = float(params.m * params.m), float(params.n * params.n)
    stages = [[(j, h * c) for j, c in row] for row in _CV_A]
    weights = [(j, h * c) for j, c in _CV_B]

    def step(x0, x1, x2, x3, x4, x5):
        k = []
        append = k.append
        for row in stages:
            s0 = x0; s1 = x1; s2 = x2; s3 = x3; s4 = x4; s5 = x5
            for j, c in row:
                k0, k1, k2, k3, k4, k5 = k[j]
                s0 += c * k0; s1 += c * k1; s2 += c * k2
                s3 += c * k3; s4 += c * k4; s5 += c * k5
            t = 2.0 * (m2 * s1 * s1 + n2 * s2 * s2)
            append((s3, s4, s5, -t * s0, (m2 - t) * s1, (n2 - t) * s2))
        s0 = s1 = s2 = s3 = s4 = s5 = 0.0
        for j, c in weights:
            k0, k1, k2, k3, k4, k5 = k[j]
            s0 += c * k0; s1 += c * k1; s2 += c * k2
            s3 += c * k3; s4 += c * k4; s5 += c * k5
        return s0, s1, s2, s3, s4, s5

    return step


def _integrate(params: SurfaceParams, state0, tol: float, n_points: int | None,
               span: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The RK8 loop of integrate_system over [0, span] from any 6-vector
    state0, Kahan-summed in Python floats: (grid, states, end_state, step
    count).  The step count at tol, rounded up to a multiple of n_points,
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
    steps = _steps_for(params, tol, span)
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
    return grid, np.array(states), np.array((x0, x1, x2, x3, x4, x5)), n_points * per


def integrate_system(params: SurfaceParams, tol: float = DEFAULT_TOL,
                     n_points: int | None = DEFAULT_POINTS) -> PhiProfile:
    """Fixed-step RK8 integration of the profile system over the
    fundamental quarter [0, a/4], on n_points grid points, or on every
    step end when n_points is None.  The step count is that at tol over
    a/4, rounded up as in _integrate.

    The orbit is reversible about y = 0 and about y = a/4, where the
    state must be (0, 1/sqrt2, 1/sqrt2, -c0 n, 0, 0); meeting the fixed
    sets of both reversors makes it periodic, so the quarter fixes the
    whole orbit.  The reversal residual max(|phi0|, |phi1'|, |phi2'|) at
    a/4 must be <= 10 * tol relative to the largest component there,
    |phi0'(a/4)| = c0 n = sqrt((n^2 + m^2)/2), else an
    IntegrationFailureError names the surface, the residual, tol, the
    bound and the step count.  tol and n_points are checked as in
    _integrate.
    """
    grid, states, end_state, steps = _integrate(
        params, initial_state(params), tol, n_points, period_a(params) / 4.0)
    profile = PhiProfile(params=params, grid=grid, states=states, end_state=end_state)
    resid = profile.reversal_residual()
    bound = 10.0 * tol * math.sqrt((params.n ** 2 + params.m ** 2) / 2.0)
    if resid > bound:
        raise IntegrationFailureError(
            f"orbit not reversible for {params}: "
            f"|(phi0, phi1', phi2')(a/4)| = {resid:.3e} > 10*tol*c0*n = {bound:.1e} "
            f"at tol {tol:.1e}, {steps} RK8 steps")
    return profile


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

def weierstrass_tables_exact(n: int, m: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The constant tables feeding the P-function closed forms, exactly:
    row i of a holds the invariants (g2, g3) of the i-th profile
    function, b the shifts in the denominators 2 P + b_i."""
    n2, m2 = Fraction(n * n), Fraction(m * m)
    a = [
        [n2 * m2 + (m2 + n2) ** 2 / 12,
         -n2 * m2 * (m2 + n2) / 6 + (m2 + n2) ** 3 / 216],
        [m2 * (m2 - n2) + (2 * m2 - n2) ** 2 / 12,
         m2 * (m2 - n2) * (2 * m2 - n2) / 6 - (2 * m2 - n2) ** 3 / 216],
        [n2 * (n2 - m2) + (2 * n2 - m2) ** 2 / 12,
         n2 * (n2 - m2) * (2 * n2 - m2) / 6 - (2 * n2 - m2) ** 3 / 216],
    ]
    b = [(n2 - 5 * m2) / 6, (4 * m2 + n2) / 6, (4 * n2 - 5 * m2) / 6]
    return a, b


def closed_form_weierstrass(y, params: SurfaceParams) -> tuple:
    """Magnitudes (|phi0|, |phi1|, |phi2|) from the P-function closed forms,
    at a scalar y (three floats) or an array (three arrays of its shape).

    The phi1 formula carries the shift y + K(m/n)/n in its argument; only
    magnitudes are comparable across routes because the printed phi1 form
    does not fix the odd sign convention.
    """
    n, m = params.n, params.m
    g, b = weierstrass_tables_exact(n, m)
    y = np.asarray(y, float)
    shift = complete_K(params.modulus) / n
    dens = []
    for i, arg in enumerate((y, y + shift, y)):
        inv = WeierstrassInvariants(*map(float, g[i]))
        den = 2.0 * weierstrass_p(arg, inv) + float(b[i])
        gap = np.abs(np.ravel(den))
        worst = int(np.argmin(gap))
        if not gap[worst] > 1e-6:
            raise PoleProximityError(
                f"denominator 2P+b_{i+1} too close to zero at y={float(np.ravel(y)[worst])}")
        dens.append(den)
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
