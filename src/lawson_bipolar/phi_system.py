"""Profile functions (phi0, phi1, phi2) of the bipolar surface.

The profile solves the coupled second-order system

    phi0'' = -2 (m^2 phi1^2 + n^2 phi2^2) phi0
    phi1'' = (m^2 - 2 (m^2 phi1^2 + n^2 phi2^2)) phi1
    phi2'' = (n^2 - 2 (m^2 phi1^2 + n^2 phi2^2)) phi2

with phi1 odd, phi0 and phi2 even, and sits on the unit sphere.  Three
evaluation routes are provided: direct fixed-step RK8 integration, the
theta closed form (authoritative; needs only Jacobi functions), and the
Weierstrass closed form (magnitudes only).  Two first integrals E1, E2
are evaluated for drift checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .hill_spectrum import _CV_A, _CV_B, _steps_for
from .special_functions import (
    PoleProximityError,
    WeierstrassInvariants,
    complete_K,
    weierstrass_p,
)
from .surface_model import SurfaceParams, period_a, theta_of_y

__all__ = [
    "IntegrationFailureError",
    "PhiProfile",
    "initial_state",
    "integrate_system",
    "integrate_states",
    "closed_form_theta",
    "closed_form_weierstrass",
    "weierstrass_tables",
    "weierstrass_tables_exact",
    "first_integrals",
    "odesystem_rhs",
]

DEFAULT_TOL = 1e-10
DEFAULT_POINTS = 2048


class IntegrationFailureError(RuntimeError):
    """The integrated orbit did not close up after one period."""


@dataclass(frozen=True)
class PhiProfile:
    """Sampled profile over one period: states[i] belongs to grid[i].

    states has one row (phi0, phi1, phi2, phi0', phi1', phi2') per grid
    point; end_state is the integrated state at y = a for periodicity
    diagnostics.
    """

    params: SurfaceParams
    grid: np.ndarray
    states: np.ndarray
    tolerance: float
    end_state: np.ndarray

    def periodicity_residual(self) -> float:
        return float(np.max(np.abs(self.end_state - self.states[0])))


def initial_state(params: SurfaceParams) -> np.ndarray:
    """Periodic-orbit initial data (phi0, phi1, phi2, phi0', phi1', phi2')
    at y = 0: phi0(0) = sqrt((n^2+m^2)/(2n^2)), phi2(0) =
    sqrt((n^2-m^2)/(2n^2)), phi1'(0) = sqrt((n^2-m^2)/2), all other
    components zero."""
    n2, m2 = params.n ** 2, params.m ** 2
    return np.array([math.sqrt((n2 + m2) / (2.0 * n2)), 0.0,
                     math.sqrt((n2 - m2) / (2.0 * n2)), 0.0,
                     math.sqrt((n2 - m2) / 2.0), 0.0])


def odesystem_rhs(y, state, params: SurfaceParams) -> tuple:
    """First-order form of the coupled profile system, on floats or
    equal-shape arrays; y is unused, as the system is autonomous."""
    p0, p1, p2, d0, d1, d2 = state
    n2, m2 = params.n * params.n, params.m * params.m
    twof = 2.0 * (m2 * p1 * p1 + n2 * p2 * p2)
    return d0, d1, d2, -twof * p0, (m2 - twof) * p1, (n2 - twof) * p2


def _stage_sum(s, row, k) -> tuple:
    """s + sum of c * k[j] over the (j, c) of row, on 6-tuples of floats."""
    s0, s1, s2, s3, s4, s5 = s
    for j, c in row:
        k0, k1, k2, k3, k4, k5 = k[j]
        s0 += c * k0; s1 += c * k1; s2 += c * k2
        s3 += c * k3; s4 += c * k4; s5 += c * k5
    return s0, s1, s2, s3, s4, s5


def integrate_states(params: SurfaceParams, state0, tol: float,
                     n_points: int = DEFAULT_POINTS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate one period from an arbitrary initial 6-vector by the
    Cooper-Verner RK8 of the Floquet propagation, in Python floats with
    Kahan-summed increments.  Its step count at tol, rounded up to a
    multiple of n_points, makes every grid point a step end.

    Returns (grid, states, end_state); no periodicity requirement, so
    perturbed initial data can be propagated for orbit-selection tests.
    """
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError(f"tolerance {tol!r} outside [1e-13, 1e-6]")
    a = period_a(params)
    per = -(-_steps_for(params, tol, a) // n_points)
    h = a / (n_points * per)
    *stages, weights = [[(j, h * c) for j, c in row] for row in _CV_A + [_CV_B]]
    x, comp = np.asarray(state0, float).tolist(), [0.0] * 6
    states = []
    for step in range(n_points * per):
        if step % per == 0:
            states.append(x)
        k = []
        for row in stages:
            k.append(odesystem_rhs(0.0, _stage_sum(x, row, k), params))
        d = [u - c for u, c in zip(_stage_sum((0.0,) * 6, weights, k), comp)]
        new = [u + v for u, v in zip(x, d)]
        comp = [(t - u) - v for t, u, v in zip(new, x, d)]
        x = new
    grid = np.linspace(0.0, a, n_points, endpoint=False)
    return grid, np.array(states), np.array(x)


def integrate_system(params: SurfaceParams, tol: float = DEFAULT_TOL,
                     n_points: int = DEFAULT_POINTS) -> PhiProfile:
    """Fixed-step RK8 integration of the profile system over [0, a].

    The orbit must close up: |state(a) - state(0)| <= 10 * tol, else an
    IntegrationFailureError carries the residual.
    """
    grid, states, end_state = integrate_states(params, initial_state(params),
                                               tol, n_points)
    resid = float(np.max(np.abs(end_state - states[0])))
    if resid > 10.0 * tol:
        raise IntegrationFailureError(
            f"orbit not periodic: |state(a)-state(0)| = {resid:.3e} > 10*tol")
    return PhiProfile(params=params, grid=grid, states=states,
                      tolerance=tol, end_state=end_state)


# ---------------------------------------------------------------------------
# theta closed form
# ---------------------------------------------------------------------------

def closed_form_theta(y, params: SurfaceParams) -> np.ndarray:
    """Profile states (phi0, phi1, phi2, phi0', phi1', phi2') from the
    theta parametrization, at a scalar y (giving one 6-vector) or a 1-D
    array (giving one row each).

    phi0 = sqrt((n^2+m^2)/(2n^2)) cos(theta), phi1 = sin(theta)/sqrt(2),
    phi2 the positive square root of the remainder (phi2 never vanishes);
    derivatives use theta' = sqrt(n^2 - m^2 cos^2 theta) > 0.
    """
    n, m = params.n, params.m
    ys = np.asarray(y, float)
    th = theta_of_y(ys.reshape(-1), params)
    c, s = np.cos(th), np.sin(th)
    dth = np.sqrt(n * n - m * m * c * c)
    c0 = math.sqrt((n * n + m * m) / (2.0 * n * n))
    rows = np.column_stack((
        c0 * c,
        s / math.sqrt(2.0),
        dth / (math.sqrt(2.0) * n),
        -c0 * s * dth,
        c * dth / math.sqrt(2.0),
        m * m * s * c / (math.sqrt(2.0) * n),
    ))
    return rows[0] if ys.ndim == 0 else rows


# ---------------------------------------------------------------------------
# Weierstrass closed form
# ---------------------------------------------------------------------------

def weierstrass_tables_exact(n: int, m: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact rational entries of the constant matrices."""
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


@lru_cache(maxsize=64)
def weierstrass_tables(n: int, m: int) -> tuple[tuple, tuple]:
    """The constant tables feeding the P-function closed forms, in floats:
    row i of a holds the invariants (g2, g3) of the i-th profile
    function, b the shifts in the denominators 2 P + b_i."""
    a, b = weierstrass_tables_exact(n, m)
    return tuple(tuple(map(float, row)) for row in a), tuple(map(float, b))


def closed_form_weierstrass(y, params: SurfaceParams) -> tuple:
    """Magnitudes (|phi0|, |phi1|, |phi2|) from the P-function closed forms,
    at a scalar y (three floats) or an array (three arrays of its shape).

    The phi1 formula carries the shift y + K(m/n)/n in its argument; only
    magnitudes are comparable across routes because the printed phi1 form
    does not fix the odd sign convention.
    """
    n, m = params.n, params.m
    g, b = weierstrass_tables(n, m)
    y = np.asarray(y, float)
    shift = complete_K(params.modulus) / n
    dens = []
    for i, arg in enumerate((y, y + shift, y)):
        den = 2.0 * weierstrass_p(arg, WeierstrassInvariants(*g[i])) + b[i]
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
