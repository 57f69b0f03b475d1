"""Profile functions (phi0, phi1, phi2) of the bipolar surface.

The profile solves the coupled second-order system

    phi0'' = -2 (m^2 phi1^2 + n^2 phi2^2) phi0
    phi1'' = (m^2 - 2 (m^2 phi1^2 + n^2 phi2^2)) phi1
    phi2'' = (n^2 - 2 (m^2 phi1^2 + n^2 phi2^2)) phi2

with phi1 odd, phi0 and phi2 even, and sits on the unit sphere.  Three
evaluation routes are provided: direct adaptive integration, the theta
closed form (authoritative; needs only Jacobi functions), and the
Weierstrass closed form (magnitudes only).  Two first integrals E1, E2
are evaluated for drift checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import IO

import numpy as np
from scipy.integrate import solve_ivp

from .special_functions import (
    PoleProximityError,
    WeierstrassInvariants,
    complete_K,
    weierstrass_p,
)
from .surface_model import SurfaceParams, _sq, _theta_array, period_a

__all__ = [
    "IntegrationFailureError",
    "PhiState",
    "PhiProfile",
    "WeierstrassTables",
    "initial_state",
    "integrate_system",
    "integrate_states",
    "closed_form_theta",
    "closed_form_theta_array",
    "closed_form_profile",
    "closed_form_weierstrass",
    "weierstrass_tables",
    "weierstrass_tables_exact",
    "first_integrals",
    "odesystem_rhs",
    "write_profile_csv",
]

DEFAULT_TOL = 1e-10
DEFAULT_POINTS = 2048


class IntegrationFailureError(RuntimeError):
    """The adaptive integrator failed or the orbit did not close up."""


@dataclass(frozen=True)
class PhiState:
    """Profile values and y-derivatives at a single y."""

    phi0: float
    phi1: float
    phi2: float
    dphi0: float
    dphi1: float
    dphi2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.phi0, self.phi1, self.phi2,
                         self.dphi0, self.dphi1, self.dphi2])

    @classmethod
    def from_array(cls, arr) -> "PhiState":
        return cls(*(float(x) for x in arr))

    def sphere_residual(self) -> float:
        return abs(self.phi0 ** 2 + self.phi1 ** 2 + self.phi2 ** 2 - 1.0)

    def conformal_residual(self, params: SurfaceParams) -> float:
        lhs = self.dphi0 ** 2 + self.dphi1 ** 2 + self.dphi2 ** 2
        rhs = params.m ** 2 * self.phi1 ** 2 + params.n ** 2 * self.phi2 ** 2
        return abs(lhs - rhs)


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


def initial_state(params: SurfaceParams) -> PhiState:
    """Periodic-orbit initial data: phi0(0) = sqrt((n^2+m^2)/(2n^2)),
    phi2(0) = sqrt((n^2-m^2)/(2n^2)), phi1'(0) = sqrt((n^2-m^2)/2),
    all other components zero."""
    n2, m2 = params.n ** 2, params.m ** 2
    return PhiState(
        phi0=math.sqrt((n2 + m2) / (2.0 * n2)),
        phi1=0.0,
        phi2=math.sqrt((n2 - m2) / (2.0 * n2)),
        dphi0=0.0,
        dphi1=math.sqrt((n2 - m2) / 2.0),
        dphi2=0.0,
    )


def odesystem_rhs(y: float, state: np.ndarray, params: SurfaceParams) -> np.ndarray:
    """First-order form of the coupled profile system."""
    p0, p1, p2, d0, d1, d2 = state
    n2, m2 = params.n ** 2, params.m ** 2
    twof = 2.0 * (m2 * p1 * p1 + n2 * p2 * p2)
    return np.array([d0, d1, d2,
                     -twof * p0,
                     (m2 - twof) * p1,
                     (n2 - twof) * p2])


def integrate_states(params: SurfaceParams, state0: PhiState, tol: float,
                     n_points: int = DEFAULT_POINTS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate one period from an arbitrary initial state.

    Returns (grid, states, end_state); no periodicity requirement, so
    perturbed initial data can be propagated for orbit-selection tests.
    """
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError(f"tolerance {tol!r} outside [1e-13, 1e-6]")
    a = period_a(params)
    grid = np.linspace(0.0, a, n_points, endpoint=False)
    t_eval = np.concatenate([grid, [a]])
    sol = solve_ivp(odesystem_rhs, (0.0, a), state0.as_array(), method="DOP853",
                    t_eval=t_eval, rtol=tol, atol=tol, args=(params,))
    if not sol.success:
        raise IntegrationFailureError(f"integrator failed: {sol.message}")
    states = sol.y.T
    return grid, states[:-1], states[-1]


def integrate_system(params: SurfaceParams, tol: float = DEFAULT_TOL,
                     n_points: int = DEFAULT_POINTS) -> PhiProfile:
    """Adaptive integration of the profile system over [0, a].

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

def closed_form_theta_array(y, params: SurfaceParams) -> np.ndarray:
    """Profile states from the theta parametrization at a 1-D array of y,
    one row (phi0, phi1, phi2, phi0', phi1', phi2') each.

    phi0 = sqrt((n^2+m^2)/(2n^2)) cos(theta), phi1 = sin(theta)/sqrt(2),
    phi2 the positive square root of the remainder (phi2 never vanishes);
    derivatives use theta' = sqrt(n^2 - m^2 cos^2 theta) > 0.
    """
    n, m = params.n, params.m
    th = _theta_array(y, params)
    c, s = np.cos(th), np.sin(th)
    dth = np.sqrt(n * n - m * m * c * c)
    c0 = math.sqrt((n * n + m * m) / (2.0 * n * n))
    return np.column_stack((
        c0 * c,
        s / math.sqrt(2.0),
        dth / (math.sqrt(2.0) * n),
        -c0 * s * dth,
        c * dth / math.sqrt(2.0),
        m * m * s * c / (math.sqrt(2.0) * n),
    ))


def closed_form_theta(y: float, params: SurfaceParams) -> PhiState:
    """The one-point case of closed_form_theta_array."""
    return PhiState.from_array(closed_form_theta_array(np.array([y], float), params)[0])


def closed_form_profile(params: SurfaceParams,
                        n_points: int = DEFAULT_POINTS) -> PhiProfile:
    """PhiProfile sampled from the theta closed form (no integration)."""
    a = period_a(params)
    grid = np.linspace(0.0, a, n_points, endpoint=False)
    states = closed_form_theta_array(np.append(grid, a), params)
    return PhiProfile(params=params, grid=grid, states=states[:-1],
                      tolerance=0.0, end_state=states[-1])


# ---------------------------------------------------------------------------
# Weierstrass closed form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeierstrassTables:
    """Constant matrices feeding the P-function closed forms: row i of
    a_matrix holds the invariants (g2, g3) of the i-th profile function,
    b_vector the shifts in the denominators 2 P + b_i."""

    a_matrix: np.ndarray
    b_vector: np.ndarray


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


@lru_cache(maxsize=None)
def _tables_cached(n: int, m: int) -> WeierstrassTables:
    a, b = weierstrass_tables_exact(n, m)
    return WeierstrassTables(
        a_matrix=np.array([[float(x) for x in row] for row in a]),
        b_vector=np.array([float(x) for x in b]))


def weierstrass_tables(params: SurfaceParams) -> WeierstrassTables:
    return _tables_cached(params.n, params.m)


def closed_form_weierstrass(y: float, params: SurfaceParams) -> tuple[float, float, float]:
    """Magnitudes (|phi0|, |phi1|, |phi2|) from the P-function closed forms.

    The phi1 formula carries the shift y + K(m/n)/n in its argument; only
    magnitudes are comparable across routes because the printed phi1 form
    does not fix the odd sign convention.
    """
    n, m = params.n, params.m
    tab = _tables_cached(n, m)
    shift = complete_K(params.modulus) / n
    args = (y, y + shift, y)
    dens = []
    for i in range(3):
        inv = WeierstrassInvariants(g2=tab.a_matrix[i, 0], g3=tab.a_matrix[i, 1])
        den = 2.0 * weierstrass_p(args[i], inv) + tab.b_vector[i]
        if not abs(den) > 1e-6:
            raise PoleProximityError(
                f"denominator 2P+b_{i+1} too close to zero at y={y}")
        dens.append(den)
    phi0 = math.sqrt((n * n + m * m) / (2.0 * n * n)) * (1.0 - (n * n - m * m) / dens[0])
    phi1 = (1.0 / math.sqrt(2.0)) * (-1.0 + n * n / dens[1])
    phi2 = math.sqrt((n * n - m * m) / (2.0 * n * n)) * (1.0 + m * m / dens[2])
    return abs(phi0), abs(phi1), abs(phi2)


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
    e1 = (_sq(m2 * p1 * p1 + n2 * p2 * p2)
          - (m2 * m2 * p1 * p1 + n2 * n2 * p2 * p2)
          + m2 * d1 * d1 + n2 * d2 * d2)
    e2 = (n2 * (n2 - m2) * p2 * p2 * (p2 * p2 - 1.0)
          + m2 * (n2 - m2) * p2 * p2 * p1 * p1
          + m2 * p2 * p2 * d1 * d1
          - 2.0 * m2 * p1 * p2 * d1 * d2
          + d2 * d2 * ((n2 - m2) + m2 * p1 * p1))
    return e1, e2


_PROFILE_ROW = ",".join(["%.17g"] * 9) + "\n"


def write_profile_csv(stream: IO[str], profile: PhiProfile) -> None:
    """Dump columns y, phi0..phi2, derivatives, and E1, E2, every value
    with 17 significant digits; one %-format call renders all rows."""
    e1, e2 = first_integrals(profile.states, profile.params)
    table = np.column_stack((profile.grid, profile.states, e1, e2))
    stream.write("y,phi0,phi1,phi2,dphi0,dphi1,dphi2,E1,E2\n")
    stream.write(_PROFILE_ROW * len(table) % tuple(table.ravel().tolist()))
