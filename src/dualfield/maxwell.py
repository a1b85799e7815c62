"""Time evolution of the two-charge Maxwell system on a periodic grid.

The evolved equations are the curl pair

    dE/dt =  c^2 curl B - j_e / eps0
    dB/dt = -curl E - j_m

together with the constraint pair div E = rho_e / eps0 and div B = rho_m
(the magnetic divergence law carries no eps0).  Curls are spectral and time
stepping is classical RK4 carried out on the Fourier coefficients, so
source-free evolution costs no transforms per step.  Sources move
ballistically and their currents are injected from their analytic spectra,
consistent with ``fields.deposit_sources``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dualcore import (
    FieldVecPair,
    UnitSystem,
    field_quadratic_form,
    inverse_rotate_fields,
    rotate_charges,
)
from .errors import CFLViolationError, GridMismatchError, SuperluminalSourceError
from .fields import (
    Grid3,
    PointSource,
    _curl_hat,
    _kgrid,
    _to_grid,
    _to_spectrum,
    _validate_source_geometry,
    check_shared_ratio,
    current_spectra,
    deposit_sources,
    spectral_divergence,
)


@dataclass
class EMState:
    """Fields on a grid at one instant, plus the sources that drive them."""

    t: float
    grid: Grid3
    fields: FieldVecPair
    sources: list[PointSource]

    def __post_init__(self) -> None:
        self.t = float(self.t)
        expected = (3,) + self.grid.shape
        if self.fields.E.shape != expected:
            raise GridMismatchError(
                f"field shape {self.fields.E.shape} does not match grid {expected}"
            )
        self.sources = list(self.sources)


def cfl_limit(grid: Grid3, units: UnitSystem) -> float:
    return 0.5 * min(grid.spacing) / units.c


def _check_sources(sources: list[PointSource], units: UnitSystem) -> None:
    for s in sources:
        speed = float(np.linalg.norm(s.velocity))
        if speed >= units.c:
            raise SuperluminalSourceError(f"source velocity {speed} is not below c={units.c}")


def step_symmetric_maxwell(state: EMState, dt: float, units: UnitSystem, steps: int = 1) -> EMState:
    """Advance the state by ``steps`` RK4 steps of size ``dt``.

    Raises ``CFLViolationError`` if ``dt`` exceeds half a light-crossing of
    the smallest cell, the stability margin of spectral RK4.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    limit = cfl_limit(state.grid, units)
    if dt > limit:
        raise CFLViolationError(f"dt={dt} exceeds the stability limit {limit}")
    _check_sources(state.sources, units)
    for source in state.sources:
        _validate_source_geometry(source, state.grid)

    grid = state.grid
    k = _kgrid(grid)
    c2 = units.c**2
    inv_eps0 = 1.0 / units.eps0
    moving = any(np.any(s.velocity != 0.0) for s in state.sources)

    def rhs(E_hat: np.ndarray, B_hat: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        dE = c2 * _curl_hat(k, B_hat)
        dB = -_curl_hat(k, E_hat)
        if moving:
            j_e_hat, j_m_hat = current_spectra([s.at_time(t - state.t) for s in state.sources], grid)
            dE -= inv_eps0 * j_e_hat
            dB -= j_m_hat
        return dE, dB

    E_hat = _to_spectrum(state.fields.E)
    B_hat = _to_spectrum(state.fields.B)
    t = state.t
    for _ in range(steps):
        k1E, k1B = rhs(E_hat, B_hat, t)
        k2E, k2B = rhs(E_hat + 0.5 * dt * k1E, B_hat + 0.5 * dt * k1B, t + 0.5 * dt)
        k3E, k3B = rhs(E_hat + 0.5 * dt * k2E, B_hat + 0.5 * dt * k2B, t + 0.5 * dt)
        k4E, k4B = rhs(E_hat + dt * k3E, B_hat + dt * k3B, t + dt)
        E_hat = E_hat + (dt / 6.0) * (k1E + 2.0 * k2E + 2.0 * k3E + k4E)
        B_hat = B_hat + (dt / 6.0) * (k1B + 2.0 * k2B + 2.0 * k3B + k4B)
        t += dt

    E = _to_grid(E_hat)
    B = _to_grid(B_hat)
    elapsed = t - state.t
    sources = [s.at_time(elapsed, box=grid.L) for s in state.sources]
    return EMState(t, grid, FieldVecPair(E, B), sources)


def gauss_residuals(state: EMState, units: UnitSystem) -> tuple[float, float]:
    """Scale-free residuals of the two divergence laws at the state's time.

    Each residual is the L2 norm of (div F - source term) divided by the sum
    of the source-term norm and the largest resolvable wavenumber times the
    field norm, so both the sourced and the source-free limits are meaningful.
    Periodic boundaries imply a uniform neutralizing background for any net
    charge, so the spatial mean of each source term is removed first.
    """
    grid = state.grid
    rho_e, rho_m, _, _ = deposit_sources(state.sources, grid)
    k_big = math.sqrt(sum((math.pi / h) ** 2 for h in grid.spacing))

    def residual(field: np.ndarray, target: np.ndarray) -> float:
        target = target - np.mean(target)
        div = spectral_divergence(field, grid)
        num = math.sqrt(float(np.sum((div - target) ** 2)))
        den = math.sqrt(float(np.sum(target**2))) + k_big * math.sqrt(float(np.sum(field**2)))
        return num / den if den > 0.0 else 0.0

    rE = residual(state.fields.E, rho_e.data / units.eps0)
    rB = residual(state.fields.B, rho_m.data)
    return rE, rB


def field_energy(state: EMState, units: UnitSystem) -> float:
    """Total field energy: integral of (eps0 E^2 + B^2 / mu0) / 2."""
    return 0.5 * field_quadratic_form(state.fields, units) * state.grid.cell_volume


def rotate_em_state(state: EMState, theta: float, units: UnitSystem) -> EMState:
    """Dual rotation of a whole state: fields and source charges together.

    Pairs ``inverse_rotate_fields`` with ``rotate_charges`` at the same
    angle; this joint map commutes with ``step_symmetric_maxwell``.
    """
    fields = inverse_rotate_fields(state.fields, theta, units)
    sources = [replace(s, charges=rotate_charges(s.charges, theta, units)) for s in state.sources]
    return EMState(state.t, state.grid, fields, sources)


def dual_covariance_residual(
    state: EMState,
    theta: float,
    steps: int,
    dt: float,
    units: UnitSystem,
    *,
    require_shared_ratio: bool = True,
) -> float:
    """Relative defect of rotate-then-evolve against evolve-then-rotate.

    Both paths advance ``steps`` RK4 steps of size ``dt``; the defect is
    measured in the dual-invariant energy norm, relative to the evolved and
    rotated reference path.  Zero sources and theta = 0 give exactly zero.
    """
    if require_shared_ratio:
        check_shared_ratio(state.sources)
    rotated_first = step_symmetric_maxwell(rotate_em_state(state, theta, units), dt, units, steps)
    rotated_last = rotate_em_state(step_symmetric_maxwell(state, dt, units, steps), theta, units)
    diff = FieldVecPair(
        rotated_first.fields.E - rotated_last.fields.E,
        rotated_first.fields.B - rotated_last.fields.B,
    )
    num = math.sqrt(field_quadratic_form(diff, units))
    den = math.sqrt(field_quadratic_form(rotated_last.fields, units))
    return num / den if den > 0.0 else num
