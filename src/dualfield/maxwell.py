"""Time evolution of the two-charge Maxwell system on a periodic grid.

The evolved equations are the curl pair

    dE/dt =  c^2 curl B - j_e / eps0
    dB/dt = -curl E - j_m

together with the constraint pair div E = rho_e / eps0 and div B = rho_m
(the magnetic divergence law carries no eps0).  Curls are spectral, and time
stepping is classical RK4 on the Fourier coefficients, taken in closed form.
On the half spectrum the system is y' = L y + f(t); with A = h L for a step
h, one RK4 step is

    y+ = M y + (h/6) [P0 f(t) + Pm f(t + h/2) + f(t + h)]
    M = 1 + A + A^2/2 + A^3/6 + A^4/24,  P0 = 1 + A + A^2/2 + A^3/4,
    Pm = 4 + 2A + A^2/2.

Sources move ballistically, so a moving source forces with
f = g exp(-i kappa t), kappa = k . v, and g = -(j_e / eps0, j_m) from its
analytic current spectrum (consistent with ``fields.deposit_sources``).
After N steps

    y_N = M^N y_0 + sum_s sum_{n<N} M^(N-1-n) z^n Q g,
    z = exp(-i kappa h),  Q = (h/6) (P0 + exp(-i kappa h/2) Pm + z).

L squares to -omega^2 (omega = c |k|) on transverse vectors and vanishes on
longitudinal ones, so every such phi(A) acts on transverse parts as
alpha + beta L / omega, with alpha and beta formed from phi(+-i omega h),
and on longitudinal parts as phi(0), as it does wherever ``_kgrid`` is zero
(k = 0 and Nyquist corners).  alpha and beta at -k are the conjugates of
those at k, so spectra stay Hermitian.  The geometric sum over n is
z^(N-1) expm1(N log r) / expm1(log r) with r = mu / z, mu the eigenvalue of
M, and N where log r = 0.  A call therefore costs one forward and one
inverse transform of each field plus a fixed number of elementwise passes
per moving source, however many steps it takes; static sources add nothing.
The one O(steps) part is the clock: ``t`` adds ``dt`` once per step, so n
one-step calls give bitwise the same ``t`` as one n-step call.
The coefficient tables are built once per (grid, dt, steps, c, mover
velocities) and kept for the last such key, so a repeat call, such as the
second evolution of ``dual_covariance_residual``, only transforms the fields
and current spectra and accumulates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dualcore import (
    FieldVecPair,
    UnitSystem,
    field_quadratic_form,
    inverse_rotate_fields,
    rotate_charges,
)
from .errors import PreconditionError
from .fields import (
    Grid3,
    PointSource,
    _curl_hat,
    _inv_ksquared,
    _kdot,
    _kgrid,
    _ksquared,
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
            raise ValueError(f"field shape {self.fields.E.shape} does not match grid {expected}")
        self.sources = list(self.sources)


def cfl_limit(grid: Grid3, units: UnitSystem) -> float:
    return 0.5 * min(grid.spacing) / units.c


def _check_sources(sources: list[PointSource], units: UnitSystem) -> None:
    for s in sources:
        speed = math.hypot(*s.velocity)
        if speed >= units.c:
            raise PreconditionError(f"source velocity {speed} is not below c={units.c}")


def _cis(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) of a real array."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _geometric_sum(n: int, em1, emn, w1: np.ndarray, wn: np.ndarray) -> np.ndarray:
    """sum_{m<n} r^m = expm1(n log r) / expm1(log r), and n where |log r| < 1e-150.

    log r = a + i b is given as em1 = expm1(a), w1 = exp(i b / 2), and the
    same of n log r as emn, wn.  expm1(a + i b) = em1 w1^2 + 2 i Im(w1) w1
    keeps its accuracy near zero without a complex log or power.  The limit n,
    exact to round-off there, keeps a subnormal denominator from overflowing.
    """
    den = em1 * w1 * w1 + 2j * w1.imag * w1
    flat = np.abs(den) < 1e-150
    num = emn * wn * wn + 2j * wn.imag * wn
    return np.where(flat, float(n), num / np.where(flat, 1.0, den))


@lru_cache(maxsize=1)
def _propagator(grid: Grid3, dt: float, steps: int, c: float, velocities: tuple[bytes, ...]):
    """Read-only alpha and beta / omega of M^N, and the alpha, beta / omega and
    phi(0) triple of each mover's forcing sum.

    Keyed on each mover's ``velocity.tobytes()``, so -0.0 and 0.0 never share
    an entry; only the last key is kept.
    """
    k = _kgrid(grid)
    omega = c * np.sqrt(_ksquared(grid))
    inv_omega = np.divide(1.0, omega, out=np.zeros_like(omega), where=omega > 0.0)
    x = dt * omega
    x2 = x * x
    # mu = M(i x) in polar form: |mu|^2 - 1 = x^8/576 - x^6/72, no complex log
    log_abs = 0.5 * np.log1p(x2 * x2 * x2 * (x2 / 576.0 - 1.0 / 72.0))
    arg = np.arctan2(x - x * x2 / 6.0, 1.0 - 0.5 * x2 + x2 * x2 / 24.0)
    decay = np.exp(steps * log_abs)
    alpha = decay * np.cos(steps * arg)
    beta = decay * np.sin(steps * arg) * inv_omega

    if velocities:
        p0 = (1.0 - 0.5 * x2) + 1j * (x - 0.25 * x * x2)  # P0(i x)
        pm = (4.0 - 0.5 * x2) + 2j * x  # Pm(i x)
        em1, emn = np.expm1(log_abs), np.expm1(steps * log_abs)
        rho1, rhon = _cis(0.5 * arg), _cis(0.5 * steps * arg)

    def forcing(velocity: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """alpha, beta / omega and phi(0) of sum_{n<N} M^(N-1-n) z^n Q for one mover."""
        theta = dt * _kdot(k, velocity)
        u1, un = _cis(0.5 * theta), _cis(0.5 * steps * theta)  # exp(i theta/2), exp(i N theta/2)
        half = u1.conj()
        z = half * half
        scale = (dt / 6.0) * (un.conj() * u1) ** 2  # (h/6) z^(N-1)
        # log r = log mu - log z at mu = M(+-i x) and at mu = M(0) = 1
        plus = _geometric_sum(steps, em1, emn, u1 * rho1, un * rhon) * (p0 + half * pm + z)
        minus = _geometric_sum(steps, em1, emn, u1 * rho1.conj(), un * rhon.conj()) * (
            p0.conj() + half * pm.conj() + z)
        phi0 = scale * _geometric_sum(steps, 0.0, 0.0, u1, un) * (1.0 + 4.0 * half + z)
        return (0.5 * scale) * (plus + minus), (-0.5j * scale) * (plus - minus) * inv_omega, phi0

    forcings = tuple(forcing(np.frombuffer(v)) for v in velocities)
    for table in (alpha, beta, *(t for triple in forcings for t in triple)):
        table.flags.writeable = False
    return alpha, beta, forcings


def step_symmetric_maxwell(state: EMState, dt: float, units: UnitSystem, steps: int = 1) -> EMState:
    """Advance the state by ``steps`` classical RK4 steps of size ``dt``.

    The steps are taken at once, in the closed form of the module docstring,
    so the cost does not grow with ``steps`` beyond the clock's float sum.
    Raises ``PreconditionError`` if ``dt`` exceeds half a light-crossing of
    the smallest cell, the stability margin of spectral RK4.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    limit = cfl_limit(state.grid, units)
    if dt > limit:
        raise PreconditionError(f"dt={dt} exceeds the stability limit {limit}")
    _check_sources(state.sources, units)
    for source in state.sources:
        _validate_source_geometry(source, state.grid)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")  # the closed form would run backwards

    grid = state.grid
    k = _kgrid(grid)
    movers = [s for s in state.sources if np.any(s.velocity != 0.0)]  # static ones carry no current
    alpha, beta, forcings = _propagator(
        grid, dt, steps, units.c, tuple(s.velocity.tobytes() for s in movers))
    # phi(A) y = alpha y - (alpha - phi(0)) k (k . y) / k^2 + beta L y, summed
    # over the free part and each moving source as [alpha y, (alpha - phi(0)) k . y, beta y]
    sums = []
    for field in (state.fields.E, state.fields.B):
        y = _to_spectrum(field)
        sums.append((alpha * y, (alpha - 1.0) * _kdot(k, y), beta * y))

    for source, (alpha, beta, phi0) in zip(movers, forcings):
        j_e, j_m = current_spectra([source], grid)
        j_e *= -1.0 / units.eps0
        j_m *= -1.0
        for (total, lon, rot), g in zip(sums, (j_e, j_m)):
            lon += (alpha - phi0) * _kdot(k, g)
            rot += beta * g
            g *= alpha
            total += g

    (E_hat, E_lon, E_rot), (B_hat, B_lon, B_rot) = sums
    E_hat -= k * (_inv_ksquared(grid) * E_lon)
    E_hat += units.c**2 * _curl_hat(k, B_rot)
    B_hat -= k * (_inv_ksquared(grid) * B_lon)
    B_hat -= _curl_hat(k, E_rot)

    t = state.t
    for _ in range(steps):
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
