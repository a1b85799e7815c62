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
M, and N where log r = 0.  A mover's current spectrum is q v times its
unit-charge profile (``fields._gaussian_profile``), so its whole forcing is
that profile times three fixed tables, alpha, (alpha - phi(0)) k . v and
beta / omega of its sum, scaled by -qe / eps0 into E and by -qm into B.
A call therefore costs one forward and one inverse transform of each field,
one profile per moving source and a fixed number of elementwise passes per
mover, however many steps it takes; static sources add nothing.
The one O(steps) part is the clock: ``t`` adds ``dt`` once per step, so n
one-step calls give bitwise the same ``t`` as one n-step call.

The tables sit in two one-slot caches, each keyed on what it depends on:
``_free_tables`` on (grid, dt, steps, c) holds alpha and beta / omega of M^N
and the velocity-free parts of the forcing sums, and ``_forcing_tables``
holds each mover's triple for those and the mover velocities.  A repeat
call, such as the second evolution of ``dual_covariance_residual``, and a
free evolution after a sourced one on the same (grid, dt, steps, c) build
no table.

``dual_covariance_residual`` never returns to the grid: it evolves both of
its paths with the spectral core ``_evolve_hat``, rotates the evolved half
spectra (the rotation is pointwise and linear, so it commutes with the
transform), and takes the energy norm as the Parseval sum of ``fields``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dualcore import (
    FieldVecPair,
    UnitSystem,
    _rotate,
    field_quadratic_form,
    inverse_rotate_fields,
    rotate_charges,
)
from .errors import PreconditionError
from .fields import (
    Grid3,
    PointSource,
    _curl_hat,
    _gaussian_profile,
    _half_mesh,
    _inv_ksquared,
    _kdot,
    _kgrid,
    _ksquared,
    _parseval_weights,
    _to_grid,
    _to_spectrum,
    _validate_source_geometry,
    check_shared_ratio,
    current_spectra,  # not called here; dualbench's tracer tests patch maxwell.current_spectra
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


def _axis_phase(mesh, velocity: np.ndarray, scale: float) -> np.ndarray:
    """exp(i scale k . v) on the half spectrum, as the product of its per-axis
    factors over the Nyquist-free open mesh ``mesh`` of wavenumbers."""
    x, y, z = (_cis(scale * v * k) for v, k in zip(velocity, mesh))
    return x * y * z


@lru_cache(maxsize=1)
def _free_tables(grid: Grid3, dt: float, steps: int, c: float):
    """Read-only tables that no mover changes: alpha and beta / omega of M^N,
    then 1 / omega, P0(i x), Pm(i x), expm1 of log |mu| and of N log |mu|,
    and exp(i arg mu / 2) and exp(i N arg mu / 2), with x = omega dt."""
    omega = c * np.sqrt(_ksquared(grid))
    inv_omega = np.divide(1.0, omega, out=np.zeros_like(omega), where=omega > 0.0)
    x = dt * omega
    x2 = x * x
    # mu = M(i x) in polar form: |mu|^2 - 1 = x^8/576 - x^6/72, no complex log
    log_abs = 0.5 * np.log1p(x2 * x2 * x2 * (x2 / 576.0 - 1.0 / 72.0))
    arg = np.arctan2(x - x * x2 / 6.0, 1.0 - 0.5 * x2 + x2 * x2 / 24.0)
    decay = np.exp(steps * log_abs)
    tables = (
        decay * np.cos(steps * arg),
        decay * np.sin(steps * arg) * inv_omega,
        inv_omega,
        (1.0 - 0.5 * x2) + 1j * (x - 0.25 * x * x2),
        (4.0 - 0.5 * x2) + 2j * x,
        np.expm1(log_abs),
        np.expm1(steps * log_abs),
        _cis(0.5 * arg),
        _cis(0.5 * steps * arg),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=1)
def _forcing_tables(
    grid: Grid3, dt: float, steps: int, c: float, velocities: tuple[bytes, ...]
):
    """Read-only alpha, (alpha - phi(0)) k . v and beta / omega of
    sum_{n<N} M^(N-1-n) z^n Q for each mover.

    Keyed on each mover's ``velocity.tobytes()``, so -0.0 and 0.0 never share
    an entry; only the last key is kept.
    """
    _, _, inv_omega, p0, pm, em1, emn, rho1, rhon = _free_tables(grid, dt, steps, c)
    k = _kgrid(grid)
    mesh = _half_mesh(grid, grid.kaxes())

    def forcing(velocity: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # exp(i theta/2) and exp(i N theta/2) with theta = dt k . v
        u1 = _axis_phase(mesh, velocity, 0.5 * dt)
        un = _axis_phase(mesh, velocity, 0.5 * steps * dt)
        half = u1.conj()
        z = half * half
        scale = (dt / 6.0) * (un.conj() * u1) ** 2  # (h/6) z^(N-1)
        # log r = log mu - log z at mu = M(+-i x) and at mu = M(0) = 1
        plus = _geometric_sum(steps, em1, emn, u1 * rho1, un * rhon) * (p0 + half * pm + z)
        minus = _geometric_sum(steps, em1, emn, u1 * rho1.conj(), un * rhon.conj()) * (
            p0.conj() + half * pm.conj() + z)
        phi0 = scale * _geometric_sum(steps, 0.0, 0.0, u1, un) * (1.0 + 4.0 * half + z)
        alpha = (0.5 * scale) * (plus + minus)
        beta = (-0.5j * scale) * (plus - minus) * inv_omega
        return alpha, (alpha - phi0) * _kdot(k, velocity), beta

    forcings = tuple(forcing(np.frombuffer(v)) for v in velocities)
    for table in (t for triple in forcings for t in triple):
        table.flags.writeable = False
    return forcings


def _evolve_hat(
    state: EMState, dt: float, units: UnitSystem, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Half spectra of E and B after ``steps`` steps: ``step_symmetric_maxwell``
    without its inverse transforms, clock and source wrap."""
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
    alpha, beta = _free_tables(grid, dt, steps, units.c)[:2]
    # phi(A) y = alpha y - (alpha - phi(0)) k (k . y) / k^2 + beta L y, summed
    # over the free part and each moving source as [alpha y, (alpha - phi(0)) k . y, beta y]
    sums = []
    for field in (state.fields.E, state.fields.B):
        y = _to_spectrum(field)
        sums.append((alpha * y, (alpha - 1.0) * _kdot(k, y), beta * y))

    movers = [s for s in state.sources if np.any(s.velocity != 0.0)]  # static ones carry no current
    if movers:
        forcings = _forcing_tables(
            grid, dt, steps, units.c, tuple(s.velocity.tobytes() for s in movers))
        for source, tables in zip(movers, forcings):
            profile = _gaussian_profile(source, grid)
            total_s, lon_s, rot_s = (table * profile for table in tables)
            charges = (-source.charges.qe / units.eps0, -source.charges.qm)
            for (total, lon, rot), q in zip(sums, charges):
                qv = (q * source.velocity)[:, None, None, None]
                total += qv * total_s
                lon += q * lon_s
                rot += qv * rot_s

    (E_hat, E_lon, E_rot), (B_hat, B_lon, B_rot) = sums
    E_hat -= k * (_inv_ksquared(grid) * E_lon)
    E_hat += units.c**2 * _curl_hat(k, B_rot)
    B_hat -= k * (_inv_ksquared(grid) * B_lon)
    B_hat -= _curl_hat(k, E_rot)
    return E_hat, B_hat


def step_symmetric_maxwell(state: EMState, dt: float, units: UnitSystem, steps: int = 1) -> EMState:
    """Advance the state by ``steps`` classical RK4 steps of size ``dt``.

    The steps are taken at once, in the closed form of the module docstring,
    so the cost does not grow with ``steps`` beyond the clock's float sum.
    Raises ``PreconditionError`` if ``dt`` exceeds half a light-crossing of
    the smallest cell, the stability margin of spectral RK4.
    """
    return _evolved_state(state, _evolve_hat(state, dt, units, steps), dt, steps)


def _evolved_state(
    state: EMState, spectra: tuple[np.ndarray, np.ndarray], dt: float, steps: int
) -> EMState:
    """``state`` advanced ``steps`` steps of ``dt``, given its evolved E and B
    half spectra: the fields back on the grid, the clock and the sources moved on."""
    t = state.t
    for _ in range(steps):
        t += dt
    elapsed = t - state.t
    sources = [s.at_time(elapsed, box=state.grid.L) for s in state.sources]
    E_hat, B_hat = spectra
    return EMState(t, state.grid, FieldVecPair(_to_grid(E_hat), _to_grid(B_hat)), sources)


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


def _half_energy(E_hat: np.ndarray, B_hat: np.ndarray, grid: Grid3, units: UnitSystem) -> float:
    """N times ``field_quadratic_form`` of the fields with these half spectra,
    as the Parseval sum of ``fields``."""
    form = units.eps0 * (E_hat.real**2 + E_hat.imag**2)
    form += (B_hat.real**2 + B_hat.imag**2) / units.mu0
    return float(np.sum(form, axis=(0, 1, 2)) @ _parseval_weights(grid))


def _covariance_defect(
    first: EMState,
    reference: tuple[np.ndarray, np.ndarray],
    theta: float,
    steps: int,
    dt: float,
    units: UnitSystem,
) -> float:
    """Energy-norm defect of ``first`` evolved against ``reference`` rotated.

    ``reference`` holds the evolved (E, B) half spectra of the unrotated
    state, and ``first`` its rotated counterpart before evolution; the
    defect is relative to the rotated reference.
    """
    E_first, B_first = _evolve_hat(first, dt, units, steps)
    E_last, B_last = _rotate(*reference, theta, units.c)  # as ``inverse_rotate_fields``
    num = math.sqrt(_half_energy(E_first - E_last, B_first - B_last, first.grid, units))
    den = math.sqrt(_half_energy(E_last, B_last, first.grid, units))
    return num / den if den > 0.0 else num


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
    Neither path returns to the grid: the evolved half spectra are rotated
    with the coefficients of ``rotate_em_state``, and the norm is taken on
    the half spectrum by Parseval's identity, which equals the grid sum of
    ``field_quadratic_form`` to round-off.
    """
    if require_shared_ratio:
        check_shared_ratio(state.sources)
    reference = _evolve_hat(state, dt, units, steps)
    first = rotate_em_state(state, theta, units)
    return _covariance_defect(first, reference, theta, steps, dt, units)
