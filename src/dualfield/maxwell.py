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
that profile times three fixed tables, alpha, (alpha - phi(0)) k . v / k^2
and beta / omega of its sum, scaled by -qe / eps0 into E and by -qm into B.

The spectral core ``_evolve_spectra`` applies all of this in place to the
stacked (2, 3, nx, ny, nz // 2 + 1) half spectra of E and B, one field and
one component at a time, with the charges passed per source.  A call of
``step_symmetric_maxwell`` therefore costs one forward and one inverse
transform of E and B together, one profile per moving source and a fixed
number of elementwise passes per mover, however many steps it takes; static
sources add nothing.  The one O(steps) part is the clock: ``t`` adds ``dt``
once per step, so n one-step calls give bitwise the same ``t`` as one
n-step call.

The tables sit in two one-slot caches, each keyed on what it depends on:
``_free_tables`` on (grid, dt, steps, c) holds alpha and beta / omega of M^N,
(alpha - 1) / k^2 and the velocity-free parts of the forcing sums, and
``_forcing_tables`` holds each mover's triple for those and the mover
velocities.  A repeat call, such as the second evolution of
``dual_covariance_residual``, and a free evolution after a sourced one on
the same (grid, dt, steps, c) build no table.

``dual_covariance_residual`` transforms E and B once and never returns to
the grid.  The rotation is pointwise and linear, so it commutes with the
transform: the residual rotates the input half spectra and the source
charges for one path, evolves both paths through the core, rotates the
evolved reference on the half spectrum, and takes the energy norm as the
Parseval sum of ``fields``.  The ``dual-covariance`` scenario runs the same
steps from one transform for all its angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dualcore import (
    FieldVecPair,
    UnitSystem,
    _rotate,
    field_quadratic_form,
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
    """Read-only tables that no mover changes: alpha and beta / omega of M^N
    and (alpha - 1) / k^2, then 1 / omega, P0(i x), Pm(i x), expm1 of
    log |mu| and of N log |mu|, and exp(i arg mu / 2) and exp(i N arg mu / 2),
    with x = omega dt."""
    omega = c * np.sqrt(_ksquared(grid))
    inv_omega = np.divide(1.0, omega, out=np.zeros_like(omega), where=omega > 0.0)
    x = dt * omega
    x2 = x * x
    # mu = M(i x) in polar form: |mu|^2 - 1 = x^8/576 - x^6/72, no complex log
    log_abs = 0.5 * np.log1p(x2 * x2 * x2 * (x2 / 576.0 - 1.0 / 72.0))
    arg = np.arctan2(x - x * x2 / 6.0, 1.0 - 0.5 * x2 + x2 * x2 / 24.0)
    decay = np.exp(steps * log_abs)
    alpha = decay * np.cos(steps * arg)
    tables = (
        alpha,
        decay * np.sin(steps * arg) * inv_omega,
        (alpha - 1.0) * _inv_ksquared(grid),
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
    """Read-only alpha, (alpha - phi(0)) k . v / k^2 and beta / omega of
    sum_{n<N} M^(N-1-n) z^n Q for each mover.

    Keyed on each mover's ``velocity.tobytes()``, so -0.0 and 0.0 never share
    an entry; only the last key is kept.
    """
    inv_omega, p0, pm, em1, emn, rho1, rhon = _free_tables(grid, dt, steps, c)[3:]
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
        return alpha, (alpha - phi0) * _kdot(k, velocity) * _inv_ksquared(grid), beta

    forcings = tuple(forcing(np.frombuffer(v)) for v in velocities)
    for table in (t for triple in forcings for t in triple):
        table.flags.writeable = False
    return forcings


def _checked_spectra(state: EMState, dt: float, units: UnitSystem, steps: int) -> np.ndarray:
    """The checks of an evolution, then the stacked (E, B) half spectra of
    ``state``, shape (2, 3, nx, ny, nz // 2 + 1), in one forward transform."""
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
    return _to_spectrum(np.stack([state.fields.E, state.fields.B]))


def _evolve_spectra(
    hat, state: EMState, dt: float, units: UnitSystem, steps: int, charges=None
) -> None:
    """Advance the E and B half spectra ``hat`` by ``steps`` steps, in place.

    ``hat`` is the stacked (2, 3, nx, ny, nz // 2 + 1) array or any pair of
    (3, nx, ny, nz // 2 + 1) arrays.  The sources of ``state`` drive it, the
    i-th with the charge pair ``charges[i]`` (its own by default), so a path
    with rotated charges needs no rotated state.  Nothing is checked here.
    """
    grid = state.grid
    k = _kgrid(grid)
    alpha, beta, lon = _free_tables(grid, dt, steps, units.c)[:3]
    # phi(A) y = alpha y - (alpha - phi(0)) k (k . y) / k^2 + beta L y, summed
    # over the free part and each moving source as [alpha y, (alpha - phi(0)) k . y / k^2, beta y]
    rots = [beta * y for y in hat]
    lons = [lon * _kdot(k, y) for y in hat]
    for y in hat:
        y *= alpha
    if charges is None:
        charges = [s.charges for s in state.sources]
    movers = [(s, q) for s, q in zip(state.sources, charges)
              if np.any(s.velocity != 0.0)]  # static ones carry no current
    if movers:
        forcings = _forcing_tables(
            grid, dt, steps, units.c, tuple(s.velocity.tobytes() for s, _ in movers))
        for (source, pair), tables in zip(movers, forcings):
            profile = _gaussian_profile(source, grid)
            total_s, lon_s, rot_s = (table * profile for table in tables)
            for y, rot, lon_y, q in zip(hat, rots, lons, (-pair.qe / units.eps0, -pair.qm)):
                lon_y += q * lon_s
                for y_i, rot_i, qv in zip(y, rot, q * source.velocity):
                    y_i += qv * total_s
                    rot_i += qv * rot_s
    for y, lon_y in zip(hat, lons):
        for k_i, y_i in zip(k, y):
            y_i -= k_i * lon_y
    E_rot, B_rot = rots
    _curl_hat(k, B_rot, out=hat[0], scale=units.c**2)
    _curl_hat(k, E_rot, out=hat[1], scale=-1.0)


def step_symmetric_maxwell(state: EMState, dt: float, units: UnitSystem, steps: int = 1) -> EMState:
    """Advance the state by ``steps`` classical RK4 steps of size ``dt``.

    The steps are taken at once, in the closed form of the module docstring,
    so the cost does not grow with ``steps`` beyond the clock's float sum.
    Raises ``PreconditionError`` if ``dt`` exceeds half a light-crossing of
    the smallest cell, the stability margin of spectral RK4.
    """
    hat = _checked_spectra(state, dt, units, steps)
    _evolve_spectra(hat, state, dt, units, steps)
    return _evolved_state(state, hat, dt, steps)


def _evolved_state(state: EMState, hat: np.ndarray, dt: float, steps: int) -> EMState:
    """``state`` advanced ``steps`` steps of ``dt``, given its evolved stacked
    (E, B) half spectra: the fields back on the grid in one inverse
    transform, the clock and the sources moved on."""
    t = state.t
    for _ in range(steps):
        t += dt
    elapsed = t - state.t
    sources = [s.at_time(elapsed, box=state.grid.L) for s in state.sources]
    return EMState(t, state.grid, FieldVecPair(*_to_grid(hat)), sources)


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


def _half_energy(E_hat: np.ndarray, B_hat: np.ndarray, grid: Grid3, units: UnitSystem) -> float:
    """N times ``field_quadratic_form`` of the fields with these half spectra,
    as the Parseval sum of ``fields``."""
    form = units.eps0 * (E_hat.real**2 + E_hat.imag**2)
    form += (B_hat.real**2 + B_hat.imag**2) / units.mu0
    return float(np.sum(form, axis=(0, 1, 2)) @ _parseval_weights(grid))


def _covariance_defect(
    first,
    charges,
    reference: np.ndarray,
    state: EMState,
    theta: float,
    dt: float,
    units: UnitSystem,
    steps: int,
) -> float:
    """Energy-norm defect of one rotated path against the rotated reference.

    ``first`` holds the input (E, B) half spectra of ``state`` rotated by
    ``theta`` and ``charges`` the charge pairs its sources carry on this
    path; ``first`` is evolved in place and then overwritten by the
    difference.  ``reference`` holds the evolved half spectra of ``state``
    itself; the defect is relative to it rotated.
    """
    _evolve_spectra(first, state, dt, units, steps, charges)
    E_first, B_first = first
    E_last, B_last = _rotate(*reference, theta, units.c)  # as ``inverse_rotate_fields``
    E_first -= E_last
    B_first -= B_last
    num = math.sqrt(_half_energy(E_first, B_first, state.grid, units))
    den = math.sqrt(_half_energy(E_last, B_last, state.grid, units))
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
    The fields are transformed once: their half spectra are rotated with the
    coefficients of ``inverse_rotate_fields`` and the source charges with
    ``rotate_charges``, both paths run through the spectral core, the
    evolved reference is rotated on the half spectrum too, and the norm is
    the Parseval sum, which equals the grid sum of ``field_quadratic_form``
    to round-off.
    """
    if require_shared_ratio:
        check_shared_ratio(state.sources)
    reference = _checked_spectra(state, dt, units, steps)
    first = _rotate(*reference, theta, units.c)  # as ``inverse_rotate_fields``
    charges = [rotate_charges(s.charges, theta, units) for s in state.sources]
    _evolve_spectra(reference, state, dt, units, steps)
    return _covariance_defect(first, charges, reference, state, theta, dt, units, steps)
