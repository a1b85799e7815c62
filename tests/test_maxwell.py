"""Evolution of the two-current field equations on periodic grids."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dualfield.cli import random_wave_fields
from dualfield.dualcore import (
    ChargePair,
    FieldVecPair,
    UnitSystem,
    field_quadratic_form,
    inverse_rotate_fields,
    rotate_charges,
)
from dualfield.errors import PreconditionError
from dualfield import maxwell
from dualfield.fields import (
    Grid3,
    PointSource,
    ScalarField,
    VectorField,
    _curl_hat,
    _kgrid,
    _to_grid,
    _to_spectrum,
    coulomb_field_from_density,
    current_spectra,
    deposit_sources,
    spectral_gradient,
)
from dualfield.maxwell import (
    EMState,
    cfl_limit,
    dual_covariance_residual,
    field_energy,
    gauss_residuals,
    step_symmetric_maxwell,
)

NAT = UnitSystem.natural()
TWO_PI = 2.0 * math.pi


def cube(n, L=TWO_PI):
    return Grid3((n, n, n), (L, L, L))


def rotate_em_state(state, theta, units):
    """Dual rotation of a whole state on the grid: ``inverse_rotate_fields``
    with ``rotate_charges`` at the same angle, the joint map that commutes
    with ``step_symmetric_maxwell``."""
    fields = inverse_rotate_fields(state.fields, theta, units)
    sources = [replace(s, charges=rotate_charges(s.charges, theta, units)) for s in state.sources]
    return EMState(state.t, state.grid, fields, sources)


def plane_wave_state(grid, kint, units, amplitude=1.0, t=0.0):
    """Traveling transverse wave; returns the state and its analytic advance."""
    k = np.asarray(kint, dtype=float) * TWO_PI / np.asarray(grid.L)
    knorm = float(np.linalg.norm(k))
    khat = k / knorm
    omega = units.c * knorm
    trial = np.array([0.0, 0.0, 1.0])
    if abs(trial @ khat) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    eps = trial - khat * (trial @ khat)
    eps /= np.linalg.norm(eps)
    x, y, z = np.meshgrid(*grid.axes(), indexing="ij")

    def fields_at(time):
        phase = k[0] * x + k[1] * y + k[2] * z - omega * time
        E = amplitude * eps[:, None, None, None] * np.cos(phase)
        B = (amplitude / units.c) * np.cross(khat, eps)[:, None, None, None] * np.cos(phase)
        return FieldVecPair(E, B)

    return EMState(t, grid, fields_at(t), []), fields_at, omega


def moving_source(pos, v, qe, qm, sigma=0.7):
    return PointSource(np.asarray(pos), np.asarray(v), ChargePair(qe, qm), sigma)


def consistent_state(grid, units, sources, seed=0, n_waves=3):
    """Waves plus the longitudinal fields the sources require."""
    rng = np.random.default_rng(seed)
    E = np.zeros((3,) + grid.shape)
    B = np.zeros((3,) + grid.shape)
    x, y, z = np.meshgrid(*grid.axes(), indexing="ij")
    made = 0
    while made < n_waves:
        kint = rng.integers(-2, 3, size=3)
        if not np.any(kint):
            continue
        k = kint * TWO_PI / np.asarray(grid.L)
        khat = k / np.linalg.norm(k)
        pol = rng.normal(size=3)
        pol -= khat * (pol @ khat)
        if np.linalg.norm(pol) < 1e-12:
            continue
        pol /= np.linalg.norm(pol)
        phase = k[0] * x + k[1] * y + k[2] * z + rng.uniform(0, TWO_PI)
        E += pol[:, None, None, None] * np.cos(phase)
        B += np.cross(khat, pol)[:, None, None, None] * np.cos(phase) / units.c
        made += 1
    if sources:
        rho_e, rho_m, _, _ = deposit_sources(sources, grid)
        E += coulomb_field_from_density(rho_e, 1.0 / units.eps0).data
        B += coulomb_field_from_density(rho_m, 1.0).data
    return EMState(0.0, grid, FieldVecPair(E, B), sources)


# --- basic behavior -----------------------------------------------------------


def test_zero_state_stays_zero():
    grid = cube(8)
    zeros = np.zeros((3,) + grid.shape)
    state = EMState(0.0, grid, FieldVecPair(zeros, zeros), [])
    out = step_symmetric_maxwell(state, 0.01, NAT, steps=5)
    assert np.max(np.abs(out.fields.E)) == 0.0
    assert np.max(np.abs(out.fields.B)) == 0.0
    assert out.t == pytest.approx(0.05)


def test_static_sources_leave_fields_untouched():
    grid = cube(16)
    zeros = np.zeros((3,) + grid.shape)
    source = moving_source((3.0, 3.0, 3.0), (0.0, 0.0, 0.0), 1.0, 0.5, sigma=math.pi / 4)
    state = EMState(0.0, grid, FieldVecPair(zeros, zeros), [source])
    out = step_symmetric_maxwell(state, 0.01, NAT, steps=3)
    assert np.max(np.abs(out.fields.E)) == 0.0
    assert np.max(np.abs(out.fields.B)) == 0.0


def test_a_nearly_static_mover_evolves_like_a_static_source():
    # dt k . v is subnormal, and so are the geometric sums' denominators; they
    # take their limit n there instead of overflowing the quotient
    grid = cube(16)
    zeros = np.zeros((3,) + grid.shape)

    def evolved(speed):
        source = moving_source((3.0, 3.0, 3.0), (speed,) * 3, 1.0, 0.5, sigma=math.pi / 4)
        state = EMState(0.0, grid, FieldVecPair(zeros, zeros), [source])
        out = step_symmetric_maxwell(state, 0.01, NAT, steps=10)
        return np.concatenate([out.fields.E, out.fields.B])

    crawl = evolved(1e-300)
    assert np.max(np.abs(crawl - evolved(0.0))) <= 2.5e-302
    slow = evolved(1e-6)  # the same linear response, scaled
    assert np.max(np.abs(1e294 * crawl - slow)) <= 1e-6 * np.max(np.abs(slow))


@pytest.mark.parametrize("kint", [(1, 0, 0), (1, 1, 0), (2, 1, 1)])
def test_plane_wave_advances_with_the_right_phase(kint):
    grid = cube(16)
    state, fields_at, omega = plane_wave_state(grid, kint, NAT)
    period = TWO_PI / omega
    steps = 500
    out = step_symmetric_maxwell(state, period / steps, NAT, steps=steps)
    expected = fields_at(period)
    scale = float(np.max(np.abs(expected.E)))
    assert np.max(np.abs(out.fields.E - expected.E)) / scale < 1e-8
    assert np.max(np.abs(out.fields.B - expected.B)) / scale < 1e-8


def test_plane_wave_speed_scales_with_c():
    units = UnitSystem(c=2.0, eps0=1.0)
    grid = cube(16)
    state, fields_at, omega = plane_wave_state(grid, (1, 0, 0), units)
    assert omega == pytest.approx(2.0)
    period = TWO_PI / omega
    out = step_symmetric_maxwell(state, period / 400, units, steps=400)
    expected = fields_at(period)
    assert np.max(np.abs(out.fields.E - expected.E)) < 1e-8


def test_electric_current_drives_electric_field():
    units = UnitSystem(c=1.0, eps0=2.0)
    grid = cube(16)
    zeros = np.zeros((3,) + grid.shape)
    v = np.array([0.05, 0.0, 0.0])
    source = moving_source((3.0, 3.0, 3.0), v, qe=1.0, qm=0.0, sigma=math.pi / 4)
    dt = 1e-3
    state = EMState(0.0, grid, FieldVecPair(zeros, zeros), [source])
    out = step_symmetric_maxwell(state, dt, units)
    _, _, j_e, _ = deposit_sources([source.at_time(0.5 * dt)], grid)
    expected = -dt * j_e.data / units.eps0
    scale = float(np.max(np.abs(expected)))
    assert np.max(np.abs(out.fields.E - expected)) / scale < 1e-4
    assert np.max(np.abs(out.fields.B)) / (scale / units.c) < 1e-3


def test_magnetic_current_drives_magnetic_field():
    grid = cube(16)
    zeros = np.zeros((3,) + grid.shape)
    v = np.array([0.0, 0.04, 0.0])
    source = moving_source((2.0, 2.0, 2.0), v, qe=0.0, qm=0.5, sigma=math.pi / 4)
    dt = 1e-3
    state = EMState(0.0, grid, FieldVecPair(zeros, zeros), [source])
    out = step_symmetric_maxwell(state, dt, NAT)
    _, _, _, j_m = deposit_sources([source.at_time(0.5 * dt)], grid)
    expected = -dt * j_m.data
    scale = float(np.max(np.abs(expected)))
    assert np.max(np.abs(out.fields.B - expected)) / scale < 1e-4


def test_evolution_is_linear():
    grid = cube(16)
    a = consistent_state(grid, NAT, [], seed=1)
    b = consistent_state(grid, NAT, [], seed=2)
    both = EMState(0.0, grid, FieldVecPair(a.fields.E + b.fields.E, a.fields.B + b.fields.B), [])
    dt, steps = 0.01, 20
    out_both = step_symmetric_maxwell(both, dt, NAT, steps=steps)
    out_a = step_symmetric_maxwell(a, dt, NAT, steps=steps)
    out_b = step_symmetric_maxwell(b, dt, NAT, steps=steps)
    scale = np.max(np.abs(out_both.fields.E))
    assert np.max(np.abs(out_both.fields.E - out_a.fields.E - out_b.fields.E)) / scale < 1e-12
    assert np.max(np.abs(out_both.fields.B - out_a.fields.B - out_b.fields.B)) / scale < 1e-12


def test_stepping_is_a_semigroup_on_full_spectrum_fields():
    # random normal samples fill every bin, Nyquist planes included
    grid = cube(16)
    rng = np.random.default_rng(11)
    fields = FieldVecPair(rng.normal(size=(3,) + grid.shape), rng.normal(size=(3,) + grid.shape))
    state = EMState(0.0, grid, fields, [])
    dt = 0.25 * min(grid.spacing)
    stepped = state
    for _ in range(20):
        stepped = step_symmetric_maxwell(stepped, dt, NAT, steps=1)
    at_once = step_symmetric_maxwell(state, dt, NAT, steps=20)
    diff = np.concatenate([stepped.fields.E - at_once.fields.E, stepped.fields.B - at_once.fields.B])
    scale = np.concatenate([at_once.fields.E, at_once.fields.B])
    assert np.linalg.norm(diff) / np.linalg.norm(scale) <= 1e-13


def test_sourced_stepping_is_a_semigroup_across_x_zero():
    # after one step the source sits a rounding error below x = 0; wrapped,
    # it must land on 0, not on L, so the second call accepts it
    grid = cube(32)
    source = moving_source((0.0, 3.0, 3.0), (-4e-14, 0.0, 0.0), 1.0, 0.0, sigma=0.6)
    state = consistent_state(grid, NAT, [source])
    dt = 0.005
    stepped = step_symmetric_maxwell(state, dt, NAT, steps=1)
    stepped = step_symmetric_maxwell(stepped, dt, NAT, steps=1)
    at_once = step_symmetric_maxwell(state, dt, NAT, steps=2)
    assert 0.0 <= stepped.sources[0].position[0] < grid.L[0]
    diff = np.concatenate([stepped.fields.E - at_once.fields.E, stepped.fields.B - at_once.fields.B])
    scale = np.concatenate([at_once.fields.E, at_once.fields.B])
    assert np.linalg.norm(diff) / np.linalg.norm(scale) <= 1e-13


def rk4_stage_loop(state, dt, units, steps):
    """``steps`` classical RK4 steps taken stage by stage on the half spectrum,
    with the moving sources' currents evaluated at every stage."""
    grid = state.grid
    k = _kgrid(grid)

    def rhs(y, t):
        dE = units.c**2 * _curl_hat(k, y[1])
        dB = -_curl_hat(k, y[0])
        currents = current_spectra([s.at_time(t - state.t) for s in state.sources], grid)
        if currents is not None:
            dE = dE - currents[0] / units.eps0
            dB = dB - currents[1]
        return dE, dB

    def shifted(y, h, slope):
        return y[0] + h * slope[0], y[1] + h * slope[1]

    y = (_to_spectrum(state.fields.E), _to_spectrum(state.fields.B))
    t = state.t
    for _ in range(steps):
        k1 = rhs(y, t)
        k2 = rhs(shifted(y, 0.5 * dt, k1), t + 0.5 * dt)
        k3 = rhs(shifted(y, 0.5 * dt, k2), t + 0.5 * dt)
        k4 = rhs(shifted(y, dt, k3), t + dt)
        y = tuple(y[i] + (dt / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(2))
        t += dt
    return _to_grid(y[0]), _to_grid(y[1])


def white_noise_state(grid, sources, seed):
    """Normal samples in every cell: every bin is filled, Nyquist planes included."""
    rng = np.random.default_rng(seed)
    fields = FieldVecPair(rng.normal(size=(3,) + grid.shape), rng.normal(size=(3,) + grid.shape))
    return EMState(0.0, grid, fields, sources)


def reference_case(name):
    """(state, dt, units) of one closed-form-against-stage-loop comparison."""
    if name == "free":
        grid = cube(16)
        return white_noise_state(grid, [], 21), 0.25 * min(grid.spacing), NAT
    if name == "two movers and a static source":
        # v parallel to x makes k . v vanish on the kx = 0 planes
        grid = cube(16)
        sources = [
            moving_source((3.0, 3.0, 3.0), (0.05, 0.0, 0.0), 1.0, 0.4, sigma=math.pi / 4),
            moving_source((1.5, 4.2, 2.0), (0.0, -0.05, 0.02), -0.7, 0.3, sigma=math.pi / 4),
            moving_source((4.5, 1.2, 5.0), (0.0, 0.0, 0.0), 0.3, -0.2, sigma=math.pi / 4),
        ]
        return white_noise_state(grid, sources, 22), 0.25 * min(grid.spacing), NAT
    units = UnitSystem(c=3.0, eps0=0.2)
    grid = Grid3((24, 32, 40), (5.0, 6.0, 7.0))
    sources = [moving_source((2.0, 3.0, 3.5), (0.4, -0.9, 1.1), 1.0, -0.5, sigma=0.5)]
    return white_noise_state(grid, sources, 23), 0.45 * cfl_limit(grid, units), units


@pytest.mark.parametrize("steps", [1, 7, 50])
@pytest.mark.parametrize("name", ["free", "two movers and a static source", "non-cubic, c = 3"])
def test_closed_form_matches_the_rk4_stage_loop(name, steps):
    state, dt, units = reference_case(name)
    out = step_symmetric_maxwell(state, dt, units, steps)
    E, B = rk4_stage_loop(state, dt, units, steps)
    assert np.linalg.norm(out.fields.E - E) <= 1e-13 * np.linalg.norm(E)
    assert np.linalg.norm(out.fields.B - B) <= 1e-13 * np.linalg.norm(B)


WORK = ("_to_spectrum", "_to_grid", "_gaussian_profile", "_evolve_spectra")


def count_work(monkeypatch):
    """Count the calls of ``WORK`` made through ``maxwell``; returns the live tally."""
    calls = dict.fromkeys(WORK, 0)

    def counted(name):
        original = getattr(maxwell, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in WORK:
        monkeypatch.setattr(maxwell, name, counted(name))
    return calls


def test_a_sourced_call_does_the_same_work_for_any_step_count(monkeypatch):
    state, dt, units = reference_case("two movers and a static source")
    calls = count_work(monkeypatch)
    counts = []
    for steps in (1, 100):
        calls.update(dict.fromkeys(calls, 0))
        step_symmetric_maxwell(state, dt, units, steps)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    # one profile per moving source, none for the static one; E and B go
    # through one transform each way and one pass of the core
    assert counts[0] == {"_to_spectrum": 1, "_to_grid": 1, "_gaussian_profile": 2,
                         "_evolve_spectra": 1}


def test_a_covariance_residual_transforms_the_fields_once(monkeypatch):
    state, dt, units = reference_case("two movers and a static source")
    shared = [moving_source(s.position, s.velocity, 0.8 * q, 0.4 * q, sigma=s.sigma)
              for s, q in zip(state.sources, (1.0, -0.6, 0.3))]
    calls = count_work(monkeypatch)
    dual_covariance_residual(EMState(0.0, state.grid, state.fields, shared), 0.6, 5, dt, units)
    # one forward transform, never back to the grid; one profile per mover and path
    assert calls == {"_to_spectrum": 1, "_to_grid": 0, "_gaussian_profile": 4,
                     "_evolve_spectra": 2}


# --- coefficient-table caches ---------------------------------------------------------


def clear_tables():
    maxwell._free_tables.cache_clear()
    maxwell._forcing_tables.cache_clear()


def misses():
    """Builds of (mover-independent, forcing) tables since the last clear."""
    return maxwell._free_tables.cache_info().misses, maxwell._forcing_tables.cache_info().misses


def test_a_covariance_residual_builds_its_tables_once():
    state, dt, units = reference_case("two movers and a static source")
    shared = [moving_source(s.position, s.velocity, 0.8 * q, 0.4 * q, sigma=s.sigma)
              for s, q in zip(state.sources, (1.0, -0.6, 0.3))]
    clear_tables()
    dual_covariance_residual(EMState(0.0, state.grid, state.fields, shared), 0.6, 5, dt, units)
    assert misses() == (1, 1)
    info = maxwell._forcing_tables.cache_info()
    assert (info.hits, info.currsize) == (1, 1)
    assert maxwell._free_tables.cache_info().currsize == 1


def test_a_free_evolution_after_a_sourced_one_builds_no_table():
    sourced, dt, units = reference_case("two movers and a static source")
    free = EMState(0.0, sourced.grid, sourced.fields, [])
    clear_tables()
    step_symmetric_maxwell(sourced, dt, units, 7)
    hits = maxwell._free_tables.cache_info().hits
    step_symmetric_maxwell(free, dt, units, 7)
    assert misses() == (1, 1)
    assert maxwell._free_tables.cache_info().hits == hits + 1


def bitwise(state):
    return state.fields.E.tobytes() + state.fields.B.tobytes()


def with_velocity(state, index, velocity):
    sources = list(state.sources)
    s = sources[index]
    sources[index] = moving_source(s.position, velocity, s.charges.qe, s.charges.qm, s.sigma)
    return EMState(state.t, state.grid, state.fields, sources)


@pytest.mark.parametrize("change", ["c", "dt", "steps", "velocity", "velocity 0.0 -> -0.0"])
def test_changing_one_key_input_rebuilds_the_tables(change):
    state, dt, units = reference_case("two movers and a static source")
    steps = 3
    clear_tables()
    step_symmetric_maxwell(state, dt, units, steps)
    if change == "c":
        units = UnitSystem(c=1.5)
    elif change == "dt":
        dt = math.nextafter(dt, 0.0)
    elif change == "steps":
        steps = 4
    elif change == "velocity":
        state = with_velocity(state, 1, (0.0, -0.05, math.nextafter(0.02, 1.0)))
    else:
        state = with_velocity(state, 0, (0.05, -0.0, 0.0))
    step_symmetric_maxwell(state, dt, units, steps)
    # a velocity keys only the forcing tables
    assert misses() == ((1, 2) if change.startswith("velocity") else (2, 2))
    for table in (maxwell._free_tables, maxwell._forcing_tables):
        assert table.cache_info().currsize == 1


@pytest.mark.parametrize("name", ["free", "two movers and a static source"])
def test_a_warm_table_evolution_equals_a_cold_one_bitwise(name):
    state, dt, units = reference_case(name)
    clear_tables()
    cold = step_symmetric_maxwell(state, dt, units, 7)
    warm = step_symmetric_maxwell(state, dt, units, 7)
    assert misses() == ((1, 0) if name == "free" else (1, 1))
    assert bitwise(warm) == bitwise(cold)


def test_an_evolution_after_another_light_speed_equals_a_cold_one():
    state, dt, _ = reference_case("two movers and a static source")
    fast = UnitSystem(c=3.0)
    dt /= 3.0
    clear_tables()
    step_symmetric_maxwell(state, dt, NAT, 7)
    after = step_symmetric_maxwell(state, dt, fast, 7)
    clear_tables()
    assert bitwise(after) == bitwise(step_symmetric_maxwell(state, dt, fast, 7))


def test_cached_tables_are_read_only():
    state, dt, units = reference_case("two movers and a static source")
    movers = tuple(s.velocity.tobytes() for s in state.sources[:2])
    free = maxwell._free_tables(state.grid, dt, 5, units.c)
    forcings = maxwell._forcing_tables(state.grid, dt, 5, units.c, movers)
    tables = [*free, *(t for triple in forcings for t in triple)]
    assert len(tables) == 10 + 2 * 3
    assert not any(t.flags.writeable for t in tables)


def test_the_residual_and_the_step_leave_the_state_alone():
    state, dt, units = reference_case("two movers and a static source")
    shared = [moving_source(s.position, s.velocity, 0.8 * q, 0.4 * q, sigma=s.sigma)
              for s, q in zip(state.sources, (1.0, -0.6, 0.3))]
    state = EMState(0.0, state.grid, state.fields, shared)
    before = bitwise(state)
    clear_tables()
    dual_covariance_residual(state, 0.6, 5, dt, units)
    step_symmetric_maxwell(state, dt, units, 5)
    assert bitwise(state) == before
    assert [s.charges for s in state.sources] == [s.charges for s in shared]
    tables = [*maxwell._free_tables(state.grid, dt, 5, units.c),
              *(t for triple in maxwell._forcing_tables(
                  state.grid, dt, 5, units.c, tuple(s.velocity.tobytes() for s in shared[:2]))
                for t in triple)]
    assert misses() == (1, 1)
    assert not any(t.flags.writeable for t in tables)


# --- conservation -----------------------------------------------------------------


def test_source_free_energy_is_conserved():
    grid = cube(24)
    state = consistent_state(grid, NAT, [], seed=3)
    e0 = field_energy(state, NAT)
    out = step_symmetric_maxwell(state, 0.002, NAT, steps=1000)
    e1 = field_energy(out, NAT)
    assert abs(e1 - e0) / e0 < 1e-9


def test_gauss_constraints_hold_during_sourced_evolution():
    grid = cube(24)
    sources = [
        moving_source((2.0, 3.0, 3.0), (0.05, 0.02, 0.0), 1.0, 0.5),
        moving_source((4.0, 2.5, 3.5), (-0.03, 0.0, 0.04), -0.6, -0.3),
    ]
    state = consistent_state(grid, NAT, sources, seed=4)
    rE0, rB0 = gauss_residuals(state, NAT)
    assert rE0 < 1e-12 and rB0 < 1e-12
    out = step_symmetric_maxwell(state, 0.005, NAT, steps=100)
    rE1, rB1 = gauss_residuals(out, NAT)
    assert rE1 < 1e-10 and rB1 < 1e-10


def test_gauss_constraints_hold_at_the_smearing_edge():
    grid = Grid3((16, 24, 32), (6.0, 7.0, 9.0))
    sigma = 2.0 * max(grid.spacing)
    sources = [
        moving_source((2.0, 3.0, 4.0), (0.05, 0.02, 0.0), 1.0, 0.5, sigma=sigma),
        moving_source((4.0, 4.5, 6.0), (-0.03, 0.0, 0.04), -0.6, -0.3, sigma=sigma),
    ]
    state = consistent_state(grid, NAT, sources, n_waves=0)
    assert max(gauss_residuals(state, NAT)) <= 1e-13
    out = step_symmetric_maxwell(state, 0.25 * min(grid.spacing), NAT, steps=50)
    assert max(gauss_residuals(out, NAT)) <= 1e-13


def test_gauss_residual_flags_inconsistent_fields():
    grid = cube(16)
    zeros = np.zeros((3,) + grid.shape)
    source = moving_source((3.0, 3.0, 3.0), (0.0, 0.0, 0.0), 1.0, 0.0, sigma=math.pi / 4)
    state = EMState(0.0, grid, FieldVecPair(zeros, zeros), [source])
    rE, rB = gauss_residuals(state, NAT)
    assert rE > 1e-2  # charge present but no field at all
    assert rB < 1e-12  # no magnetic charge, no magnetic field
    x, _, _ = np.meshgrid(*grid.axes(), indexing="ij")
    bump = np.zeros((3,) + grid.shape)
    bump[0] = np.sin(x)
    bad = EMState(0.0, grid, FieldVecPair(bump, state.fields.B), [source])
    rE_bad, _ = gauss_residuals(bad, NAT)
    assert rE_bad > 1e-2


# --- dual covariance ----------------------------------------------------------------


def test_rotate_em_state_explicit_quarter_turn():
    grid = cube(8)
    E = np.zeros((3,) + grid.shape)
    E[0] = 1.0
    source = moving_source((3.0, 3.0, 3.0), (0.0, 0.0, 0.0), 1.0, 0.0, sigma=math.pi / 4)
    state = EMState(0.0, grid, FieldVecPair(E, np.zeros_like(E)), [source])
    out = rotate_em_state(state, math.pi / 2, NAT)
    np.testing.assert_allclose(out.fields.E, 0.0, atol=1e-15)
    np.testing.assert_allclose(out.fields.B[0], -1.0, atol=1e-15)
    assert out.sources[0].charges.qe == pytest.approx(0.0, abs=1e-15)
    assert out.sources[0].charges.qm == pytest.approx(-1.0)


def test_rotation_at_zero_angle_is_identity():
    grid = cube(16)
    state = consistent_state(grid, NAT, [], seed=5)
    assert dual_covariance_residual(state, 0.0, 10, 0.01, NAT) == 0.0


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 2, 3 * math.pi / 2])
def test_source_free_evolution_commutes_with_rotation(theta):
    grid = cube(16)
    state = consistent_state(grid, NAT, [], seed=6)
    assert dual_covariance_residual(state, theta, 50, 0.01, NAT) < 1e-10


def test_sourced_evolution_commutes_with_rotation():
    grid = cube(16)
    sources = [
        moving_source((2.0, 3.0, 3.0), (0.05, 0.02, 0.0), 1.0, 0.5, sigma=math.pi / 4),
        moving_source((4.0, 2.5, 3.5), (-0.03, 0.0, 0.04), -0.6, -0.3, sigma=math.pi / 4),
    ]
    state = consistent_state(grid, NAT, sources, seed=7)
    assert dual_covariance_residual(state, math.pi / 4, 50, 0.01, NAT) < 1e-10


def test_covariance_with_mixed_ratio_sources_needs_the_flag():
    grid = cube(16)
    sources = [
        moving_source((2.0, 3.0, 3.0), (0.05, 0.0, 0.0), 1.0, 0.5, sigma=math.pi / 4),
        moving_source((4.0, 2.5, 3.5), (0.0, 0.04, 0.0), 1.0, -0.8, sigma=math.pi / 4),
    ]
    state = consistent_state(grid, NAT, sources, seed=8)
    with pytest.raises(PreconditionError, match="different qm/qe ratios"):
        dual_covariance_residual(state, math.pi / 4, 10, 0.01, NAT)
    residual = dual_covariance_residual(
        state, math.pi / 4, 10, 0.01, NAT, require_shared_ratio=False
    )
    assert residual < 1e-10  # independent charge pairs still transform covariantly


def test_the_half_spectrum_energy_is_n_times_the_grid_form():
    # white noise fills the kz = 0 and kz = nz/2 planes, so a weight of 2 on
    # either edge plane would be off by about a percent
    units = UnitSystem(c=3.0, eps0=0.2)
    grid = Grid3((6, 8, 10), (5.0, 6.0, 7.0))
    state = white_noise_state(grid, [], 25)
    half = maxwell._half_energy(_to_spectrum(state.fields.E), _to_spectrum(state.fields.B),
                                grid, units)
    grid_form = math.prod(grid.n) * field_quadratic_form(state.fields, units)
    assert abs(half - grid_form) <= 1e-13 * grid_form


@pytest.mark.parametrize("units", [NAT, UnitSystem(c=3.0, eps0=0.2)], ids=["natural", "c3-eps0.2"])
def test_rotating_the_half_spectra_equals_transforming_the_grid_rotation(units):
    # the covariance paths rotate the input once transformed; white noise fills every bin
    grid = Grid3((6, 8, 10), (5.0, 6.0, 7.0))
    state = white_noise_state(grid, [], 26)
    hat = _to_spectrum(np.stack([state.fields.E, state.fields.B]))
    for theta in (0.3, math.pi / 4, 2.0, 3 * math.pi / 2):
        E_hat, B_hat = maxwell._rotate(*hat, theta, units.c)
        rotated = inverse_rotate_fields(state.fields, theta, units)
        E_ref, B_ref = _to_spectrum(np.stack([rotated.E, rotated.B]))
        defect = maxwell._half_energy(E_hat - E_ref, B_hat - B_ref, grid, units)
        assert math.sqrt(defect / maxwell._half_energy(E_ref, B_ref, grid, units)) <= 1e-15


def criterion_2_shared_state():
    """The shared-ratio moving pair of ``tests/acceptance/covariance-shared.ini``
    on its seed-5 waves and Coulomb fields."""
    grid = cube(32)
    sources = [
        moving_source((3.0, 3.0, 3.0), (0.05, 0.0, 0.0), 1.0, 0.4, sigma=0.5),
        moving_source((1.5, 4.2, 2.0), (0.0, -0.05, 0.02), -0.7, -0.28, sigma=0.5),
    ]
    waves = random_wave_fields(grid, NAT, np.random.default_rng(5))
    rho_e, rho_m, _, _ = deposit_sources(sources, grid)
    E = waves.E + coulomb_field_from_density(rho_e, 1.0 / NAT.eps0).data
    B = waves.B + coulomb_field_from_density(rho_m, 1.0).data
    return EMState(0.0, grid, FieldVecPair(E, B), sources)


def test_the_spectral_defect_equals_the_grid_space_defect():
    # fields rotated without their charges: a defect well above round-off
    state = criterion_2_shared_state()
    theta, steps, dt = math.pi / 4, 100, 0.005
    fields_only = EMState(0.0, state.grid, inverse_rotate_fields(state.fields, theta, NAT),
                          state.sources)
    reference = maxwell._checked_spectra(state, dt, NAT, steps)
    rotated = maxwell._rotate(*reference, theta, NAT.c)
    maxwell._evolve_spectra(reference, state, dt, NAT, steps)
    spectral = maxwell._covariance_defect(rotated, None, reference, state, theta, dt, NAT, steps)
    first = step_symmetric_maxwell(fields_only, dt, NAT, steps).fields
    last = inverse_rotate_fields(step_symmetric_maxwell(state, dt, NAT, steps).fields, theta, NAT)
    on_grid = math.sqrt(field_quadratic_form(FieldVecPair(first.E - last.E, first.B - last.B), NAT)
                        / field_quadratic_form(last, NAT))
    assert 1e-4 < on_grid < 1e-3
    assert abs(spectral - on_grid) <= 1e-10 * on_grid


# --- guard rails -----------------------------------------------------------------------


def test_cfl_limit_value_and_violation():
    grid = cube(16)
    assert cfl_limit(grid, NAT) == pytest.approx(0.5 * grid.spacing[0])
    state = consistent_state(grid, NAT, [], seed=9)
    with pytest.raises(PreconditionError, match="exceeds the stability limit"):
        step_symmetric_maxwell(state, 10.0 * cfl_limit(grid, NAT), NAT)


def test_negative_time_step_is_rejected():
    grid = cube(8)
    zeros = np.zeros((3,) + grid.shape)
    state = EMState(0.0, grid, FieldVecPair(zeros, zeros), [])
    with pytest.raises(ValueError):
        step_symmetric_maxwell(state, -0.01, NAT)


def test_zero_steps_keep_the_state_and_negative_steps_are_rejected():
    grid = cube(16)
    source = moving_source((3.0, 3.0, 3.0), (0.05, 0.0, 0.0), 1.0, 0.5, sigma=math.pi / 4)
    state = white_noise_state(grid, [source], 24)
    out = step_symmetric_maxwell(state, 0.01, NAT, steps=0)
    assert out.t == state.t
    np.testing.assert_array_equal(out.sources[0].position, source.position)
    np.testing.assert_allclose(out.fields.E, state.fields.E, rtol=0, atol=1e-14)
    np.testing.assert_allclose(out.fields.B, state.fields.B, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        step_symmetric_maxwell(state, 0.01, NAT, steps=-1)


def test_superluminal_source_is_rejected():
    grid = cube(16)
    zeros = np.zeros((3,) + grid.shape)
    source = moving_source((3.0, 3.0, 3.0), (1.5, 0.0, 0.0), 1.0, 0.0, sigma=math.pi / 4)
    state = EMState(0.0, grid, FieldVecPair(zeros, zeros), [source])
    with pytest.raises(PreconditionError, match="is not below c="):
        step_symmetric_maxwell(state, 0.01, NAT)


def test_field_energy_of_uniform_field():
    grid = cube(8, L=1.0)
    E = np.zeros((3,) + grid.shape)
    E[0] = 2.0
    state = EMState(0.0, grid, FieldVecPair(E, np.zeros_like(E)), [])
    # eps0 E^2 / 2 * volume = 0.5 * 4 * 1
    assert field_energy(state, NAT) == pytest.approx(2.0)
