"""Test-particle forces and trajectories under both force models."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from dualfield.dualcore import (
    ChargePair,
    FieldVecPair,
    UnitSystem,
    inverse_rotate_fields,
    rotate_charges,
)
from dualfield.dynamics import (
    MonopoleSampler,
    ParticleState,
    Trajectory,
    classical_lorentz_force,
    in_plane_span,
    out_of_plane_component,
    plane_normal,
    push_particle,
    quantum_lorentz_force,
)
from dualfield.fields import point_magnetic_field

NAT = UnitSystem.natural()
X, Y, Z = np.eye(3)
ZERO3 = np.zeros(3)


def particle(qe=1.0, qm=0.0, v=(0.0, 0.0, 0.0), x=(0.0, 0.0, 0.0), mass=1.0):
    return ParticleState(np.asarray(x), np.asarray(v), ChargePair(qe, qm), mass)


# --- force values -----------------------------------------------------------


def test_electric_charge_feels_the_electric_field():
    F = classical_lorentz_force(ZERO3, ChargePair(2.0), FieldVecPair(3.0 * X, ZERO3), NAT)
    np.testing.assert_allclose(F, 6.0 * X, atol=1e-15)


def test_electric_charge_feels_v_cross_b():
    F = classical_lorentz_force(0.01 * Y, ChargePair(1.0), FieldVecPair(ZERO3, 2.0 * Z), NAT)
    np.testing.assert_allclose(F, 0.02 * X, atol=1e-15)


def test_magnetic_charge_feels_the_magnetic_field():
    units = UnitSystem(c=2.0, eps0=3.0)
    F = classical_lorentz_force(ZERO3, ChargePair(0.0, 0.5), FieldVecPair(ZERO3, 4.0 * X), units)
    # c eps0 qm * c B = 2*3*0.5 * 2*4
    np.testing.assert_allclose(F, 24.0 * X, atol=1e-14)


def test_magnetic_charge_feels_minus_v_cross_e():
    F = classical_lorentz_force(0.02 * Y, ChargePair(0.0, 1.0), FieldVecPair(3.0 * Z, ZERO3), NAT)
    np.testing.assert_allclose(F, -0.06 * X, atol=1e-15)


@pytest.mark.parametrize("theta", [0.3, math.pi / 4, math.pi / 2, 2.5])
def test_classical_force_is_invariant_under_joint_rotation(theta):
    rng = np.random.default_rng(11)
    for _ in range(10):
        charges, v = ChargePair(rng.normal(), rng.normal()), 0.02 * rng.normal(size=3)
        fields = FieldVecPair(rng.normal(size=3), rng.normal(size=3))
        F = classical_lorentz_force(v, charges, fields, NAT)
        F_rot = classical_lorentz_force(
            v, rotate_charges(charges, theta, NAT), inverse_rotate_fields(fields, theta, NAT), NAT
        )
        np.testing.assert_allclose(F_rot, F, atol=1e-12)


def test_quantum_equals_classical_on_fully_transverse_fields():
    rng = np.random.default_rng(12)
    for _ in range(10):
        charges, v = ChargePair(rng.normal(), rng.normal()), 0.03 * rng.normal(size=3)
        fields = FieldVecPair(rng.normal(size=3), rng.normal(size=3))
        Fc = classical_lorentz_force(v, charges, fields, NAT)
        Fq = quantum_lorentz_force(v, charges, fields, fields, NAT)
        np.testing.assert_array_equal(Fq, Fc)


def test_quantum_drops_velocity_coupling_to_longitudinal_fields():
    v, charges = 0.05 * Y, ChargePair(1.0)
    full = FieldVecPair(ZERO3, 2.0 * Z)  # purely longitudinal B
    none = FieldVecPair(ZERO3, ZERO3)
    F = quantum_lorentz_force(v, charges, full, none, NAT)
    np.testing.assert_allclose(F, ZERO3, atol=1e-15)
    # the classical model still deflects
    Fc = classical_lorentz_force(v, charges, full, NAT)
    assert np.linalg.norm(Fc) > 0.05


@pytest.mark.parametrize(
    "units", [NAT, UnitSystem.si(), UnitSystem(c=3.0, eps0=0.2)], ids=["natural", "si", "c3-eps0.2"]
)
def test_lorentz_force_matches_the_two_cross_product_form(units):
    # F = qe (E + v x B_c) + c eps0 qm (c B - v x E_c / c), the textbook form
    rng = np.random.default_rng(23)
    c, eps0 = units.c, units.eps0
    for _ in range(200):
        qe, qm = rng.normal(), rng.normal() / (c * eps0)
        E, E_c = c * rng.normal(size=3), c * rng.normal(size=3)
        B, B_c = rng.normal(size=3), rng.normal(size=3)
        v = 0.1 * c * rng.normal(size=3)
        reference = qe * (E + np.cross(v, B_c)) + c * eps0 * qm * (c * B - np.cross(v, E_c) / c)
        terms = [qe * E, qe * np.cross(v, B_c), c * eps0 * qm * c * B, eps0 * qm * np.cross(v, E_c)]
        scale = sum(np.abs(term) for term in terms)
        charges, full, coupled = ChargePair(qe, qm), FieldVecPair(E, B), FieldVecPair(E_c, B_c)
        F = quantum_lorentz_force(v, charges, full, coupled, units)
        assert np.all(np.abs(F - reference) <= 1e-14 * scale)


# --- samplers ------------------------------------------------------------------


class UniformFieldSampler:
    """Spatially uniform fields, declared fully transverse.

    A uniform field is a k = 0 mode, which the grid decomposition assigns to
    the longitudinal part; the sampler instead models a locally uniform
    transverse wave, so its transverse parts are the full fields.  It gives
    the closed-form orbits that pin ``push_particle``.
    """

    def __init__(self, E: np.ndarray, B: np.ndarray) -> None:
        self._full = tuple(tuple(np.asarray(f, dtype=float).reshape(3).tolist()) for f in (E, B))

    def sample(self, x, t: float):
        return self._full, self._full

    def in_domain(self, x) -> bool:
        return True


def test_monopole_sampler_matches_point_profile():
    sampler = MonopoleSampler(0.7, np.array([1.0, 0.0, 0.0]), NAT)
    (E, B), (E_T, B_T) = sampler.sample((3.0, 0.0, 0.0), 0.0)
    assert B == point_magnetic_field(0.7, (2.0, 0.0, 0.0), NAT)
    assert E == E_T == B_T == (0.0, 0.0, 0.0)
    assert sampler.in_domain((1.0 + 1e-3, 0.0, 0.0))
    assert not sampler.in_domain((1.0 + 1e-9, 0.0, 0.0))


# --- trajectories ----------------------------------------------------------------


@pytest.mark.parametrize("model", ["classical", "quantum"])
def test_free_particle_goes_straight(model):
    sampler = UniformFieldSampler(np.zeros(3), np.zeros(3))
    p = particle(qe=1.0, qm=0.3, v=(0.01, 0.02, -0.005), x=(1.0, 2.0, 3.0))
    traj = push_particle(p, sampler, model, 0.1, 200, NAT)
    assert traj.termination is None
    expected = p.position[None] + traj.t[:, None] * p.velocity[None]
    assert np.max(np.abs(traj.x - expected)) < 1e-12
    assert np.max(np.abs(traj.v - p.velocity[None])) < 1e-14


def test_uniform_electric_field_gives_the_exact_parabola():
    E0 = 0.004
    sampler = UniformFieldSampler(E0 * X, np.zeros(3))
    p = particle(qe=1.0, v=0.01 * Y, mass=2.0)
    traj = push_particle(p, sampler, "classical", 0.05, 100, NAT)
    t = traj.t
    np.testing.assert_allclose(traj.x[:, 0], 0.5 * (E0 / 2.0) * t**2, atol=1e-14)
    np.testing.assert_allclose(traj.x[:, 1], 0.01 * t, atol=1e-14)


@pytest.mark.parametrize("model", ["classical", "quantum"])
def test_gyration_radius_and_period(model):
    B0, v0 = 0.02, 0.01
    sampler = UniformFieldSampler(np.zeros(3), B0 * Z)
    p = particle(qe=1.0, v=v0 * X)
    period = 2.0 * math.pi / B0
    steps = 2000
    traj = push_particle(p, sampler, model, period / steps, steps, NAT)
    assert traj.termination is None
    radius = v0 / B0
    center = p.position + radius * np.array([0.0, -1.0, 0.0])  # qe > 0 turns toward -y
    distances = np.linalg.norm(traj.x - center, axis=1)
    assert np.max(np.abs(distances - radius)) / radius < 1e-10
    assert np.linalg.norm(traj.x[-1] - traj.x[0]) / radius < 1e-8
    speeds = np.linalg.norm(traj.v, axis=1)
    assert np.max(np.abs(speeds - v0)) / v0 < 1e-12


def test_impulse_matches_integrated_force():
    B0 = 0.02
    sampler = UniformFieldSampler(np.zeros(3), B0 * Z)
    p = particle(qe=1.0, v=0.01 * X)
    period = 2.0 * math.pi / B0
    traj = push_particle(p, sampler, "classical", period / 2000, 1000, NAT)
    dp = p.mass * (traj.v[-1] - traj.v[0])
    impulse = np.array([simpson(traj.force[:, a], x=traj.t) for a in range(3)])
    assert np.max(np.abs(impulse - dp)) / np.max(np.abs(dp)) < 1e-8


def flyby_setup():
    sampler = MonopoleSampler(0.05, np.zeros(3), NAT)
    p = particle(qe=1.0, v=(0.05, 0.0, 0.0), x=(-2.0, 1.0, 0.0))
    normal = plane_normal(p.position - sampler.center, p.velocity)
    return sampler, p, normal


def monopole_cone(p, sampler, t):
    """Exact positions at times ``t`` of an electric charge passing a fixed monopole.

    The speed is constant, ``J = m r x v - (qe g / 4 pi) r_hat`` is conserved,
    ``r^2 = b^2 + v^2 (t - t*)^2``, and ``r_hat`` precesses about ``J`` by
    ``|J| / (m b v) atan(v (t - t*) / b)`` taken from 0 to t (Rodrigues rotation).
    """
    r0, v0 = p.position - sampler.center, p.velocity
    speed = np.linalg.norm(v0)
    rhat0 = r0 / np.linalg.norm(r0)
    J = p.mass * np.cross(r0, v0) - p.charges.qe * sampler.qm / (4.0 * math.pi) * rhat0
    Jhat = J / np.linalg.norm(J)
    t_star = -(r0 @ v0) / speed**2
    b = np.linalg.norm(r0 + v0 * t_star)
    rate = np.linalg.norm(J) / (p.mass * b * speed)
    phi = rate * (np.arctan(speed * (t - t_star) / b) - math.atan(-speed * t_star / b))
    rhat = (np.outer(np.cos(phi), rhat0) + np.outer(np.sin(phi), np.cross(Jhat, rhat0))
            + np.outer(1.0 - np.cos(phi), Jhat * (Jhat @ rhat0)))
    r = np.sqrt(b * b + speed**2 * (t - t_star) ** 2)
    return sampler.center + r[:, None] * rhat


def test_the_pusher_converges_at_fourth_order_to_the_monopole_cone():
    sampler, p, _ = flyby_setup()
    errors = []
    for dt in (3.2, 1.6, 0.8):
        traj = push_particle(p, sampler, "classical", dt, round(80.0 / dt), NAT)
        assert traj.termination is None
        errors.append(np.max(np.linalg.norm(traj.x - monopole_cone(p, sampler, traj.t), axis=1)))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(12.0 < ratio < 20.0 for ratio in ratios), (errors, ratios)


def test_classical_flyby_leaves_the_initial_plane():
    sampler, p, normal = flyby_setup()
    traj = push_particle(p, sampler, "classical", 0.05, 1600, NAT)
    assert traj.termination is None
    disp, _ = out_of_plane_component(traj, normal)
    ratio = np.max(np.abs(disp)) / in_plane_span(traj, normal)
    assert ratio > 1e-2


def test_quantum_flyby_goes_exactly_straight():
    sampler, p, normal = flyby_setup()
    traj = push_particle(p, sampler, "quantum", 0.05, 1600, NAT)
    assert traj.termination is None
    expected = p.position[None] + traj.t[:, None] * p.velocity[None]
    assert np.max(np.abs(traj.x - expected)) < 1e-10
    disp, force = out_of_plane_component(traj, normal)
    assert np.max(np.abs(disp)) < 1e-12
    assert np.max(np.abs(force)) < 1e-15


def test_trajectory_truncates_on_domain_exit():
    sampler = MonopoleSampler(0.05, np.zeros(3), NAT, r_min=0.5)
    p = particle(qe=0.0, qm=0.0, v=(0.05, 0.0, 0.0), x=(-2.0, 0.0, 0.0))
    traj = push_particle(p, sampler, "classical", 0.1, 1000, NAT)
    assert traj.termination == "left sampler domain"
    assert len(traj) < 1001
    assert np.linalg.norm(traj.x[-1]) > 0.5


def test_trajectory_truncates_on_speed_guard():
    sampler = UniformFieldSampler(5.0 * X, np.zeros(3))
    p = particle(qe=1.0)
    traj = push_particle(p, sampler, "classical", 0.01, 1000, NAT)
    assert traj.termination == "exceeded nonrelativistic speed guard"
    assert np.max(np.linalg.norm(traj.v, axis=1)) <= 0.1 * NAT.c + 1e-12


@pytest.mark.parametrize(
    "field,state,dt",
    [
        # the momentum overflows within the first step
        (1e308, particle(qe=1.0), 10.0),
        # the position overflows on step 16, long before the time would
        (0.0, particle(qe=1.0, v=(0.05, 0.0, 0.0), x=(1.79e308, 0.0, 0.0)), 1e306),
        # the time overflows on the second step
        (0.0, particle(qe=1.0), 1e308),
    ],
)
def test_trajectory_truncates_on_a_non_finite_state(field, state, dt):
    sampler = UniformFieldSampler(field * X, ZERO3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = push_particle(state, sampler, "classical", dt, 200, NAT)
    assert traj.termination == "non-finite state"
    assert len(traj) < 201
    for recorded in (traj.t, traj.x, traj.v, traj.force):
        assert np.all(np.isfinite(recorded))


def numpy_push(state, fields, dt, steps, units):
    """The RK4 stage loop on numpy arrays, with no guard: ``fields(x)`` gives
    the (E, B, E_c, B_c) arrays at ``x``."""
    qe, qm, c, eps0 = state.charges.qe, state.charges.qm, units.c, units.eps0

    def force(x, v):
        E, B, E_c, B_c = fields(x)
        return qe * E + (c * c * eps0 * qm) * B + np.cross(v, qe * B_c - (eps0 * qm) * E_c)

    m = state.mass
    xs, vs, forces = [state.position], [state.velocity], [force(state.position, state.velocity)]
    x, p = state.position.copy(), m * state.velocity
    for _ in range(steps):
        k1x, k1p = p / m, force(x, p / m)
        k2x = (p + 0.5 * dt * k1p) / m
        k2p = force(x + 0.5 * dt * k1x, k2x)
        k3x = (p + 0.5 * dt * k2p) / m
        k3p = force(x + 0.5 * dt * k2x, k3x)
        k4x = (p + dt * k3p) / m
        k4p = force(x + dt * k3x, k4x)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        xs.append(x)
        vs.append(p / m)
        forces.append(force(x, p / m))
    return np.array(xs), np.array(vs), np.array(forces)


def monopole_fields(qm, coupled, center=ZERO3):
    def fields(x):
        r = x - center
        B = qm * r / (4.0 * math.pi * np.linalg.norm(r) ** 3)
        return ZERO3, B, ZERO3, (B if coupled else ZERO3)
    return fields


def uniform_fields(E, B):
    return lambda x: (E, B, E, B)


C3 = UnitSystem(c=3.0, eps0=0.2)
E_C3, B_C3 = np.array([0.003, -0.002, 0.001]), np.array([0.0005, 0.001, -0.0002])
REFERENCE_CASES = {
    "flyby-classical": (MonopoleSampler(0.05, ZERO3, NAT), monopole_fields(0.05, True),
                        particle(qe=1.0, v=(0.05, 0.0, 0.0), x=(-2.0, 1.0, 0.0)),
                        "classical", 0.05, 1600, NAT),
    "flyby-quantum": (MonopoleSampler(0.05, ZERO3, NAT), monopole_fields(0.05, False),
                      particle(qe=1.0, v=(0.05, 0.0, 0.0), x=(-2.0, 1.0, 0.0)),
                      "quantum", 0.05, 1600, NAT),
    "uniform-E": (UniformFieldSampler(0.004 * X, ZERO3), uniform_fields(0.004 * X, ZERO3),
                  particle(qe=1.0, v=0.01 * Y, mass=2.0), "classical", 0.05, 100, NAT),
    "gyration": (UniformFieldSampler(ZERO3, 0.02 * Z), uniform_fields(ZERO3, 0.02 * Z),
                 particle(qe=1.0, v=0.01 * X), "classical", math.pi / 5.0, 500, NAT),
    "c3-eps0.2": (UniformFieldSampler(E_C3, B_C3), uniform_fields(E_C3, B_C3),
                  particle(qe=0.4, qm=1.5, v=(0.02, -0.05, 0.01), mass=3.0),
                  "classical", 0.1, 400, C3),
    "c3-eps0.2-monopole": (MonopoleSampler(0.3, (0.5, 0.0, 0.0), C3),
                           monopole_fields(0.3, True, center=np.array([0.5, 0.0, 0.0])),
                           particle(qe=0.7, qm=0.9, v=(0.1, 0.0, 0.02), x=(-2.0, 1.0, 0.0)),
                           "classical", 0.05, 800, C3),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_the_float_pusher_matches_the_numpy_stage_loop(case):
    sampler, fields, p, model, dt, steps, units = REFERENCE_CASES[case]
    traj = push_particle(p, sampler, model, dt, steps, units)
    assert traj.termination is None
    for got, want in zip((traj.x, traj.v, traj.force), numpy_push(p, fields, dt, steps, units)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_a_completed_push_samples_the_field_four_times_per_step_plus_two():
    # each recorded force is the next step's first stage; only the first step's
    # first stage is its own sample, since m v / m can round away from v
    sampler, p, _ = flyby_setup()
    calls, sample = [], sampler.sample
    sampler.sample = lambda x, t: calls.append(t) or sample(x, t)
    traj = push_particle(p, sampler, "classical", 0.05, 40, NAT)
    assert traj.termination is None
    assert len(calls) == 4 * 40 + 2


@pytest.mark.parametrize("model", ["classical", "quantum"])
def test_push_particle_builds_no_particle_state_per_stage(monkeypatch, model):
    # position, velocity and charges go straight to the force law
    sampler, p, _ = flyby_setup()
    original, built = ParticleState.__post_init__, []

    def spy(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ParticleState, "__post_init__", spy)
    traj = push_particle(p, sampler, model, 0.05, 20, NAT)
    assert len(traj) == 21
    assert len(built) == 0


@pytest.mark.parametrize("mass", [0.0, -1.0, math.nan])
def test_particle_state_rejects_a_mass_that_is_not_positive(mass):
    with pytest.raises(ValueError, match="mass must be positive"):
        particle(mass=mass)


def test_push_particle_rejects_bad_arguments():
    sampler = UniformFieldSampler(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        push_particle(particle(), sampler, "semi-classical", 0.1, 10, NAT)
    with pytest.raises(ValueError):
        push_particle(particle(), sampler, "classical", -0.1, 10, NAT)
    # a start the sampler excludes; at 1e-110 the first field would divide by zero
    monopole = MonopoleSampler(0.05, np.zeros(3), NAT)
    for x in ((1e-110, 0.0, 0.0), (1e-7, 0.0, 0.0)):
        with pytest.raises(ValueError, match="outside the sampler domain"):
            push_particle(particle(x=x, v=(0.0, 0.05, 0.0)), monopole, "quantum", 0.05, 10, NAT)


def test_a_field_that_divides_by_zero_ends_the_push_as_a_non_finite_state():
    # numpy would give an inf or nan field where Python floats raise
    class Singular(UniformFieldSampler):
        def sample(self, x, t):
            if t > 0.25:
                raise ZeroDivisionError("float division by zero")
            return super().sample(x, t)

    traj = push_particle(particle(v=(0.01, 0.0, 0.0)), Singular(ZERO3, ZERO3), "classical",
                         0.1, 10, NAT)
    assert traj.termination == "non-finite state"
    assert len(traj) == 3  # t = 0.3 is the first stage that raises
    assert np.all(np.isfinite(traj.force))


# --- plane bookkeeping ----------------------------------------------------------


def test_plane_normal_direction_and_degeneracy():
    n = plane_normal(X, Y)
    np.testing.assert_allclose(n, Z, atol=1e-15)
    with pytest.raises(ValueError, match="do not span a plane"):
        plane_normal(X, 2.0 * X)
    with pytest.raises(ValueError, match="do not span a plane"):
        plane_normal(np.zeros(3), Y)


def test_planar_orbit_has_no_out_of_plane_drift():
    B0 = 0.02
    sampler = UniformFieldSampler(np.zeros(3), B0 * Z)
    p = particle(qe=1.0, v=0.01 * X)
    period = 2.0 * math.pi / B0
    traj = push_particle(p, sampler, "classical", period / 500, 500, NAT)
    disp, _ = out_of_plane_component(traj, Z)
    assert np.max(np.abs(disp)) < 1e-12
    # the orbit diameter is the in-plane span
    assert in_plane_span(traj, Z) == pytest.approx(2.0 * 0.01 / B0, rel=1e-6)


def test_out_of_plane_rejects_zero_normal():
    traj = Trajectory(
        t=np.zeros(1),
        x=np.zeros((1, 3)),
        v=np.zeros((1, 3)),
        force=np.zeros((1, 3)),
    )
    with pytest.raises(ValueError, match="plane normal must be nonzero"):
        out_of_plane_component(traj, np.zeros(3))
    with pytest.raises(ValueError, match="plane normal must be nonzero"):
        in_plane_span(traj, np.zeros(3))


FIELDS = ("t", "x", "y", "z", "vx", "vy", "vz", "Fx", "Fy", "Fz", "out_of_plane_displacement")


def _npy_round_trip(traj, normal, path):
    disp, _ = out_of_plane_component(traj, normal)
    traj.to_npy(path, disp)
    table = np.load(path, allow_pickle=False)
    assert table.dtype.names == FIELDS
    assert all(table.dtype[name] == np.dtype("<f8") for name in FIELDS)
    assert table.shape == (len(traj),)
    np.testing.assert_array_equal(table["t"], traj.t)
    for names, columns in ((("x", "y", "z"), traj.x), (("vx", "vy", "vz"), traj.v),
                           (("Fx", "Fy", "Fz"), traj.force)):
        for name, column in zip(names, columns.T):
            np.testing.assert_array_equal(table[name], column)
    np.testing.assert_array_equal(table["out_of_plane_displacement"], disp)


def test_trajectory_npy_round_trip(tmp_path):
    sampler, p, normal = flyby_setup()
    traj = push_particle(p, sampler, "classical", 0.05, 50, NAT)
    assert len(traj) == 51
    _npy_round_trip(traj, normal, tmp_path / "trajectory.npy")


def test_a_truncated_trajectory_writes_its_recorded_rows(tmp_path):
    sampler = UniformFieldSampler(5.0 * X, np.zeros(3))
    traj = push_particle(particle(qe=1.0, v=(0.0, 0.01, 0.0)), sampler, "classical", 0.01, 1000, NAT)
    assert traj.termination == "exceeded nonrelativistic speed guard"
    assert 1 < len(traj) < 1001
    _npy_round_trip(traj, Z, tmp_path / "trajectory.npy")
