"""Acceptance gate: one test per headline claim, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance here is a hard bound, not a typical value.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from dualfield.cli import rotation_property_residuals
from dualfield.dualcore import (
    ChargePair,
    FieldVecPair,
    PotentialPair,
    UnitSystem,
    field_quadratic_form,
    inverse_rotate_fields,
    rotate_charges,
    rotate_fields,
    rotate_potentials,
)
from dualfield.dynamics import (
    MonopoleSampler,
    ParticleState,
    classical_lorentz_force,
    in_plane_span,
    out_of_plane_component,
    plane_normal,
    push_particle,
    quantum_lorentz_force,
)
from dualfield.fields import (
    Grid3,
    PointSource,
    coulomb_field_from_density,
    deposit_sources,
)
from dualfield.maxwell import (
    EMState,
    dual_covariance_residual,
    rotate_em_state,
    step_symmetric_maxwell,
)
from dualfield.modes import (
    ModeAmplitudeSet,
    ModeSet,
    _pair_energies,
    _sector_weights,
    coulomb_energy_real,
    coulomb_mode_set,
    free_evolve_modes,
    noether_dual_charge,
    noether_dual_current,
    spin_observable,
    symmetric_charge_energy,
    synthesize_potentials,
    two_field_energy,
)
from test_dynamics import monopole_cone

NAT = UnitSystem.natural()
THETAS = (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 2)


def announce(number, name, detail):
    print(f"\nACCEPTANCE {number} {name}: PASS ({detail})", flush=True)


def random_wave_state(grid, rng, sources=()):
    data = np.zeros((6,) + grid.shape)
    mesh = np.stack(np.meshgrid(*grid.axes(), indexing="ij"))
    for _ in range(5):
        kint = rng.integers(-3, 4, size=3)
        eps = rng.normal(size=3)
        phase = np.tensordot(kint.astype(float), mesh, axes=1) + rng.uniform(0, 2 * math.pi)
        data[:3] += eps[:, None, None, None] * np.cos(phase)
        data[3:] += np.cross(kint, eps)[:, None, None, None] * np.sin(phase) * 0.3
    fields = FieldVecPair(data[:3], data[3:])
    if sources:
        rho_e, rho_m, _, _ = deposit_sources(list(sources), grid)
        fields = FieldVecPair(
            fields.E + coulomb_field_from_density(rho_e, 1.0 / NAT.eps0).data,
            fields.B + coulomb_field_from_density(rho_m, 1.0).data,
        )
    return EMState(0.0, grid, fields, list(sources))


def test_criterion_1_dual_rotation_algebra():
    residuals = rotation_property_residuals(count=10000, seed=2026, units=NAT)
    assert len(residuals) == 12
    worst = max(residuals.values())
    assert worst <= 1e-12, residuals
    # sensitivity: two rotations against one whose angle is off by 1e-6
    rng = np.random.default_rng(1)
    fp = FieldVecPair(rng.normal(size=(3, 100)), rng.normal(size=(3, 100)))
    twice = rotate_fields(rotate_fields(fp, 0.7, NAT), 1.9, NAT)
    direct = rotate_fields(fp, 0.7 + 1.9 + 1e-6, NAT)
    floor = float(np.max(np.abs(np.concatenate([twice.E - direct.E, twice.B - direct.B])))
                  / np.max(np.abs(np.concatenate([direct.E, direct.B]))))
    assert floor > 1e-7
    announce(1, "dual-rotation-algebra", f"12 properties x 10000 inputs, max {worst:.2e} <= 1e-12; "
             f"angle off by 1e-6 {floor:.2e} > 1e-7")


def test_criterion_2_representation_equivalence():
    grid = Grid3((32, 32, 32), (2 * math.pi,) * 3)
    rng = np.random.default_rng(5)
    dt, steps = 0.005, 100

    shared = [
        PointSource(np.array([3.0, 3.0, 3.0]), np.array([0.05, 0.0, 0.0]),
                    ChargePair(1.0, 0.4), 0.5),
        PointSource(np.array([1.5, 4.2, 2.0]), np.array([0.0, -0.05, 0.02]),
                    ChargePair(-0.7, -0.28), 0.5),
    ]
    mixed = [
        PointSource(np.array([3.0, 3.0, 3.0]), np.array([0.05, 0.0, 0.0]),
                    ChargePair(1.0, 0.0), 0.5),
        PointSource(np.array([1.5, 4.2, 2.0]), np.array([0.0, -0.05, 0.02]),
                    ChargePair(0.0, 0.6), 0.5),
    ]
    cases = [
        ("source-free", random_wave_state(grid, rng), True),
        ("shared-ratio sources", random_wave_state(grid, rng, shared), True),
        ("independent-ratio sources", random_wave_state(grid, rng, mixed), False),
    ]
    worst = 0.0
    for label, state, require in cases:
        for theta in THETAS:
            residual = dual_covariance_residual(
                state, theta, steps, dt, NAT, require_shared_ratio=require
            )
            assert residual < 1e-13, (label, theta, residual)
            worst = max(worst, residual)
    # sensitivity: rotating the fields but not the charges breaks covariance
    _, state, _ = cases[1]
    evolved = step_symmetric_maxwell(state, dt, NAT, steps)
    floor = math.inf
    for theta in THETAS:
        fields_only = replace(state, fields=inverse_rotate_fields(state.fields, theta, NAT))
        first = step_symmetric_maxwell(fields_only, dt, NAT, steps).fields
        last = rotate_em_state(evolved, theta, NAT).fields
        diff = FieldVecPair(first.E - last.E, first.B - last.B)
        defect = field_quadratic_form(diff, NAT) / field_quadratic_form(last, NAT)
        floor = min(floor, math.sqrt(defect))
    assert floor > 1e-5
    announce(2, "representation-equivalence",
             f"32^3 grid, {steps} steps, 4 angles, 3 source setups, max {worst:.2e} < 1e-13; "
             f"fields rotated without charges {floor:.2e} > 1e-5")


def test_criterion_3_noether_triviality():
    grid = Grid3((16, 16, 16), (2 * math.pi,) * 3)
    ms = ModeSet.from_grid(grid, kmax=3.5)
    rng = np.random.default_rng(77)
    worst_charge = worst_current = 0.0
    for _ in range(50):
        a = rng.normal(size=(ms.n_modes, 4)) + 1j * rng.normal(size=(ms.n_modes, 4))
        theta = rng.uniform(0.0, 2 * math.pi)
        pp, dpp = synthesize_potentials(ModeAmplitudeSet(ms, a), theta, grid, NAT)
        value, scale = noether_dual_charge(pp, dpp, grid, NAT)
        worst_charge = max(worst_charge, abs(value) / scale)
        f, f_scale = noether_dual_current(pp, dpp, grid, NAT)
        worst_current = max(worst_current, float(np.max(np.abs(f)) / np.max(f_scale)))
    assert worst_charge < 1e-13
    assert worst_current < 1e-13

    a1 = rng.normal(size=(ms.n_modes, 4)) + 1j * rng.normal(size=(ms.n_modes, 4))
    a2 = rng.normal(size=(ms.n_modes, 4)) + 1j * rng.normal(size=(ms.n_modes, 4))
    pp1, dpp1 = synthesize_potentials(ModeAmplitudeSet(ms, a1), 0.0, grid, NAT)
    pp2, dpp2 = synthesize_potentials(ModeAmplitudeSet(ms, a2), 0.0, grid, NAT)
    broken = PotentialPair(pp1.A, NAT.c * pp2.A)
    broken_dt = PotentialPair(dpp1.A, NAT.c * dpp2.A)
    value, scale = noether_dual_charge(broken, broken_dt, grid, NAT)
    sensitivity = abs(value) / scale
    assert sensitivity > 1e-3
    announce(3, "noether-triviality",
             f"50 configs: charge {worst_charge:.2e}, current {worst_current:.2e} < 1e-13; "
             f"violating config {sensitivity:.2e} > 1e-3")


def _random_shared_ratio_sources(rng, n_sources, ratio_angle):
    positions = []
    while len(positions) < n_sources:
        cand = rng.uniform(-1.5, 1.5, size=3)
        if all(np.linalg.norm(cand - p) > 0.9 for p in positions):
            positions.append(cand)
    sources = []
    for pos in positions:
        t = rng.uniform(0.4, 1.2) * rng.choice([-1.0, 1.0])
        charges = ChargePair(t * math.cos(ratio_angle), t * math.sin(ratio_angle))
        sources.append(PointSource(pos, np.zeros(3), charges, 0.15))
    return sources


def coulomb_cases():
    rng = np.random.default_rng(11)
    unit_pair = [
        PointSource(np.zeros(3), np.zeros(3), ChargePair(1.0, 0.0), 0.15),
        PointSource(np.array([1.0, 0.0, 0.0]), np.zeros(3), ChargePair(1.0, 0.0), 0.15),
    ]
    cases = [("two unit electric charges", unit_pair, 0.0)]
    for label, angle, n in [
        ("pure magnetic pair", math.pi / 2, 2),
        ("mixed-ratio pair", 0.55, 2),
        ("three sources", 0.2, 3),
        ("four sources", 1.1, 4),
    ]:
        cases.append((label, _random_shared_ratio_sources(rng, n, angle), angle))
    return cases


def test_criterion_4_coulomb_equivalence():
    worst = 0.0
    unit_value = None
    for label, sources, theta in coulomb_cases():
        real = coulomb_energy_real(sources, NAT)
        ms = coulomb_mode_set(sources)
        mode = symmetric_charge_energy(sources, theta, ms, NAT)
        rel = abs(mode - real) / abs(real)
        assert rel < 0.01, (label, mode, real)
        worst = max(worst, rel)
        if label == "two unit electric charges":
            unit_value = real
            assert real == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)
    announce(4, "coulomb-equivalence",
             f"5 configs (2-4 sources), worst {worst:.2%} < 1%; "
             f"unit pair {unit_value:.7f} = 1/(4*pi)")


def test_criterion_5_two_field_no_cross_interaction():
    worst = 0.0
    cases = coulomb_cases()
    for label, sources, _theta in cases:
        ee, mm, em = two_field_energy(sources, coulomb_mode_set(sources), NAT)
        assert em == 0.0, label  # the computed off-diagonal block, exactly
        real = coulomb_energy_real(sources, NAT)
        rel = abs((ee + mm) - real) / abs(real)
        assert rel < 0.01, (label, ee, mm, real)
        worst = max(worst, rel)
    # sensitivity: the same contraction with the one-field sector matrix at
    # pi/4 gives a mixed pair half the energy of two unit charges as em
    mixed = [
        PointSource(np.zeros(3), np.zeros(3), ChargePair(1.0, 0.0), 0.15),
        PointSource(np.array([1.0, 0.0, 0.0]), np.zeros(3), ChargePair(0.0, 1.0), 0.15),
    ]
    u = np.asarray(_sector_weights(math.pi / 4))
    _, _, em_mixed = _pair_energies(mixed, np.outer(u, u), coulomb_mode_set(mixed), NAT)
    floor = em_mixed / (0.5 * coulomb_energy_real(cases[0][1], NAT))
    assert abs(floor - 1.0) < 0.01, floor
    announce(5, "two-field-no-cross-interaction",
             f"computed em term 0.0 for all 5 configs; ee+mm within {worst:.2%} of pairwise; "
             f"a mixed pair at pi/4 gives em {floor:.4f} of half the unit-pair energy")


def test_criterion_6_out_of_plane_discriminator():
    sampler = MonopoleSampler(0.05, np.zeros(3), NAT)
    particle = ParticleState(
        np.array([-2.0, 1.0, 0.0]), np.array([0.05, 0.0, 0.0]), ChargePair(1.0, 0.0), 1.0
    )
    normal = plane_normal(particle.position - sampler.center, particle.velocity)
    paths = {model: push_particle(particle, sampler, model, 0.05, 1600, NAT)
             for model in ("classical", "quantum")}
    classical = paths["classical"]
    paths["cone"] = replace(classical, x=monopole_cone(particle, sampler, classical.t))
    ratios = {name: _out_of_plane_ratio(path, normal) for name, path in paths.items()}
    assert ratios["classical"] == pytest.approx(ratios["cone"], rel=1e-10, abs=0.0)
    assert ratios["classical"] > 1e-2
    assert ratios["quantum"] < 1e-8
    announce(6, "out-of-plane-discriminator",
             f"classical {ratios['classical']:.12f} = exact cone {ratios['cone']:.12f} "
             f"to 1e-10, > 1e-2; quantum {ratios['quantum']:.1e} < 1e-8")


def _out_of_plane_ratio(trajectory, normal):
    disp, _ = out_of_plane_component(trajectory, normal)
    return float(np.max(np.abs(disp)) / in_plane_span(trajectory, normal))


def _spin_from_modes(amp, theta, grid):
    return spin_observable(*synthesize_potentials(amp, theta, grid, NAT), grid, NAT)


def test_criterion_7_helicity_and_spin():
    grid = Grid3((16, 16, 16), (2 * math.pi,) * 3)
    dk = 1.0
    w = 0.8

    def helicity_amp(sign):
        ms = ModeSet.from_kvecs(np.array([[1.0, 0.0, 0.0]]), dk=dk)
        a = np.zeros((1, 4), dtype=complex)
        a[0, 1] = w / math.sqrt(2.0)
        a[0, 2] = sign * 1j * w / math.sqrt(2.0)
        return ModeAmplitudeSet(ms, a), ms

    amp_plus, ms = helicity_amp(+1.0)
    S_plus = _spin_from_modes(amp_plus, 0.3, grid)
    np.testing.assert_allclose(S_plus, w**2 * ms.khat[0], rtol=1e-12, atol=1e-14)
    amp_minus, _ = helicity_amp(-1.0)
    S_minus = _spin_from_modes(amp_minus, 0.3, grid)
    np.testing.assert_allclose(S_minus, -(w**2) * ms.khat[0], rtol=1e-12, atol=1e-14)

    linear = ModeAmplitudeSet(ms, np.array([[0.0, w, 0.0, 0.0]], dtype=complex))
    S_linear = _spin_from_modes(linear, 0.3, grid)
    assert np.max(np.abs(S_linear)) < 1e-14

    pp, dpp = synthesize_potentials(amp_plus, 0.3, grid, NAT)
    S = spin_observable(pp, dpp, grid, NAT)
    worst_rotation = 0.0
    rotation_floor = math.inf  # sensitivity: rotating A but not C changes the spin
    for phi in (0.4, math.pi / 2, 2.0):
        rot, drot = rotate_potentials(pp, phi, NAT), rotate_potentials(dpp, phi, NAT)
        S_rot = spin_observable(rot, drot, grid, NAT)
        worst_rotation = max(worst_rotation, float(np.max(np.abs(S_rot - S)) / np.max(np.abs(S))))
        S_half = spin_observable(PotentialPair(rot.A, pp.C), PotentialPair(drot.A, dpp.C),
                                 grid, NAT)
        rotation_floor = min(rotation_floor,
                             float(np.max(np.abs(S_half - S)) / np.max(np.abs(S))))
    assert worst_rotation < 1e-12
    assert rotation_floor > 1e-2

    ms_many = ModeSet.from_grid(grid, kmax=2.5)
    rng = np.random.default_rng(9)
    a = np.zeros((ms_many.n_modes, 4), dtype=complex)
    a[:, 1:3] = rng.normal(size=(ms_many.n_modes, 2)) + 1j * rng.normal(size=(ms_many.n_modes, 2))
    amp = ModeAmplitudeSet(ms_many, a)
    S0 = _spin_from_modes(amp, 0.5, grid)
    h0 = float(np.linalg.norm(S0))
    drift = 0.0
    for t in (0.9, 3.7, 12.0):
        S_t = _spin_from_modes(free_evolve_modes(amp, t, NAT), 0.5, grid)
        drift = max(drift, abs(float(np.linalg.norm(S_t)) - h0) / h0)
    assert drift < 1e-13
    announce(7, "helicity-and-spin",
             f"signs +/-{w**2:.2f} exact, linear zero, rotation invariance "
             f"{worst_rotation:.1e} <= 1e-12 (A rotated without C {rotation_floor:.2e} > 1e-2), "
             f"free-evolution drift {drift:.1e} < 1e-13")


def test_criterion_8_force_models():
    rng = np.random.default_rng(21)
    worst_invariance = 0.0
    floor = math.inf  # sensitivity: rotating the charges but not the fields changes the force
    for _ in range(200):
        fields = FieldVecPair(rng.normal(size=3), rng.normal(size=3))
        v = rng.normal(size=3) * 0.1
        charges = ChargePair(rng.normal(), rng.normal())

        quantum = quantum_lorentz_force(v, charges, fields, fields, NAT)
        classical = classical_lorentz_force(v, charges, fields, NAT)
        np.testing.assert_array_equal(quantum, classical)

        theta = rng.uniform(0.0, 2 * math.pi)
        fp = inverse_rotate_fields(
            FieldVecPair(fields.E.reshape(3, 1), fields.B.reshape(3, 1)), theta, NAT
        )
        force_rot = classical_lorentz_force(
            v, rotate_charges(charges, theta, NAT), FieldVecPair(fp.E[:, 0], fp.B[:, 0]), NAT
        )
        scale = max(float(np.max(np.abs(classical))), 1e-30)
        worst_invariance = max(
            worst_invariance, float(np.max(np.abs(force_rot - classical)) / scale)
        )
        force_half = classical_lorentz_force(v, rotate_charges(charges, theta, NAT), fields, NAT)
        floor = min(floor, float(np.max(np.abs(force_half - classical)) / scale))
    assert worst_invariance <= 1e-12
    assert floor > 1e-4
    announce(8, "force-models",
             f"quantum == classical bitwise on transverse fields (200 draws); "
             f"dual invariance {worst_invariance:.1e} <= 1e-12 "
             f"(charges rotated without fields {floor:.2e} > 1e-4)")
