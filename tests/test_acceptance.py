"""Acceptance gate: one test per headline claim, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance here is a hard bound, not a typical value.

Criteria 2 to 6 and the drift part of 7 take their verdict from the CLI
scenario that checks the claim: each runs ``dualfield run`` on a config under
``tests/acceptance/`` (criteria 4 and 5 on configs written from
``coulomb_cases``), asserts exit 0 and reads ``summary.txt``, so a user's
``dualfield run tests/acceptance/<file>.ini`` reproduces the gate's numbers.
What stays here are the sensitivity floors that are library calls on
literals (criteria 1, 5 and 7) and the claims no scenario checks (the spin
signs of criterion 7 and criterion 8).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from dualfield import cli
from dualfield.dualcore import (
    ChargePair,
    FieldVecPair,
    PotentialPair,
    UnitSystem,
    inverse_rotate_fields,
    rotate_charges,
    rotate_fields,
    rotate_potentials,
)
from dualfield.dynamics import (
    Trajectory,
    classical_lorentz_force,
    in_plane_span,
    out_of_plane_component,
    quantum_lorentz_force,
)
from dualfield.fields import Grid3, PointSource
from dualfield.modes import (
    ModeAmplitudeSet,
    ModeSet,
    _pair_energies,
    _sector_weights,
    spin_observable,
    synthesize_potentials,
)
from test_cli import read_summary
from test_dynamics import flyby_setup, monopole_cone

NAT = UnitSystem.natural()
CONFIGS = Path(__file__).parent / "acceptance"


def announce(number, name, detail):
    print(f"\nACCEPTANCE {number} {name}: PASS ({detail})", flush=True)


def scenario(config, out, *overrides):
    """``summary.txt`` of ``dualfield run config`` with each ``section.key=value``
    of ``overrides``, which must exit 0."""
    flags = [arg for item in overrides for arg in ("--override", item)]
    assert cli.main(["run", str(config), "--out", str(out)] + flags) == 0
    summary = read_summary(out)
    assert summary["status"] == "pass"
    return summary


def write_sources(path, name, sources):
    """A ``name`` scenario config holding ``sources`` as ``[source.N]`` sections."""
    sections = [f"[scenario]\nname = {name}\n"]
    for i, s in enumerate(sources, 1):
        sections.append(f"[source.{i}]\nposition = {' '.join(map(repr, s.position.tolist()))}\n"
                        f"qe = {s.charges.qe!r}\nqm = {s.charges.qm!r}\nsigma = {s.sigma!r}\n")
    path.write_text("\n".join(sections))
    return path


def test_criterion_1_dual_rotation_algebra():
    worst, floor = 0.0, math.inf
    for units in (NAT, UnitSystem(c=3.0, eps0=0.2)):
        c = units.c
        residuals = cli.rotation_property_residuals(count=10000, seed=2026, units=units)
        assert len(residuals) == 12
        assert max(residuals.values()) <= 1e-12, (units, residuals)
        worst = max(worst, *residuals.values())
        # sensitivity: two rotations against one whose angle is off by 1e-6
        rng = np.random.default_rng(1)
        fp = FieldVecPair(rng.normal(size=(3, 100)), rng.normal(size=(3, 100)) / c)
        twice = rotate_fields(rotate_fields(fp, 0.7, units), 1.9, units)
        direct = rotate_fields(fp, 0.7 + 1.9 + 1e-6, units)
        off = float(np.max(np.abs(np.concatenate([twice.E - direct.E, c * (twice.B - direct.B)])))
                    / np.max(np.abs(np.concatenate([direct.E, c * direct.B]))))
        assert off > 1e-7, (units, off)
        floor = min(floor, off)
    announce(1, "dual-rotation-algebra", "12 properties x 10000 inputs, units c=1 eps0=1 and "
             f"c=3 eps0=0.2, max {worst:.2e} <= 1e-12; angle off by 1e-6 {floor:.2e} > 1e-7")


# natural units, and a system where c and eps0 are not 1, so that a misplaced
# factor of either shows
UNIT_SYSTEMS = {"c=1 eps0=1": (), "c=3 eps0=0.2": ("units.c=3", "units.eps0=0.2")}


def test_criterion_2_representation_equivalence(tmp_path):
    worst, floor = 0.0, math.inf
    for system, overrides in UNIT_SYSTEMS.items():
        for setup in ("free", "shared", "independent"):
            out = tmp_path / f"{setup} {system}"
            summary = scenario(CONFIGS / f"covariance-{setup}.ini", out, *overrides)
            residuals = [float(v) for k, v in summary.items()
                         if k.startswith("covariance_residual_theta_") and not k.endswith("_limit")]
            assert len(residuals) == 4
            assert max(residuals) < 1e-13, (system, setup, residuals)
            worst = max(worst, *residuals)
            if setup != "free":  # rotating the fields but not the charges breaks covariance
                defect = float(summary["fields_only_rotation_defect"])
                assert defect > 1e-5, (system, setup, defect)
                floor = min(floor, defect)
    announce(2, "representation-equivalence",
             "32^3 grid, 100 steps, 4 angles, 3 source setups, "
             f"units {' and '.join(UNIT_SYSTEMS)}, max {worst:.2e} < 1e-13; "
             f"fields rotated without charges {floor:.2e} > 1e-5")


def test_criterion_3_noether_triviality(tmp_path):
    charge = current = 0.0
    violating = math.inf
    for system, overrides in UNIT_SYSTEMS.items():
        summary = scenario(CONFIGS / "noether-zero.ini", tmp_path / system, *overrides)
        assert summary["config_count"] == "50"
        charge = max(charge, float(summary["noether_charge_rel"]))
        current = max(current, float(summary["noether_current_rel"]))
        violating = min(violating, float(summary["violating_charge_rel"]))
        assert charge < 1e-13 and current < 1e-13, (system, summary)
        assert violating > 1e-3, (system, summary)
    announce(3, "noether-triviality",
             f"50 configs, units {' and '.join(UNIT_SYSTEMS)}: charge {charge:.2e}, "
             f"current {current:.2e} < 1e-13; violating config {violating:.2e} > 1e-3")


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
    cases = [("two unit electric charges", unit_pair)]
    for label, angle, n in [
        ("pure magnetic pair", math.pi / 2, 2),
        ("mixed-ratio pair", 0.55, 2),
        ("three sources", 0.2, 3),
        ("four sources", 1.1, 4),
    ]:
        cases.append((label, _random_shared_ratio_sources(rng, n, angle)))
    return cases


def coulomb_summaries(tmp_path, name):
    """``(system, eps0, label, summary)`` of the ``name`` scenario for each of
    ``coulomb_cases`` in each of ``UNIT_SYSTEMS``."""
    runs = []
    for system, overrides in UNIT_SYSTEMS.items():
        eps0 = float(dict(item.split("=") for item in overrides).get("units.eps0", 1.0))
        for i, (label, sources) in enumerate(coulomb_cases()):
            config = write_sources(tmp_path / f"{i}.ini", name, sources)
            runs.append((system, eps0, label, scenario(config, tmp_path / f"{i} {system}",
                                                       *overrides)))
    return runs


def test_criterion_4_coulomb_equivalence(tmp_path):
    worst = 0.0
    unit_values = []
    for system, eps0, label, summary in coulomb_summaries(tmp_path, "coulomb-equivalence"):
        rel = float(summary["coulomb_rel_difference"])
        assert rel < 0.01, (system, label, summary)
        worst = max(worst, rel)
        if label == "two unit electric charges":
            unit_values.append(float(summary["energy_real"]))
            assert unit_values[-1] == pytest.approx(1.0 / (4.0 * math.pi * eps0), rel=1e-12)
    announce(4, "coulomb-equivalence",
             f"5 configs (2-4 sources), units {' and '.join(UNIT_SYSTEMS)}, worst {worst:.2%} "
             f"< 1%; unit pair {' and '.join(f'{v:.7f}' for v in unit_values)} = 1/(4*pi*eps0)")


def test_criterion_5_two_field_no_cross_interaction(tmp_path):
    worst = 0.0
    for system, _, label, summary in coulomb_summaries(tmp_path, "two-field-cross"):
        assert float(summary["cross_term"]) == 0.0, (system, label)  # the off-diagonal block
        rel = max(float(summary["ee_rel_difference"]), float(summary["mm_rel_difference"]))
        assert rel < 0.01, (system, label, summary)
        worst = max(worst, rel)
        if label == "two unit electric charges" and system == "c=1 eps0=1":
            unit_energy = float(summary["energy_ee_reference"])
    # sensitivity: the same contraction with the one-field sector matrix at
    # pi/4 gives a mixed pair half the energy of two unit charges as em
    mixed = [
        PointSource(np.zeros(3), np.zeros(3), ChargePair(1.0, 0.0), 0.15),
        PointSource(np.array([1.0, 0.0, 0.0]), np.zeros(3),
                    ChargePair(0.0, 1.0 / (NAT.c * NAT.eps0)), 0.15),
    ]
    sources, ms = cli.load_config(
        str(write_sources(tmp_path / "mixed.ini", "two-field-cross", mixed)), [], None).lattice()
    u = np.asarray(_sector_weights(math.pi / 4))
    _, _, em_mixed = _pair_energies(sources, np.outer(u, u), ms, NAT)
    floor = em_mixed / (0.5 * unit_energy)
    assert abs(floor - 1.0) < 0.01, floor
    announce(5, "two-field-no-cross-interaction",
             f"computed em term 0.0 for all 5 configs in units {' and '.join(UNIT_SYSTEMS)}; "
             f"ee and mm within {worst:.2%} of pairwise; a mixed pair at pi/4 gives em "
             f"{floor:.4f} of half the unit-pair energy (c=1 eps0=1)")


def _out_of_plane_ratio(trajectory, normal):
    disp, _ = out_of_plane_component(trajectory, normal)
    return float(np.max(np.abs(disp)) / in_plane_span(trajectory, normal))


def test_criterion_6_out_of_plane_discriminator(tmp_path):
    summary = scenario(CONFIGS / "monopole-flyby.ini", tmp_path)
    classical = float(summary["classical_out_of_plane_ratio"])
    quantum = float(summary["quantum_out_of_plane_ratio"])
    sampler, particle, normal = flyby_setup()
    t = np.load(tmp_path / "trajectory_classical.npy")["t"]
    cone_x = monopole_cone(particle, sampler, t)
    unused = np.zeros_like(cone_x)  # the ratio reads positions only
    cone = _out_of_plane_ratio(Trajectory(t, cone_x, unused, unused), normal)
    assert classical == pytest.approx(cone, rel=1e-10, abs=0.0)
    assert classical > 1e-2
    assert quantum < 1e-8
    announce(6, "out-of-plane-discriminator",
             f"classical {classical:.12f} = exact cone {cone:.12f} "
             f"to 1e-10, > 1e-2; quantum {quantum:.1e} < 1e-8")


def _spin_from_modes(amp, theta, grid):
    return spin_observable(*synthesize_potentials(amp, theta, grid, NAT), grid, NAT)


def test_criterion_7_helicity_and_spin(tmp_path):
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

    drift = 0.0
    for system, overrides in UNIT_SYSTEMS.items():
        summary = scenario(CONFIGS / "helicity-conservation.ini", tmp_path / system, *overrides)
        drift = max(drift, float(summary["helicity_drift"]))
        assert drift < 1e-13, (system, summary)
    announce(7, "helicity-and-spin",
             f"signs +/-{w**2:.2f} exact, linear zero, rotation invariance "
             f"{worst_rotation:.1e} <= 1e-12 (A rotated without C {rotation_floor:.2e} > 1e-2), "
             f"free-evolution drift {drift:.1e} < 1e-13 in units {' and '.join(UNIT_SYSTEMS)}")


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
