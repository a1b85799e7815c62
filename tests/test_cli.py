"""End-to-end runs of the scenario command line."""

import ast
import contextlib
import inspect
import io
import math
import textwrap
import warnings

import numpy as np
import pytest

from dualfield import cli, fields, maxwell, modes
from dualfield.dualcore import (
    ChargePair,
    FieldVecPair,
    PotentialPair,
    UnitSystem,
    asymmetrizing_angle,
    charge_norm,
    field_quadratic_form,
    inverse_rotate_fields,
    potential_quadratic_form,
    rotate_charges,
    rotate_fields,
    rotate_potentials,
)
from dualfield.modes import noether_dual_current, spin_observable, synthesize_potentials

BASE = {
    "rotation": """
        [scenario]
        name = rotation-properties
        seed = 3
        [sweep]
        count = 200
        """,
    "covariance": """
        [scenario]
        name = dual-covariance
        [grid]
        n = 16
        [rotation]
        thetas = 0.7853981633974483
        [evolution]
        dt = 0.005
        steps = 10
        [source.1]
        position = 3.0 3.0 3.0
        velocity = 0.05 0 0
        qe = 1.0
        qm = 0.5
        sigma = 0.7853981633974483
        [source.2]
        position = 1.5 4.0 2.0
        velocity = 0 -0.05 0
        qe = -1.0
        qm = -0.5
        sigma = 0.7853981633974483
        """,
    "coulomb": """
        [scenario]
        name = coulomb-equivalence
        [source.1]
        position = 0 0 0
        qe = 1.0
        qm = 0.5
        sigma = auto
        [source.2]
        position = 1.5 0 0
        qe = -1.0
        qm = -0.5
        sigma = auto
        """,
    "cross": """
        [scenario]
        name = two-field-cross
        [source.1]
        position = 0 0 0
        qe = 1.0
        qm = 0.3
        sigma = auto
        [source.2]
        position = 1.5 0 0
        qe = -0.4
        qm = 0.8
        sigma = auto
        """,
    "noether": """
        [scenario]
        name = noether-zero
        [sweep]
        count = 2
        """,
    "helicity": """
        [scenario]
        name = helicity-conservation
        [evolution]
        t_final = 1.0
        samples = 3
        """,
    "flyby": """
        [scenario]
        name = monopole-flyby
        """,
}


def write_cfg(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_summary(outdir):
    lines = (outdir / "summary.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines)


def run_with(tmp_path, key, override):
    """Run ``BASE[key]`` with one ``section.key=value`` override, or with the
    flag and value in ``override`` when it starts with ``--``."""
    extra = override.split() if override.startswith("--") else ["--override", override]
    return cli.main(["run", write_cfg(tmp_path, BASE[key]), "--out", str(tmp_path / "out")] + extra)


def left_output(tmp_path):
    """True when a ``run_with`` run created its output directory."""
    return (tmp_path / "out").exists()


def named_key(override):
    """``[section] key`` of an override, of the first one when several are given
    as ``--override`` flags (``--seed`` sets ``[scenario] seed``)."""
    if override.startswith("--seed"):
        return "[scenario] seed"
    section, key = override.removeprefix("--override ").split("=", 1)[0].rsplit(".", 1)
    return f"[{section}] {key}"


@pytest.mark.parametrize("key", sorted(BASE))
def test_each_scenario_passes(tmp_path, key):
    cfg = write_cfg(tmp_path, BASE[key])
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["status"] == "pass"
    assert summary["scenario"] == BASE[key].split("name =")[1].split()[0]


def test_summary_keys_are_sorted(tmp_path):
    cfg = write_cfg(tmp_path, BASE["rotation"])
    out = tmp_path / "out"
    cli.main(["run", cfg, "--out", str(out)])
    keys = [line.split("=", 1)[0] for line in (out / "summary.txt").read_text().splitlines()]
    assert keys == sorted(keys)


def test_covariance_writes_field_snapshots(tmp_path):
    cfg = write_cfg(tmp_path, BASE["covariance"])
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "E_final.bin").is_file()
    assert (out / "B_final.bin").is_file()
    header = (out / "snapshot_header.txt").read_text()
    assert "steps=10" in header


@pytest.mark.parametrize("moving", [False, True])
def test_dual_covariance_shares_one_reference_evolution(tmp_path, monkeypatch, moving):
    # one forward transform of the fields starts every evolution: one
    # reference, which the snapshot reuses, plus one evolution per angle for
    # the residual and, with a moving charge, one per angle for the floor
    calls = {"_evolve_spectra": 0, "_to_spectrum": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapped = counting(name, getattr(maxwell, name))
        monkeypatch.setattr(maxwell, name, wrapped)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, wrapped)
    text = BASE["covariance"] if moving else BASE["covariance"].split("[source.1]")[0]
    thetas = [0.3, 0.7853981633974483, 2.0]
    code = cli.main(["run", write_cfg(tmp_path, text), "--out", str(tmp_path / "out"),
                     "--override", f"rotation.thetas={' '.join(map(repr, thetas))}"])
    assert code == 0
    k = len(thetas)
    assert calls == {"_evolve_spectra": 2 * k + 1 if moving else k + 1, "_to_spectrum": 1}


@pytest.mark.parametrize("units", [(), ("units.c=3", "units.eps0=0.2")],
                         ids=["natural", "c3-eps0.2"])
def test_the_scenario_residual_is_the_library_residual_bitwise(tmp_path, monkeypatch, units):
    # the scenario and dual_covariance_residual run the same spectral core
    states = []

    def recording(state, *args):
        states.append(state)
        return spectra(state, *args)

    spectra = cli._checked_spectra
    monkeypatch.setattr(cli, "_checked_spectra", recording)
    thetas = [0.3, 2.0]
    flags = [arg for item in (*units, f"rotation.thetas={' '.join(map(repr, thetas))}")
             for arg in ("--override", item)]
    out = tmp_path / "out"
    assert cli.main(["run", write_cfg(tmp_path, BASE["covariance"]), "--out", str(out)]
                    + flags) == 0
    (state,) = states
    system = UnitSystem(c=3.0, eps0=0.2) if units else UnitSystem()
    summary = read_summary(out)
    for theta in thetas:
        residual = maxwell.dual_covariance_residual(state, theta, 10, 0.005, system)
        assert summary[f"covariance_residual_theta_{theta!r}"] == repr(residual)


def run_mode_scenario(tmp_path, key, *overrides):
    flags = [arg for item in overrides for arg in ("--override", item)]
    assert cli.main(["run", write_cfg(tmp_path, BASE[key]), "--out", str(tmp_path / key)]
                    + flags) == 0


@pytest.mark.parametrize("count", [1, 3])
def test_mode_scenarios_never_transform_a_synthesis_back(tmp_path, monkeypatch, count):
    # noether-zero takes each config's potentials (one inverse transform) and
    # their gradients (one more) from one synthesis spectrum, and synthesizes
    # the violating pair on the grid (two); helicity-conservation reads each
    # sample's spin from the synthesis spectrum itself
    calls = {"_to_grid": 0, "_to_spectrum": 0}

    def counting(name, transform):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)
        return wrapper

    for module in (fields, modes, cli):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    run_mode_scenario(tmp_path, "noether", f"sweep.count={count}")
    assert calls == {"_to_grid": 2 * count + 2, "_to_spectrum": 0}
    calls.update(dict.fromkeys(calls, 0))
    run_mode_scenario(tmp_path, "helicity", f"evolution.samples={count + 1}")
    assert calls == {"_to_grid": 0, "_to_spectrum": 0}


@pytest.mark.parametrize("units", [(), ("units.c=3", "units.eps0=0.2")],
                         ids=["natural", "c3-eps0.2"])
def test_mode_scenarios_agree_with_the_grid_route(tmp_path, monkeypatch, units):
    # each spectral current and spin of a scenario against the public grid
    # functions on the same potentials or amplitudes
    syntheses, currents, spins = [], [], []
    synthesis, current, spin = cli._synthesis_hat, cli._noether_current, cli._spin_hat

    def record_synthesis(amp, grid, units):
        syntheses.append((amp, grid, units))
        return synthesis(amp, grid, units)

    def record_current(gradA, gradC, pp, dpp, units):
        currents.append((pp, dpp, current(gradA, gradC, pp, dpp, units)))
        return currents[-1][-1]

    def record_spin(*args):
        spins.append(spin(*args))
        return spins[-1]

    monkeypatch.setattr(cli, "_synthesis_hat", record_synthesis)
    monkeypatch.setattr(cli, "_noether_current", record_current)
    monkeypatch.setattr(cli, "_spin_hat", record_spin)
    run_mode_scenario(tmp_path, "noether", *units)
    assert len(currents) == 2
    _, grid, system = syntheses[0]
    for pp, dpp, (f, f_scale) in currents:
        ref, ref_scale = noether_dual_current(pp, dpp, grid, system)
        assert np.max(np.abs(f - ref)) <= 1e-13 * np.max(ref_scale)
        assert np.max(np.abs(f_scale - ref_scale)) <= 1e-13 * np.max(ref_scale)
    syntheses.clear()
    theta = 0.9
    run_mode_scenario(tmp_path, "helicity", f"rotation.theta={theta}", *units)
    assert len(syntheses) == len(spins) == 3
    for (amp, grid, system), S in zip(syntheses, spins):
        ref = spin_observable(*synthesize_potentials(amp, theta, grid, system), grid, system)
        assert np.max(np.abs(S - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_every_scenario_passes_in_a_second_unit_system(tmp_path):
    for key in sorted(BASE):
        code = cli.main(["run", write_cfg(tmp_path, BASE[key]), "--out", str(tmp_path / key),
                         "--override", "units.c=3", "--override", "units.eps0=0.2"])
        assert code == 0, key


# every file each scenario writes, as the README documents them
OUTPUTS = {
    "rotation": set(),
    "covariance": {"E_final.bin", "B_final.bin", "snapshot_header.txt"},
    "coulomb": set(),
    "cross": set(),
    "noether": set(),
    "helicity": {"series.csv"},
    "flyby": {"trajectory_classical.npy", "trajectory_quantum.npy"},
}


@pytest.mark.parametrize("key", sorted(BASE))
def test_each_scenario_writes_exactly_its_documented_files(tmp_path, key):
    out = tmp_path / "out"
    assert cli.main(["run", write_cfg(tmp_path, BASE[key]), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"summary.txt"} | OUTPUTS[key]


def test_flyby_writes_both_trajectories(tmp_path):
    cfg = write_cfg(tmp_path, BASE["flyby"])
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    for model in ("classical", "quantum"):
        table = np.load(out / f"trajectory_{model}.npy")
        assert len(table) == 1600 + 1  # the default steps, each recorded, and the start
        assert len(table.dtype.names) == 11
    summary = read_summary(out)
    assert float(summary["quantum_out_of_plane_ratio"]) <= 1e-8
    assert float(summary["classical_out_of_plane_ratio"]) > 1e-2


def test_helicity_writes_a_series(tmp_path):
    cfg = write_cfg(tmp_path, BASE["helicity"])
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[0] == "t,Sx,Sy,Sz,helicity"
    assert len(rows) == 4  # header plus three samples


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, BASE["rotation"])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", cfg, "--out", str(out1)]) == 0
    assert cli.main(["run", cfg, "--out", str(out2)]) == 0
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()


def test_seed_flag_overrides_the_config(tmp_path):
    cfg = write_cfg(tmp_path, BASE["rotation"])
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out), "--seed", "7"]) == 0
    assert read_summary(out)["seed"] == "7"


def test_noether_reads_the_sweep_count(tmp_path):
    cfg = write_cfg(tmp_path, BASE["noether"])
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    assert read_summary(out)["config_count"] == "2"


@pytest.mark.parametrize("seed", [9, 25, 44, 126])
def test_noether_violating_config_clears_its_floor(tmp_path, seed):
    # seeds at which an independently drawn C nearly cancels the violating charge
    cfg = write_cfg(tmp_path, "[scenario]\nname = noether-zero\n")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out), "--seed", str(seed)]) == 0
    assert float(read_summary(out)["violating_charge_rel"]) >= 1e-3


@pytest.mark.parametrize("count", [101, 2049, 10000])
def test_rotation_sweep_covers_exactly_count_inputs(monkeypatch, count):
    # count is not a multiple of the batch count (2 and 40 batches); 10000
    # inputs make 200 batches of 50, more than one block
    entries = {"fields": [], "charges": [], "potentials": []}

    def counting(family, name, size):
        kernel = getattr(cli, name)

        def counted(first, *args):
            entries[family].append(size(first))
            return kernel(first, *args)

        monkeypatch.setattr(cli, name, counted)

    counting("fields", "inverse_rotate_fields", lambda fields: fields.E.shape[-1])
    counting("charges", "rotate_charge_components", np.size)
    counting("potentials", "rotate_potentials", lambda potentials: potentials.A.shape[-1])
    cli.rotation_property_residuals(count, 0, UnitSystem.natural())
    # each input passes the inverse field map once, the charge kernel five
    # times (once, twice, direct, back, asymmetrizing) and the potential map four
    totals = {family: sum(sizes) for family, sizes in entries.items()}
    assert totals == {"fields": count, "charges": 5 * count, "potentials": 4 * count}
    if count == 10000:
        block = cli._SWEEP_BLOCK * 50
        assert max(max(sizes) for sizes in entries.values()) <= block


def per_sample_residuals(count: int, seed: int, units: UnitSystem) -> dict:
    """``cli.rotation_property_residuals`` as one call per batch and, for the
    charges, per sample: the reference the block sweep must equal bitwise."""
    rng = np.random.default_rng(seed)
    batches = max(1, count // 50)
    base, extra = divmod(count, batches)
    worst: dict[str, float] = {}

    def update(name: str, value: float) -> None:
        worst[name] = max(worst.get(name, 0.0), float(value))

    def rel(diff: np.ndarray, scale: np.ndarray) -> float:
        return float(np.max(np.abs(diff)) / max(float(np.max(np.abs(scale))), 1e-30))

    c = units.c
    for batch in range(batches):
        per_batch = base + (batch < extra)
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = rng.uniform(0.0, 2.0 * math.pi)

        fp = FieldVecPair(rng.normal(size=(3, per_batch)), rng.normal(size=(3, per_batch)) / c)
        once = rotate_fields(fp, t1, units)
        twice = rotate_fields(once, t2, units)
        direct = rotate_fields(fp, t1 + t2, units)
        scale = np.concatenate([direct.E, c * direct.B])
        update("fields_group", rel(np.concatenate([twice.E - direct.E,
                                                   c * (twice.B - direct.B)]), scale))
        ident = rotate_fields(fp, 0.0, units)
        update("fields_identity", rel(np.concatenate([ident.E - fp.E, c * (ident.B - fp.B)]),
                                      np.concatenate([fp.E, c * fp.B])))
        back = inverse_rotate_fields(once, t1, units)
        update("fields_inverse", rel(np.concatenate([back.E - fp.E, c * (back.B - fp.B)]),
                                     np.concatenate([fp.E, c * fp.B])))
        q_before = field_quadratic_form(fp, units)  # a positive form
        update("fields_invariant", abs(field_quadratic_form(once, units) - q_before) / q_before)
        wrapped = rotate_fields(fp, t1 + 2.0 * math.pi, units)
        update("fields_periodicity", rel(np.concatenate([wrapped.E - once.E,
                                                         c * (wrapped.B - once.B)]), scale))

        qe = rng.normal(size=per_batch)
        qm = rng.normal(size=per_batch) / (c * units.eps0)
        pair_scale = np.hypot(qe, c * units.eps0 * qm)
        for sample in range(per_batch):
            cp = ChargePair(qe[sample], qm[sample])
            once_c = rotate_charges(cp, t1, units)
            twice_c = rotate_charges(once_c, t2, units)
            direct_c = rotate_charges(cp, t1 + t2, units)
            s = max(pair_scale[sample], 1e-30)
            update("charges_group", max(abs(twice_c.qe - direct_c.qe),
                                        c * units.eps0 * abs(twice_c.qm - direct_c.qm)) / s)
            back_c = rotate_charges(once_c, -t1, units)
            update("charges_inverse", max(abs(back_c.qe - cp.qe),
                                          c * units.eps0 * abs(back_c.qm - cp.qm)) / s)
            update("charges_norm", abs(charge_norm(once_c, units) - charge_norm(cp, units)) / s)
            if pair_scale[sample] > 0.0:
                asym = rotate_charges(cp, asymmetrizing_angle(cp, units), units)
                update("charges_asymmetrize",
                       max(abs(asym.qe - pair_scale[sample]),
                           c * units.eps0 * abs(asym.qm)) / s)

        pp = PotentialPair(rng.normal(size=(4, per_batch)), c * rng.normal(size=(4, per_batch)))
        once_p = rotate_potentials(pp, t1, units)
        twice_p = rotate_potentials(once_p, t2, units)
        direct_p = rotate_potentials(pp, t1 + t2, units)
        p_scale = np.concatenate([c * direct_p.A, direct_p.C])
        update("potentials_group", rel(np.concatenate([c * (twice_p.A - direct_p.A),
                                                       twice_p.C - direct_p.C]), p_scale))
        back_p = rotate_potentials(once_p, -t1, units)
        update("potentials_inverse", rel(np.concatenate([c * (back_p.A - pp.A),
                                                         back_p.C - pp.C]),
                                         np.concatenate([c * pp.A, pp.C])))
        q_before = potential_quadratic_form(pp, units)
        euclidean = units.eps0 * (c * c * np.sum(pp.A**2) + np.sum(pp.C**2))
        update("potentials_invariant",
               abs(potential_quadratic_form(once_p, units) - q_before)
               / max(abs(q_before), 1e-30 * euclidean))
    return worst


@pytest.mark.parametrize(
    "units", [UnitSystem.natural(), UnitSystem(c=3.0, eps0=0.2), UnitSystem.si()],
    ids=["natural", "c3-eps0.2", "si"],
)
@pytest.mark.parametrize("count", [1, 101, 2049])
def test_rotation_sweep_equals_the_per_sample_sweep_bitwise(count, units):
    swept = cli.rotation_property_residuals(count, 5, units)
    assert repr(swept) == repr(per_sample_residuals(count, 5, units))


def test_the_rotation_invariants_do_not_scale_with_eps0():
    # both forms carry a factor eps0, which their relative change cancels
    def invariants(eps0):
        residuals = cli.rotation_property_residuals(200, 3, UnitSystem(c=1.0, eps0=eps0))
        return np.array([residuals["fields_invariant"], residuals["potentials_invariant"]])

    natural = invariants(1.0)
    # a power of two near 1e-40 scales both forms exactly: equal bitwise
    assert np.array_equal(invariants(2.0**-133), natural)
    # at 1e-40 the scaling rounds: equal up to round-off
    tiny = invariants(1e-40)
    assert np.all(natural / 2 <= tiny) and np.all(tiny <= 2 * natural), (tiny, natural)


def test_override_flag_reaches_the_scenario(tmp_path):
    cfg = write_cfg(tmp_path, BASE["rotation"])
    out = tmp_path / "out"
    code = cli.main(["run", cfg, "--out", str(out), "--override", "sweep.count=150"])
    assert code == 0
    assert read_summary(out)["sweep_count"] == "150"


def benchmark_arguments(rng, name):
    """A seed and, as the benchmark's scenarios workload draws them, a rotation
    angle in [0.2, 1.2] or a flyby start moved by up to 0.02 in y and 1 % in speed."""
    arguments = ["--seed", str(int(rng.integers(1, 2**31)))]
    if name == "helicity-conservation":
        arguments += ["--override", f"rotation.theta={rng.uniform(0.2, 1.2)!r}"]
    elif name == "monopole-flyby":
        y, vx = 1.0 + rng.uniform(-0.02, 0.02), 0.05 * (1.0 + rng.uniform(-0.01, 0.01))
        arguments += ["--override", f"particle.position=-2.0 {y!r} 0.0",
                      "--override", f"particle.velocity={vx!r} 0.0 0.0"]
    return arguments


@pytest.mark.parametrize(
    "name", ["rotation-properties", "noether-zero", "helicity-conservation", "monopole-flyby"])
def test_benchmark_shaped_runs_pass_without_a_warning(tmp_path, name):
    rng = np.random.default_rng(11)
    cfg = write_cfg(tmp_path, f"[scenario]\nname = {name}\n")
    for run in range(8):
        arguments = benchmark_arguments(rng, name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["run", cfg, "--out", str(tmp_path / str(run))] + arguments)
        assert code == 0, arguments


# --- exit codes -----------------------------------------------------------------


def test_missing_config_exits_one(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.ini")]) == 1
    assert "not found" in capsys.readouterr().err


def test_a_percent_sign_in_a_config_file_is_literal_text(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE["rotation"].replace("count = 200", "count = 5%"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "[sweep] count must be an integer, got '5%'" in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[scenario]\nname = rotation-properties\n# caf\xe9\n")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "malformed config" in capsys.readouterr().err
    assert not left_output(tmp_path)


def test_an_override_of_the_default_section_sets_a_default(tmp_path, capsys):
    # as a [DEFAULT] line does, it gives the key to every section
    assert run_with(tmp_path, "rotation", "DEFAULT.x=1") == 1
    assert "rotation-properties reads no [scenario] x, [sweep] x" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["taken", "taken/below", "dir/summary.txt"])
def test_an_out_that_cannot_hold_the_output_exits_one(tmp_path, capsys, target):
    # a file where the directory or below it would go, or a directory where a file would
    (tmp_path / "taken").write_text("kept\n")
    (tmp_path / "dir" / "summary.txt").mkdir(parents=True)
    out = tmp_path / target.removesuffix("/summary.txt")
    assert cli.main(["run", write_cfg(tmp_path, BASE["rotation"]), "--out", str(out)]) == 1
    assert f"--out {str(out)!r}: " in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "kept\n"


def test_unknown_scenario_exits_one(tmp_path):
    cfg = write_cfg(tmp_path, "[scenario]\nname = warp-drive\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1


def test_config_without_name_exits_one(tmp_path):
    cfg = write_cfg(tmp_path, "[scenario]\nseed = 1\n")
    assert cli.main(["run", cfg]) == 1


def test_malformed_override_exits_one(tmp_path):
    cfg = write_cfg(tmp_path, BASE["rotation"])
    assert cli.main(["run", cfg, "--override", "nonsense"]) == 1
    assert cli.main(["run", cfg, "--override", "count=5"]) == 1


def test_non_numeric_override_exits_one(tmp_path):
    cfg = write_cfg(tmp_path, BASE["rotation"])
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out), "--override", "sweep.count=alot"]) == 1


def test_usage_errors_exit_one():
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["run"]) == 1


def test_cfl_violation_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE["covariance"])
    out = tmp_path / "out"
    code = cli.main(["run", cfg, "--out", str(out), "--override", "evolution.dt=0.5"])
    assert code == 2
    assert "precondition" in capsys.readouterr().err


def test_oversized_smearing_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, BASE["covariance"])
    out = tmp_path / "out"
    code = cli.main(["run", cfg, "--out", str(out), "--override", "source.1.sigma=2.0"])
    assert code == 2


def test_failed_check_exits_three(tmp_path):
    # a coarse lattice misses the Coulomb energy by about 18%, against a 1% bound
    cfg = write_cfg(tmp_path, BASE["coulomb"])
    out = tmp_path / "out"
    code = cli.main(["run", cfg, "--out", str(out), "--override", "modes.dk_r=3"])
    assert code == 3
    summary = read_summary(out)
    assert summary["status"] == "fail"
    assert float(summary["coulomb_rel_difference"]) > 0.1


def test_two_field_cross_judges_small_energies_by_their_ratio(tmp_path):
    # a coarse lattice misses the unit-charge energies by about 24%; charges
    # of 1e-8 give the same relative miss on energies near 1e-18
    overrides = ["source.1.qe=1e-8", "source.1.qm=0.3e-8", "source.2.qe=-0.4e-8",
                 "source.2.qm=0.8e-8", "modes.dk_r=3", "modes.kmax_sigma=1"]
    out = tmp_path / "out"
    code = cli.main(["run", write_cfg(tmp_path, BASE["cross"]), "--out", str(out)]
                    + [arg for item in overrides for arg in ("--override", item)])
    assert code == 3
    assert float(read_summary(out)["ee_rel_difference"]) > 0.2


@pytest.mark.parametrize(
    "key,override,code",
    [
        ("covariance", "source.1.sigma=-1", 1),
        ("covariance", "evolution.dt=nan", 1),
        ("covariance", "source.1.velocity=2 0 0", 2),
        ("covariance", "grid.n=1e400", 1),
        ("covariance", "grid.n=4", 1),
        ("covariance", "grid.n=6", 1),
        ("flyby", "evolution.dt=nan", 1),
        ("flyby", "evolution.dt=-1", 1),
        ("flyby", "particle.mass=0", 1),
        ("flyby", "particle.velocity=0", 1),
        ("flyby", "units.c=nan", 1),
        ("helicity", "modes.kmaxx=3", 1),
        ("helicity", "bogus.key=1", 1),
        ("coulomb", "source.1.sigmaa=0.3", 1),
        ("helicity", "evolution.t_final=nan", 1),
        ("helicity", "rotation.theta=nan", 1),
        ("coulomb", "rotation.theta=nan", 1),
        ("coulomb", "modes.dk_r=0", 1),
        ("coulomb", "modes.dk_r=-1", 1),
        ("coulomb", "modes.dk_r=nan", 1),
        ("coulomb", "modes.kmax_sigma=nan", 1),
        ("cross", "modes.dk_r=0", 1),
        ("cross", "modes.dk_r=-1", 1),
        ("cross", "modes.dk_r=nan", 1),
        ("cross", "modes.kmax_sigma=nan", 1),
        ("coulomb", "modes.dk_r=5e-324", 1),
        ("coulomb", "modes.dk_r=1e-300", 1),
        ("coulomb", "modes.kmax_sigma=1e300", 1),
        ("coulomb", "modes.kmax_sigma=1e18", 1),
        ("coulomb", "source.1.sigma=1e-300", 1),
        ("cross", "modes.dk_r=5e-324", 1),
        ("cross", "modes.dk_r=1e-300", 1),
        ("cross", "modes.kmax_sigma=1e300", 1),
        ("cross", "modes.kmax_sigma=1e18", 1),
        ("cross", "source.1.sigma=1e-300", 1),
        ("coulomb", "--override modes.dk_r=5e-324 --override source.2.position=3", 1),
        ("coulomb", "--override source.1.qe=1.7e308 --override source.1.qm=0.85e308", 1),
        # energies that overflow: the first used to pass with inf == inf, the
        # other two to fail with a nan difference
        ("cross", "--override source.1.qe=1e154 --override source.2.qe=1e154 "
                  "--override source.2.position=1e-3", 1),
        ("cross", "--override source.1.qe=1e153 --override source.2.qe=-1e153 "
                  "--override source.2.position=1e-10", 1),
        ("coulomb", "--override source.1.qe=1e152 --override source.1.qm=5e151 "
                    "--override source.2.qe=-1e152 --override source.2.qm=-5e151 "
                    "--override source.2.position=1e-10", 1),
        ("covariance", "--override units.eps0=1e200 --override source.1.qm=1e150", 1),
        ("flyby", "--override evolution.dt=1e110 --override evolution.steps=2", 3),
        ("flyby", "particle.position=1e-110 0 0", 1),
        ("flyby", "particle.position=1e-7 0 0", 1),
        ("flyby", "particle.position=1e300 1 0", 1),
        ("flyby", "monopole.position=-1e300 0 0", 1),
        ("flyby", "particle.velocity=1e300 0 0", 1),
        ("flyby", "evolution.steps=100001", 1),
        ("covariance", "evolution.steps=100001", 1),
        ("rotation", "--seed -1", 1),
        ("coulomb", "checks.max_rel=nan", 1),
        ("rotation", "checks.max_residual=-1", 1),
        ("cross", "checks.max_em=-1", 1),
        ("flyby", "checks.max_quantum_ratio=-1", 1),
        ("noether", "units.c=1e200", 1),
        ("helicity", "units.c=1e200", 1),
        ("rotation", "units.c=1e-300", 1),
        ("covariance", "units.c=1e-300", 1),
        ("noether", "units.c=1e-300", 1),
        ("rotation", "units.eps0=1e-320", 1),
        ("rotation", "--override units.eps0=2.3e-308 --seed 12", 1),
        ("covariance", "--override grid.L=1e-200 --override grid.n=8 "
                       "--override evolution.steps=1 --override evolution.dt=1e-210", 1),
        ("covariance", "--override grid.L=1e200 --override grid.n=8 "
                       "--override evolution.steps=1", 1),
        ("helicity", "--override grid.L=1e-200", 1),
        ("covariance", "grid.n=1e18", 1),
        ("noether", "grid.n=1e18", 1),
        ("helicity", "grid.n=1e18", 1),
        ("covariance", f"grid.n={cli.MAX_GRID_N + 2}", 1),
        ("covariance", "--override source.1.velocity=1e-300 "
                       "--override source.2.velocity=1e-300", 0),
        ("covariance", "evolution.dt=5e-324", 0),
        ("covariance", "source.2.qm=0.5", 0),  # independent qm / qe ratios
        # values are literal: a "%" used to raise from the parser's interpolation
        ("rotation", "sweep.count=1%", 1),
        ("noether", "sweep.count=%(x)s", 1),
    ],
)
def test_invalid_inputs_exit_with_their_code_not_a_traceback(tmp_path, capsys, key, override, code):
    assert run_with(tmp_path, key, override) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 1:
        assert named_key(override) in err
    if code in (1, 2):
        assert not left_output(tmp_path)


@pytest.mark.parametrize(
    "key,override",
    [
        ("covariance", "evolution.steps=-5"),
        ("covariance", "rotation.thetas="),
        ("noether", "sweep.count=0"),
        ("noether", "modes.kmax=0"),
        ("noether", "modes.kmax=nan"),
        ("noether", "modes.kmax=-1"),
        ("helicity", "modes.kmax=0"),
        ("helicity", "modes.kmax=nan"),
        ("helicity", "modes.kmax=-1"),
        ("helicity", "evolution.samples=1"),
        ("flyby", "evolution.steps=0"),
        ("flyby", "monopole.qm=nan"),
        ("rotation", "sweep.count=0"),
        ("helicity", "evolution.t_final=0"),
        ("coulomb", "modes.kmax_sigma=0"),
        ("cross", "modes.kmax_sigma=0"),
        ("helicity", "checks.max_drift=inf"),
        ("coulomb", "checks.max_rel=inf"),
        ("noether", "checks.min_violating=0"),
        ("flyby", "checks.min_classical_ratio=0"),
        ("flyby", "particle.velocity=0.2 0 0"),
    ],
)
def test_configs_that_measure_nothing_exit_one(tmp_path, capsys, key, override):
    assert run_with(tmp_path, key, override) == 1
    assert named_key(override) in capsys.readouterr().err
    assert not left_output(tmp_path)


def test_sources_closer_than_a_normal_square_are_apart_not_coincident(tmp_path, capsys):
    # 1e-200 apart: the distance's square underflows, and the auto smearing
    # of a fifth of it has no normal-float square
    assert run_with(tmp_path, "coulomb", "source.2.position=1e-200 0 0") == 1
    err = capsys.readouterr().err
    assert "[source.1] sigma must be positive with a normal-float square, got 2e-201" in err
    assert not left_output(tmp_path)


def test_a_source_crossing_x_zero_stays_in_the_box(tmp_path):
    # the wrap used to round the source's tiny negative x up to L, which the
    # next stepper call rejected as outside the box
    text = """
        [scenario]
        name = dual-covariance
        [grid]
        n = 24
        [evolution]
        dt = 0.005
        steps = 200
        [rotation]
        thetas = 0.5
        [source.1]
        position = 0.05 3 3
        velocity = -0.05 0 0
        qe = 1
        qm = 0
        sigma = 0.6
        """
    assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(tmp_path / "out")]) == 0


def test_flyby_stopped_before_its_first_step_records_a_nan_ratio(tmp_path):
    # the classical particle trips the speed guard on its first step, so its
    # path spans nothing; the ratio is undefined and the check fails
    overrides = ["particle.position=-1e-4 1e-4 0", "particle.velocity=0 0 0.05"]
    out = tmp_path / "out"
    code = cli.main(["run", write_cfg(tmp_path, BASE["flyby"]), "--out", str(out)]
                    + [arg for item in overrides for arg in ("--override", item)])
    assert code == 3
    summary = read_summary(out)
    assert summary["classical_steps"] == "0"
    assert summary["classical_out_of_plane_ratio"] == "nan"


def test_dual_covariance_runs_from_eight_cells_per_axis(tmp_path):
    # random waves reach wavenumber 3 per axis, which lies below Nyquist from 8 cells
    text = """
        [scenario]
        name = dual-covariance
        [grid]
        n = 8
        [evolution]
        steps = 10
        """
    assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "overrides", [["evolution.dt=1e300", "evolution.steps=2"], ["particle.mass=1e-300"]]
)
def test_an_overflowing_flyby_fails_without_a_warning(tmp_path, capsys, overrides):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", write_cfg(tmp_path, BASE["flyby"]), "--out", str(out)]
                        + [arg for item in overrides for arg in ("--override", item)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    summary = read_summary(out)
    assert summary["classical_termination"] == "non-finite state"
    # a quantum pass needs a path whose span was measured
    quantum = float(summary["quantum_out_of_plane_ratio"])
    if quantum <= float(summary["quantum_out_of_plane_ratio_limit"]):
        assert 0.0 < float(summary["quantum_in_plane_span"]) < math.inf


def test_a_flyby_start_the_monopole_excludes_exits_one(tmp_path, capsys):
    assert run_with(tmp_path, "flyby", "particle.position=1e-7 0 0") == 1
    err = capsys.readouterr().err
    assert "[particle] position" in err and "[monopole] position" in err
    assert not left_output(tmp_path)


def test_a_flyby_whose_plane_normal_overflows_exits_one(tmp_path, capsys):
    # |r|^2 and |v|^2 are finite, but |r x v|^2 = 1e604 is not
    overrides = ["particle.position=1e154 0 0", "particle.velocity=0 1e148 0", "units.c=1e150"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", write_cfg(tmp_path, BASE["flyby"]), "--out", str(tmp_path / "out")]
                        + [arg for item in overrides for arg in ("--override", item)])
    assert code == 1
    err = capsys.readouterr().err
    assert all(key in err for key in ("[particle] position", "[particle] velocity", "overflow"))
    assert not left_output(tmp_path)


def test_a_flyby_whose_second_push_fails_leaves_no_file(tmp_path, capsys, monkeypatch):
    # no file is written before the scenario returns
    push = cli.push_particle

    def failing(particle, sampler, model, *args):
        if model == "quantum":
            raise FloatingPointError("overflow encountered in multiply")
        return push(particle, sampler, model, *args)

    monkeypatch.setattr(cli, "push_particle", failing)
    assert run_with(tmp_path, "flyby", "particle.qe=2") == 1
    assert "[particle] qe: overflow" in capsys.readouterr().err
    assert not left_output(tmp_path)


def test_a_covariance_source_whose_field_energy_overflows_exits_one(tmp_path, capsys):
    # magnetic charges of 1e300 pass one at a time, but their B field squared overflows
    overrides = ["source.1.qe=0", "source.2.qe=0", "source.1.qm=1e300", "source.2.qm=-1e300"]
    code = cli.main(["run", write_cfg(tmp_path, BASE["covariance"]), "--out", str(tmp_path / "out")]
                    + [arg for item in overrides for arg in ("--override", item)])
    assert code == 1
    err = capsys.readouterr().err
    assert all(f"[source.{i}] {q}" in err for i in (1, 2) for q in ("qe", "qm"))
    assert "overflow" in err
    assert not left_output(tmp_path)


def test_a_key_read_under_another_case_counts_as_read(tmp_path):
    # configparser folds keys to lower case; the getters ask for "L"
    assert run_with(tmp_path, "covariance", "grid.L=6.283185307179586") == 0


MISSPELT = {
    "rotation": "sweep.countx=1",
    "covariance": "evolution.stepsx=1",
    "coulomb": "source.2.qex=1",
    "cross": "modes.dk_rx=1",
    "noether": "sweep.countx=1",
    "helicity": "evolution.t_finalx=1",
    "flyby": "particle.massx=1",
}


@pytest.mark.parametrize("key", sorted(MISSPELT))
def test_a_misspelt_key_exits_one_in_every_scenario(tmp_path, capsys, key):
    assert run_with(tmp_path, key, MISSPELT[key]) == 1
    assert named_key(MISSPELT[key]) in capsys.readouterr().err
    assert not left_output(tmp_path)


REMOVED = [
    ("rotation", "checks.max_residual=1e-12"),
    ("covariance", "checks.max_residual=1e-10"),
    ("covariance", "checks.max_gauss_residual=1e-8"),
    ("coulomb", "checks.max_rel=0.01"),
    ("coulomb", "rotation.theta=auto"),
    ("cross", "checks.max_rel=0.01"),
    ("cross", "checks.max_em=0"),
    ("noether", "checks.max_residual=1e-10"),
    ("noether", "checks.min_violating=1e-3"),
    ("helicity", "checks.max_drift=1e-10"),
    ("flyby", "checks.min_classical_ratio=1e-2"),
    ("flyby", "checks.max_quantum_ratio=1e-8"),
    ("covariance", "checks.require_shared_ratio=true"),
    ("covariance", "checks.require_shared_ratio=false"),
]


@pytest.mark.parametrize("key,override", REMOVED)
def test_a_removed_key_exits_one_even_at_its_old_default(tmp_path, capsys, key, override):
    # pass bounds are constants, recorded as <name>_limit and <name>_floor
    assert run_with(tmp_path, key, override) == 1
    assert named_key(override) in capsys.readouterr().err
    assert not left_output(tmp_path)


# every key a BASE run reads besides [scenario] name and the COMMON keys each
# scenario reads; a new key needs an entry
COMMON = "scenario.seed units.c units.eps0"
SOURCES = " ".join(f"source.{i}.{k}" for i in (1, 2)
                   for k in ("position", "velocity", "qe", "qm", "sigma"))
READS = {
    "rotation": "sweep.count",
    "covariance": f"grid.n grid.l evolution.dt evolution.steps rotation.thetas {SOURCES}",
    "coulomb": f"modes.kmax_sigma modes.dk_r {SOURCES}",
    "cross": f"modes.kmax_sigma modes.dk_r {SOURCES}",
    "noether": "grid.n grid.l modes.kmax sweep.count",
    "helicity": "grid.n grid.l modes.kmax rotation.theta evolution.t_final evolution.samples",
    "flyby": "monopole.qm monopole.position particle.position particle.velocity particle.qe "
             "particle.qm particle.mass evolution.dt evolution.steps",
}


def keys_read(tmp_path, text):
    """``section.key`` of every key a run of ``text`` reads, but ``[scenario] name``."""
    cfg = cli.load_config(write_cfg(tmp_path, text, "keys.ini"), [], None)
    cli.run_scenario(cfg, tmp_path / "keys")
    return sorted(f"{section}.{key}" for section, key in cfg._read - {("scenario", "name")})


@pytest.mark.parametrize("key", sorted(BASE))
def test_each_scenario_reads_exactly_its_listed_keys(tmp_path, key):
    assert keys_read(tmp_path, BASE[key]) == sorted(f"{COMMON} {READS[key]}".split())


MENU = ("nan", "inf", "-inf", "0", "-1", "1e-300", "5e-324", "1e300", "1e18", "0.5", "3",
        "2 0 0", "abc", "")
SWEEP_BASE = dict(BASE, flyby="""
        [scenario]
        name = monopole-flyby
        [evolution]
        steps = 200
        """)


def finite_summary(outdir):
    """True when every number in ``summary.txt`` is finite."""
    for value in read_summary(outdir).values():
        try:
            number = float(value)
        except ValueError:
            continue
        if not math.isfinite(number):
            return False
    return True


@pytest.mark.parametrize("key", sorted(SWEEP_BASE))
def test_every_key_at_every_menu_value_exits_with_a_documented_code(tmp_path, key):
    """Each key the scenario reads, set to each menu value: exit 0, 1, 2 or 3 with
    no exception or warning; exit 1 or 2 leaves no output directory, exit 0
    writes finite numbers."""
    cfg = write_cfg(tmp_path, SWEEP_BASE[key])
    faults = []
    for name in keys_read(tmp_path, SWEEP_BASE[key]):
        for value in MENU:
            out = tmp_path / f"{name}={value}"
            try:
                with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    warnings.simplefilter("error")
                    code = cli.main(["run", cfg, "--out", str(out),
                                     "--override", f"{name}={value}"])
            except Exception as exc:  # every escape is a fault, recorded to report them all
                faults.append((name, value, repr(exc)))
                continue
            if code not in (0, 1, 2, 3):
                faults.append((name, value, f"exit {code}"))
            elif code in (1, 2) and out.exists():
                faults.append((name, value, f"exit {code} left its output directory"))
            elif code == 0 and not finite_summary(out):
                faults.append((name, value, "exit 0 wrote a non-finite number"))
    assert faults == []


WRITERS = {"open", "save_field", "save", "write_pairs", "to_npy", "write_text", "write", "mkdir"}


def test_only_run_scenario_writes_files():
    # scenarios hand their files to run_scenario as writers and call none:
    # a scenario that raises has written nothing
    writing = set()
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if isinstance(node, ast.FunctionDef):
            called = {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                      for call in ast.walk(node) if isinstance(call, ast.Call)
                      and isinstance(call.func, (ast.Name, ast.Attribute))}
            if called & WRITERS:
                writing.add(node.name)
    assert writing == {"run_scenario", "write_pairs"}
    assert all(list(inspect.signature(run).parameters) == ["cfg"]
               for run in cli.SCENARIOS.values())
