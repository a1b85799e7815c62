"""End-to-end runs of the scenario command line."""

import textwrap

import numpy as np
import pytest

from dualfield import cli
from dualfield.dualcore import UnitSystem

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


def named_key(override):
    """``[section] key`` of an override (``--seed`` sets ``[scenario] seed``)."""
    if override.startswith("--seed"):
        return "[scenario] seed"
    section, key = override.split("=", 1)[0].rsplit(".", 1)
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


def test_flyby_writes_both_trajectories(tmp_path):
    cfg = write_cfg(tmp_path, BASE["flyby"])
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    for model in ("classical", "quantum"):
        table = np.loadtxt(out / f"trajectory_{model}.csv", delimiter=",", skiprows=1)
        assert table.shape[1] == 11
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


@pytest.mark.parametrize("count", [101, 2049])
def test_rotation_sweep_covers_exactly_count_inputs(monkeypatch, count):
    # count is not a multiple of the batch count (2 and 40 batches)
    swept = {"fields": 0, "charges": 0}
    inverse, angle = cli.inverse_rotate_fields, cli.asymmetrizing_angle

    def counting_inverse(fields, theta, units):
        swept["fields"] += fields.E.shape[1]
        return inverse(fields, theta, units)

    def counting_angle(charges, units):
        swept["charges"] += 1
        return angle(charges, units)

    monkeypatch.setattr(cli, "inverse_rotate_fields", counting_inverse)
    monkeypatch.setattr(cli, "asymmetrizing_angle", counting_angle)
    cli.rotation_property_residuals(count, 0, UnitSystem.natural())
    assert swept == {"fields": count, "charges": count}


def test_override_flag_reaches_the_scenario(tmp_path):
    cfg = write_cfg(tmp_path, BASE["rotation"])
    out = tmp_path / "out"
    code = cli.main(["run", cfg, "--out", str(out), "--override", "sweep.count=150"])
    assert code == 0
    assert read_summary(out)["sweep_count"] == "150"


# --- exit codes -----------------------------------------------------------------


def test_missing_config_exits_one(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.ini")]) == 1
    assert "not found" in capsys.readouterr().err


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
    cfg = write_cfg(tmp_path, BASE["rotation"])
    out = tmp_path / "out"
    code = cli.main(["run", cfg, "--out", str(out), "--override", "checks.max_residual=1e-30"])
    assert code == 3
    assert read_summary(out)["status"] == "fail"


@pytest.mark.parametrize(
    "key,override,code",
    [
        ("covariance", "source.1.sigma=-1", 1),
        ("covariance", "evolution.dt=nan", 1),
        ("covariance", "source.1.velocity=2 0 0", 2),
        ("covariance", "checks.require_shared_ratio=maybe", 1),
        ("covariance", "grid.n=1e400", 1),
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
        ("rotation", "--seed -1", 1),
        ("coulomb", "checks.max_rel=nan", 1),
    ],
)
def test_invalid_inputs_exit_with_their_code_not_a_traceback(tmp_path, capsys, key, override, code):
    assert run_with(tmp_path, key, override) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 1:
        assert named_key(override) in err
        assert not (tmp_path / "out" / "summary.txt").exists()


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
    ],
)
def test_configs_that_measure_nothing_exit_one(tmp_path, capsys, key, override):
    assert run_with(tmp_path, key, override) == 1
    assert named_key(override) in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.txt").exists()


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
    assert not (tmp_path / "out" / "summary.txt").exists()
