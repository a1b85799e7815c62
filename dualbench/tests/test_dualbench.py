"""Fast checks of the benchmark harness itself.

    python3 -m pytest -q dualbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dualfield import fields, maxwell, modes  # noqa: E402

# maxwell.peak_alloc_mb comes from a separate batch (test_peak_alloc_*)
MAXWELL = [k for k in spans.PER_LAYER_UNITS if k.startswith("maxwell.") and "alloc" not in k]
COULOMB = [k for k in spans.PER_LAYER_UNITS if k.startswith("modes.coulomb.")]
DYNAMICS = [k for k in spans.PER_LAYER_UNITS if k.startswith("dynamics.")]


def traced_batch(workload, seed=3):
    tracer = spans.Tracer(record_spans=True)
    record = run.run_batch(workload, workload.batch(seed, 0), tracer)
    metrics = spans.layer_metrics(record.snapshot)
    return record, metrics


@pytest.fixture(scope="module")
def evolve_trace():
    return traced_batch(workloads.Evolve(steps=5))


@pytest.fixture(scope="module")
def coulomb_trace():
    return traced_batch(workloads.Coulomb(kmax_sigma=2.0, dk_r=0.6))


@pytest.fixture(scope="module")
def scenarios_trace(tmp_path_factory):
    return traced_batch(workloads.Scenarios(tmp_path_factory.mktemp("scenarios")))


def test_two_seeds_give_identical_sizes(tmp_path):
    for workload in (workloads.Evolve(), workloads.Coulomb()):
        assert workload.batch(1, 0).sizes == workload.batch(2, 5).sizes == workload.batch(3, 6).sizes
    scenarios = workloads.Scenarios(tmp_path)
    sizes = []
    for seed in (1, 2):
        batch = scenarios.batch(seed, 0)
        record = run.run_batch(scenarios, batch)
        assert record.failed == 0, record.failures
        sizes.append(batch.sizes)
    assert sizes[0] == sizes[1]
    assert sizes[0]["trajectory_steps_completed"] == sizes[0]["flyby_steps_requested"]


def test_evolve_coulomb_batch_is_both_batches():
    merged = workloads.EvolveCoulomb().batch(5, 2)
    evolve, coulomb = workloads.Evolve().batch(5, 2), workloads.Coulomb().batch(5, 2)
    assert [v.kind for v in merged.verdicts] == [v.kind for v in evolve.verdicts + coulomb.verdicts]
    assert merged.sizes["evolve.cell_steps"] == evolve.sizes["cell_steps"]
    assert merged.sizes["coulomb.pair_points"] == coulomb.sizes["pair_points"]


def test_coulomb_lattice_is_fixed_by_the_widest_pair():
    sizes = workloads.Coulomb().batch(7, 0).sizes
    assert sizes["lattice_nmax"] == 133
    assert sizes["pairs"] == 1 + 3 + 6
    assert sizes["pair_points"] == 3 * sizes["pairs"] * sizes["lattice_points"]


def test_lattice_points_match_a_brute_force_count():
    idx = np.arange(-12, 13)
    n2 = idx[:, None, None] ** 2 + idx[None, :, None] ** 2 + idx[None, None, :] ** 2
    ms = modes.ModeSet.lattice(dk=0.5, kmax=5.5)
    assert spans.lattice_points(ms) == np.count_nonzero(0.25 * n2 <= 5.5**2)


@pytest.mark.parametrize("trace", ["evolve_trace", "coulomb_trace", "scenarios_trace"])
def test_spans_nest_and_self_times_add_up(trace, request):
    record, _ = request.getfixturevalue(trace)
    snap = record.snapshot
    assert snap["spans"], "no spans recorded"
    assert spans.span_problems(snap, record.wall_s) == []
    assert all(v >= -1e-9 for v in snap["self_s"].values())
    remainder = record.wall_s - spans.traced_self_total(snap)
    assert remainder >= 0.0
    # the harness itself does almost nothing between library calls
    assert remainder < 0.2 * record.wall_s


def test_evolve_predictions(evolve_trace):
    record, metrics = evolve_trace
    assert record.failed == 0, record.failures
    assert all(metrics[k] == 0 for k in COULOMB + DYNAMICS)
    assert metrics["maxwell.step.calls"] == 4
    assert metrics["maxwell.fft_points"] > 0
    by_kind = {}
    for v in record.per_verdict:
        by_kind.setdefault(v["kind"], []).append(v["fields.current_spectra.calls"])
    assert by_kind["free"] == [0]
    # 4 RK4 stages per step, two evolutions per verdict
    assert by_kind["shared"] == [2 * 4 * 5]


def test_peak_alloc_is_tracked_only_on_request():
    workload = workloads.Evolve(steps=1)
    batch = workload.batch(4, 0)
    plain = run.run_batch(workload, batch, spans.Tracer())
    tracked = run.run_batch(workload, batch, spans.Tracer(track_alloc=True))
    assert spans.peak_alloc_mb(plain.snapshot) == 0
    # several 32^3 complex spectra are alive at once
    assert spans.peak_alloc_mb(tracked.snapshot) > 6 * 32**3 * 16 / 2**20


def test_coulomb_predictions(coulomb_trace):
    _, metrics = coulomb_trace
    assert all(metrics[k] == 0 for k in MAXWELL + DYNAMICS)
    assert metrics["fields.spectral.self_s"] == 0 and metrics["fields.fft_calls"] == 0
    assert metrics["modes.coulomb.pair_points"] > 0
    assert metrics["modes.coulomb.lattice_nmax"] == math.floor((2.0 / 0.15) / 0.6)


def test_scenarios_predictions(scenarios_trace):
    record, metrics = scenarios_trace
    assert record.failed == 0, record.failures
    assert all(metrics[k] == 0 for k in MAXWELL + COULOMB)
    assert metrics["dynamics.steps"] == 2 * 1600
    assert metrics["dynamics.force_evals"] > metrics["dynamics.steps"]
    assert metrics["dualcore.calls"] > 0 and metrics["modes.synth.calls"] > 0
    assert record.bytes_written > 0


def test_uninstall_restores_every_binding():
    originals = (maxwell.current_spectra, fields.current_spectra, modes.two_field_energy,
                 __import__("numpy").fft.fftn)
    tracer = spans.Tracer()
    with tracer:
        assert maxwell.current_spectra is not originals[0]
        assert maxwell.current_spectra is fields.current_spectra
    assert (maxwell.current_spectra, fields.current_spectra, modes.two_field_energy,
            __import__("numpy").fft.fftn) == originals


def test_check_margins():
    Check = workloads.Check
    assert Check("r", 1e-15, 1e-10, "below").margin == pytest.approx(5.0)
    assert Check("r", 0.05, 1e-2, "above_eq").margin == pytest.approx(math.log10(5.0))
    assert Check("r", 0.0, 1e-8, "below").margin == workloads.MARGIN_CAP
    assert Check("em", 0.0, 0.0, "zero").ok and Check("em", 0.0, 0.0, "zero").margin == workloads.MARGIN_CAP
    failing = Check("r", 2e-10, 1e-10, "below")
    assert not failing.ok and failing.margin < 0
    assert not Check("r", math.nan, 1e-10, "below").ok


class _Fake(workloads.Workload):
    def __init__(self, outcomes):
        self.outcomes = outcomes

    def batch(self, seed, index):
        def verdict(outcome):
            def call():
                if outcome == "raise":
                    raise ValueError("boom")
                return [workloads.Check("r", outcome, 1.0, "below"),
                        workloads.Check("s", outcome, 1.0, "below")]
            return workloads.Verdict(str(outcome), call)
        return workloads.Batch([verdict(o) for o in self.outcomes], {"verdicts": len(self.outcomes)})


def test_failed_and_raising_verdicts_count_once_each():
    record = run.run_batch(_Fake([0.5, 2.0, "raise"]), _Fake([0.5, 2.0, "raise"]).batch(0, 0))
    assert record.failed == 2
    assert len(record.verdict_s) == 3
    metrics = run.end_to_end([record], [1.0], workloads.MARGIN_CAP)
    assert metrics["pass_share"] == pytest.approx(1 / 3)
    assert metrics["margin_decades"] < 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "dualbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "dualbench/run.py", "--workload", "coulomb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
