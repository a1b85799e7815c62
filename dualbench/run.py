"""dualfield benchmark: time-to-verdict of the acceptance checks.

    python3 dualbench/run.py --workload {evolve-coulomb,scenarios,evolve,coulomb} \\
        --seed N --seconds S --trace {0,1}

One process, one caller, closed loop: the next verdict starts when the last
one ends.  The run sets up (imports dualfield from ``src/`` of this checkout,
generates the seeded inputs, fills lazy caches), then times batches of
verdicts until ``--seconds`` would be exceeded, always at least one.  Every
verdict is checked against its acceptance bound.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics, measured with no tracing installed; ``setup_s`` is the
median of several fresh child processes that each set up and exit.  With
``--trace 1`` untraced and traced batches alternate and the JSON holds the
per-layer metrics of the traced ones (medians over batches) plus the tracing
overhead.  Earlier stdout lines give the environment, the filled caches, the
cost-driving sizes and every metric by name and unit.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".dualbench_work"
SETUP_PROBES = 3
MIN_BATCHES = 3  # every run times at least this many; margins come from exactly these
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "verdict_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "margin_decades": "decades",
    "pass_share": "share",
}


@dataclass
class BatchRecord:
    wall_s: float
    verdict_s: list[float]
    kinds: list[str]
    checks: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    sizes: dict = field(default_factory=dict)
    bytes_written: int = 0
    traced: bool = False
    snapshot: dict | None = None
    per_verdict: list[dict] = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("evolve-coulomb", "scenarios", "evolve", "coulomb"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time setup_s)")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "dualfield").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": src_lines,
    }


def setup(workloads, name: str, seed: int, workdir: Path):
    """Build the workload, generate the first batch and fill lazy caches."""
    workload = workloads.make_workload(name, workdir)
    before = workloads.cache_fill()
    first = workload.batch(seed, 0)
    warmed = workload.warm(first)
    after = workloads.cache_fill()
    caches = {
        "filled": [k for k, v in after.items() if v > before.get(k, 0)] + warmed,
        "empty": [k for k, v in after.items() if v == 0],
    }
    return workload, first, caches


def probe_setup(args) -> float:
    """Wall time from starting a fresh interpreter to the end of its setup."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("setup probe timed out")
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def run_batch(workload, batch, tracer=None) -> BatchRecord:
    workload.begin_batch()
    record = BatchRecord(0.0, [], [], sizes=batch.sizes, traced=tracer is not None)
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for verdict in batch.verdicts:
            if tracer is not None:
                calls, outer = dict(tracer.calls), dict(tracer.outer_s)
            v0 = time.perf_counter()
            try:
                checks = verdict.call()
                failures = [f"{verdict.kind}: {c.name}={c.value!r} vs {c.sense} {c.bound!r}"
                            for c in checks if not c.ok]
            except Exception as exc:  # a verdict that raises is a failed verdict
                checks = []
                failures = [f"{verdict.kind}: raised {type(exc).__name__}: {exc}"]
            elapsed = time.perf_counter() - v0
            record.verdict_s.append(elapsed)
            record.kinds.append(verdict.kind)
            record.checks.extend(checks)
            record.failures.extend(failures)
            record.failed += bool(failures)
            if tracer is not None:
                record.per_verdict.append(_verdict_counts(tracer, verdict.kind, elapsed, calls, outer))
        record.wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        record.snapshot = tracer.collect()
    workload.end_batch(batch)
    record.bytes_written = batch.bytes_written
    return record


def _verdict_counts(tracer, kind, elapsed, calls_before, outer_before) -> dict:
    def delta(d, before, key):
        return d.get(key, 0) - before.get(key, 0)

    step_calls = delta(tracer.calls, calls_before, "maxwell.step")
    return {
        "kind": kind,
        "wall_s": elapsed,
        "fields.current_spectra.calls": delta(tracer.calls, calls_before, "fields.current_spectra"),
        "maxwell.step.calls": step_calls,
        "maxwell.step.s_per_call": delta(tracer.outer_s, outer_before, "maxwell.step") / step_calls
        if step_calls else 0.0,
        "dynamics.push.s": delta(tracer.outer_s, outer_before, "dynamics.push"),
    }


def run_batches(workload, first, seed: int, seconds: float, tracer=None) -> list[BatchRecord]:
    """Time batches until the next one would end after ``seconds``, and at
    least MIN_BATCHES; with a tracer, untraced and traced batches alternate."""
    records: list[BatchRecord] = []
    batch = first
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        records.append(run_batch(workload, batch, tracer if traced else None))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in records)
        if len(records) >= MIN_BATCHES and elapsed + typical > seconds:
            return records
        batch = workload.batch(seed, len(records))


def end_to_end(records, setup_samples, margin_cap: float) -> dict[str, float]:
    attempted = sum(len(r.verdict_s) for r in records)
    failed = sum(r.failed for r in records)
    # a fixed set of batches, so the margin is the same on every run of a seed
    margins = [c.margin for r in records[:MIN_BATCHES] for c in r.checks]
    return {
        "wall_s": statistics.median(r.wall_s for r in records),
        "verdict_s_p50": statistics.median(statistics.median(r.verdict_s) for r in records),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "margin_decades": min(margins) if margins else -margin_cap,
        "pass_share": 1.0 - failed / attempted,
    }


def per_layer(spans, records, alloc_mb: float) -> tuple[dict[str, float], list[str]]:
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    rows, problems = [], []
    for r in traced:
        row = spans.layer_metrics(r.snapshot)
        row["cli.bytes_written"] = r.bytes_written
        rows.append(row)
        problems.extend(spans.span_problems(r.snapshot, r.wall_s))
    metrics = spans.median_metrics(rows)
    metrics["maxwell.peak_alloc_mb"] = alloc_mb
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                   - statistics.median(r.wall_s for r in untraced))
    return {k: metrics[k] for k in spans.PER_LAYER_UNITS}, problems


def emit(tag: str, payload) -> None:
    print(f"{tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def run(args, workdir: Path) -> int:
    import spans
    import workloads

    workload, first, caches = setup(workloads, args.workload, args.seed, workdir)
    main_setup_s = time.perf_counter() - _T0
    emit("env", environment())
    emit("caches", caches)
    tracer = None
    setup_samples = []
    if args.trace:
        tracer = spans.Tracer(record_spans=True)
    else:
        setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    records = run_batches(workload, first, args.seed, args.seconds, tracer)
    checked = list(records)
    alloc_mb = 0.0
    if args.trace and any(r.snapshot["calls"].get("maxwell.step") for r in records if r.traced):
        # one more batch, untimed, for the peak allocation inside maxwell
        probe = run_batch(workload, workload.batch(args.seed, len(records)),
                          spans.Tracer(track_alloc=True))
        alloc_mb = spans.peak_alloc_mb(probe.snapshot)
        checked.append(probe)

    failures = [f for r in checked for f in r.failures]
    failed = sum(r.failed for r in checked)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    size_sets = {json.dumps(r.sizes, sort_keys=True) for r in records}
    problems = [] if len(size_sets) == 1 else [f"batch sizes differ: {sorted(size_sets)}"]
    emit("sizes", {**records[0].sizes, "batches": len(records),
                   "verdicts_timed": sum(len(r.verdict_s) for r in records)})
    emit("batches", [{"traced": r.traced, "wall_s": r.wall_s,
                      "verdicts": dict(zip(r.kinds, r.verdict_s))} for r in records])

    attempted = sum(len(r.verdict_s) for r in checked)
    if args.trace:
        metrics, span_faults = per_layer(spans, records, alloc_mb)
        problems += span_faults
        units = spans.PER_LAYER_UNITS
        emit("per_verdict", [v for r in records if r.traced for v in r.per_verdict])
    else:
        metrics = end_to_end(records, setup_samples, workloads.MARGIN_CAP)
        units = END_TO_END_UNITS
        emit("setup", {"probes_s": setup_samples, "main_process_s": main_setup_s})
        print(f"metric failed_share = {failed / attempted!r} share "
              f"({failed} of {attempted} verdicts)")
    counts = {"batches": len(records), "verdicts": attempted}
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]} ({counts})")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualfield" / "__init__.py").is_file():
        print(f"error: no dualfield sources at {SRC}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import dualfield

    if Path(dualfield.__file__).resolve().parent != SRC / "dualfield":
        print(f"error: imported dualfield from {dualfield.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / str(os.getpid())
    try:
        if args.setup_probe:
            import workloads

            setup(workloads, args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
