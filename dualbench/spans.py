"""Per-layer spans around dualfield's public entry points, from outside ``src/``.

``Tracer.install()`` replaces every public function binding of the package's
modules (including the names one module imports from another, such as
``maxwell.current_spectra``), the ``sample`` method of each field sampler and
the ``numpy.fft`` transforms with counting wrappers; ``uninstall()`` puts the
originals back.  Code that should be traced must therefore look functions up
through their module at call time (``maxwell.step_symmetric_maxwell(...)``).

Each wrapped call is a span with a key such as ``maxwell.step``.  A key's self
time is the time spent in its spans minus the part covered by child spans, so
the self times of one batch never add up to more than the batch's wall time.
FFT calls are counted, not timed: they are charged to the module whose code
called ``numpy.fft`` directly.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import tracemalloc
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

from dualfield import cli, dualcore, dynamics, fields, maxwell, modes

_MODULES = {"dualcore": dualcore, "fields": fields, "maxwell": maxwell,
            "modes": modes, "dynamics": dynamics, "cli": cli}

# Span keys below layer level; a function not listed here gets "<layer>.other",
# except in dualcore and cli, which are one key each.
_KEYS = {
    "fields": {
        "current_spectra": "fields.current_spectra",
        **dict.fromkeys(
            ("helmholtz_decompose", "fields_from_potentials", "deposit_sources",
             "coulomb_field_from_density", "source_spectra", "spectral_gradient",
             "spectral_divergence", "spectral_curl", "transverse_fraction",
             "longitudinal_fraction"),
            "fields.spectral"),
    },
    "maxwell": {
        "step_symmetric_maxwell": "maxwell.step",
        "dual_covariance_residual": "maxwell.residual",
    },
    "modes": {
        **dict.fromkeys(
            ("coulomb_mode_set", "coulomb_energy_real", "symmetric_charge_energy",
             "two_field_energy", "recommended_smearing"),
            "modes.coulomb"),
        "synthesize_potentials": "modes.synth",
        "noether_dual_charge": "modes.noether",
        "noether_dual_current": "modes.noether",
        "spin_observable": "modes.spin",
    },
    "dynamics": dict.fromkeys(
        ("push_particle", "classical_lorentz_force", "quantum_lorentz_force",
         "canonical_momentum"),
        "dynamics.push"),
}
_SAMPLERS = ("UniformFieldSampler", "MonopoleSampler", "PointChargeSampler", "GridFieldSampler")
_FFT_FORWARD = ("fft", "fft2", "fftn", "rfft", "rfft2", "rfftn", "ihfft")
_FFT_COMPLEX_FORWARD = ("fft", "fft2", "fftn")
_FFT_INVERSE = ("ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn", "hfft")


def span_key(layer: str, name: str) -> str:
    if layer in ("dualcore", "cli"):
        return layer
    return _KEYS.get(layer, {}).get(name, f"{layer}.other")


def lattice_points(ms) -> int:
    """Lattice points with |k| <= kmax of an implicit cubic ``ModeSet``.

    Counted slice by slice with the same expression the Coulomb pair sums
    use, so boundary points agree exactly.
    """
    return _lattice_points(ms.dk[0], ms.kmax)


@functools.lru_cache(maxsize=8)
def _lattice_points(dk: float, kmax: float) -> int:
    nmax = int(math.floor(kmax / dk))
    idx = np.arange(-nmax, nmax + 1)
    n_perp2 = idx[:, None] ** 2 + idx[None, :] ** 2
    kmax2 = kmax * kmax
    return int(sum(np.count_nonzero((dk * dk) * (ix * ix + n_perp2) <= kmax2) for ix in idx))


class Tracer:
    """Spans and counters for one traced run; collect() hands them out per batch.

    With ``track_alloc`` every outermost maxwell span runs under tracemalloc
    and the largest peak is kept; that slows numpy allocation, so such a
    batch is for the allocation figure only, not for times.
    """

    def __init__(self, record_spans: bool = False, track_alloc: bool = False) -> None:
        self.record_spans = record_spans
        self.track_alloc = track_alloc
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._alloc_depth = 0
        self.reset()

    # --- bookkeeping ---------------------------------------------------------

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.outer_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int | None, str, float, float]] = []

    def collect(self) -> dict:
        """Snapshot of everything recorded since the last collect, then reset."""
        snap = {
            "self_s": dict(self.self_s),
            "outer_s": dict(self.outer_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": self.spans,
        }
        self.reset()
        return snap

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, fn, key: str, before=None, after=None):
        tracer = self
        alloc_layer = self.track_alloc and key.startswith("maxwell.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [key, 0.0, span_id]
            stack.append(frame)
            if alloc_layer:
                if not tracer._alloc_depth:
                    tracemalloc.start()
                tracer._alloc_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if alloc_layer:
                    tracer._alloc_depth -= 1
                    if not tracer._alloc_depth:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        counts = tracer.counts
                        counts["maxwell.peak_alloc_bytes"] = max(
                            counts["maxwell.peak_alloc_bytes"], peak)
                stack.pop()
                elapsed = end - start
                tracer.self_s[key] += elapsed - frame[1]
                tracer.calls[key] += 1
                if parent is None or parent[0] != key:
                    tracer.outer_s[key] += elapsed
                if parent is not None:
                    parent[1] += elapsed
                if tracer.record_spans:
                    tracer.spans.append(
                        (span_id, parent[2] if parent is not None else None, key, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _wrap_fft(self, fn, name: str):
        tracer = self
        forward = name in _FFT_FORWARD
        complex_forward = name in _FFT_COMPLEX_FORWARD

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("dualfield."):
                counts = tracer.counts
                layer = caller.split(".")[1]
                points = int(np.size(a))
                counts[f"{layer}.fft_calls"] += 1
                counts[f"{layer}.fft_points"] += points
                if forward:
                    counts[f"{layer}.fft_forward_points"] += points
                    if complex_forward and not np.iscomplexobj(a):
                        counts[f"{layer}.fft_real_forward_points"] += points
            return fn(a, *args, **kwargs)

        return counted

    def _hooks(self, layer: str, name: str, fn):
        """Counters that need a call's arguments or result."""
        tracer = self
        signature = inspect.signature(fn)

        def bound(args, kwargs):
            ba = signature.bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments

        if (layer, name) == ("maxwell", "step_symmetric_maxwell"):
            def before(args, kwargs):
                a = bound(args, kwargs)
                tracer.counts["maxwell.cell_steps"] += math.prod(a["state"].grid.shape) * a["steps"]
            return before, None
        if (layer, name) in (("modes", "symmetric_charge_energy"), ("modes", "two_field_energy")):
            sums = 1 if name == "symmetric_charge_energy" else 2

            def before(args, kwargs):
                a = bound(args, kwargs)
                ms, n = a["ms"], len(a["sources"])
                counts = tracer.counts
                counts["modes.coulomb.pair_points"] += sums * (n * (n - 1) // 2) * lattice_points(ms)
                nmax = int(math.floor(ms.kmax / ms.dk[0]))
                counts["modes.coulomb.lattice_nmax"] = max(counts["modes.coulomb.lattice_nmax"], nmax)
            return before, None
        if (layer, name) == ("dynamics", "push_particle"):
            def after(args, kwargs, result):
                tracer.counts["dynamics.steps"] += len(result) - 1
            return None, after
        return None, None

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[object, object] = {}
        owners = list(_MODULES.values()) + [sys.modules["dualfield"]]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("dualfield.") or home not in _MODULES:
                    continue
                if value not in wrapped:
                    before, after = self._hooks(home, value.__name__, value)
                    wrapped[value] = self._wrap(value, span_key(home, value.__name__), before, after)
                self._patch(owner, attr, wrapped[value])
        def count_eval(args, kwargs):
            self.counts["dynamics.force_evals"] += 1

        for cls_name in _SAMPLERS:
            cls = getattr(dynamics, cls_name, None)
            if cls is not None and "sample" in vars(cls):
                self._patch(cls, "sample", self._wrap(vars(cls)["sample"], "dynamics.push", count_eval))
        for name in _FFT_FORWARD + _FFT_INVERSE:
            if hasattr(np.fft, name):
                self._patch(np.fft, name, self._wrap_fft(getattr(np.fft, name), name))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# --- per-layer metrics -----------------------------------------------------------

PER_LAYER_UNITS = {
    "maxwell.step.calls": "count",
    "maxwell.step.self_s": "s",
    "maxwell.cell_steps_per_s": "1/s",
    "maxwell.residual.self_s": "s",
    "maxwell.fft_calls": "count",
    "maxwell.fft_points": "count",
    "maxwell.fft_real_input_share": "share",
    "maxwell.peak_alloc_mb": "MB",
    "fields.current_spectra.calls": "count",
    "fields.current_spectra.self_s": "s",
    "fields.spectral.self_s": "s",
    "fields.fft_calls": "count",
    "fields.fft_points": "count",
    "fields.fft_real_input_share": "share",
    "modes.coulomb.self_s": "s",
    "modes.coulomb.pair_points": "count",
    "modes.coulomb.pair_points_per_s": "1/s",
    "modes.coulomb.lattice_nmax": "count",
    "modes.synth.calls": "count",
    "modes.synth.self_s": "s",
    "modes.noether.self_s": "s",
    "modes.spin.self_s": "s",
    "modes.fft_points": "count",
    "dynamics.push.self_s": "s",
    "dynamics.force_evals": "count",
    "dynamics.us_per_force_eval": "us",
    "dynamics.steps": "count",
    "dualcore.calls": "count",
    "dualcore.self_s": "s",
    "dualcore.us_per_call": "us",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metrics of one traced batch (``trace.overhead_s``,
    ``cli.bytes_written`` and ``maxwell.peak_alloc_mb`` are filled in by the
    caller)."""
    s, o, n, c = snap["self_s"], snap["outer_s"], snap["calls"], snap["counts"]

    def get(d, key):
        return d.get(key, 0)

    def layer_self(layer):
        return sum(v for k, v in s.items() if k == layer or k.startswith(layer + "."))

    def share(layer):
        return _ratio(get(c, f"{layer}.fft_real_forward_points"), get(c, f"{layer}.fft_forward_points"))

    return {
        "maxwell.step.calls": get(n, "maxwell.step"),
        "maxwell.step.self_s": get(s, "maxwell.step"),
        "maxwell.cell_steps_per_s": _ratio(get(c, "maxwell.cell_steps"), get(o, "maxwell.step")),
        "maxwell.residual.self_s": get(s, "maxwell.residual"),
        "maxwell.fft_calls": get(c, "maxwell.fft_calls"),
        "maxwell.fft_points": get(c, "maxwell.fft_points"),
        "maxwell.fft_real_input_share": share("maxwell"),
        "fields.current_spectra.calls": get(n, "fields.current_spectra"),
        "fields.current_spectra.self_s": get(s, "fields.current_spectra"),
        "fields.spectral.self_s": get(s, "fields.spectral"),
        "fields.fft_calls": get(c, "fields.fft_calls"),
        "fields.fft_points": get(c, "fields.fft_points"),
        "fields.fft_real_input_share": share("fields"),
        "modes.coulomb.self_s": get(s, "modes.coulomb"),
        "modes.coulomb.pair_points": get(c, "modes.coulomb.pair_points"),
        "modes.coulomb.pair_points_per_s": _ratio(get(c, "modes.coulomb.pair_points"),
                                                  get(s, "modes.coulomb")),
        "modes.coulomb.lattice_nmax": get(c, "modes.coulomb.lattice_nmax"),
        "modes.synth.calls": get(n, "modes.synth"),
        "modes.synth.self_s": get(s, "modes.synth"),
        "modes.noether.self_s": get(s, "modes.noether"),
        "modes.spin.self_s": get(s, "modes.spin"),
        "modes.fft_points": get(c, "modes.fft_points"),
        "dynamics.push.self_s": get(s, "dynamics.push"),
        "dynamics.force_evals": get(c, "dynamics.force_evals"),
        "dynamics.us_per_force_eval": 1e6 * _ratio(get(o, "dynamics.push"), get(c, "dynamics.force_evals")),
        "dynamics.steps": get(c, "dynamics.steps"),
        "dualcore.calls": get(n, "dualcore"),
        "dualcore.self_s": layer_self("dualcore"),
        "dualcore.us_per_call": 1e6 * _ratio(layer_self("dualcore"), get(n, "dualcore")),
        "cli.self_s": layer_self("cli"),
    }


def peak_alloc_mb(snap: dict) -> float:
    return snap["counts"].get("maxwell.peak_alloc_bytes", 0) / 2**20


def traced_self_total(snap: dict) -> float:
    return sum(snap["self_s"].values())


def span_problems(snap: dict, wall_s: float, tol: float = 1e-6) -> list[str]:
    """Sanity of one traced batch: spans nest, self times are non-negative and
    self times plus the untraced remainder add up to the batch wall time."""
    problems = [f"negative self time {k}={v}" for k, v in snap["self_s"].items() if v < -tol]
    remainder = wall_s - traced_self_total(snap)
    if remainder < -tol:
        problems.append(f"self times exceed wall time by {-remainder}")
    by_id = {span[0]: span for span in snap["spans"]}
    for span_id, parent_id, key, start, end in snap["spans"]:
        if end < start:
            problems.append(f"span {key} ends before it starts")
        parent = by_id.get(parent_id)
        if parent is not None and not (parent[3] <= start and end <= parent[4]):
            problems.append(f"span {key} is not inside its parent {parent[2]}")
    return problems


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
