"""Seeded inputs and verdicts of the benchmark's workloads.

A verdict is one acceptance-style check: calls into dualfield's public API
whose result is compared against the bound the acceptance gate uses.  A batch
is the fixed set of verdicts that one timing sample covers.  A seed changes
the values in a batch, never its sizes, so every batch of a workload does the
same amount of work.

Library functions are looked up through their module at call time
(``maxwell.dual_covariance_residual``) so that a tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from dualfield import cli, dualcore, fields, maxwell, modes
from dualfield.dualcore import ChargePair, FieldVecPair, UnitSystem
from dualfield.fields import Grid3, PointSource, VectorField
from dualfield.maxwell import EMState
from spans import lattice_points

NAT = UnitSystem.natural()
MARGIN_CAP = 16.0  # decades credited to a check whose value is exactly zero

# lazy caches that warm-up may fill: (module, attribute)
CACHES = (("modes", "_near_weight_table"), ("modes", "_gauss_rule"),
          ("fields", "_kgrid"), ("fields", "_ksquared"))


@dataclass
class Check:
    """A value against its acceptance bound.

    ``sense`` is "below" (value < bound), "zero" (value == 0.0 exactly), or
    the CLI's inclusive "below_eq" (value <= bound) and "above_eq"
    (value >= bound).
    """

    name: str
    value: float
    bound: float
    sense: str

    @property
    def ok(self) -> bool:
        v, b = self.value, self.bound
        return {
            "below": v < b, "below_eq": v <= b, "above_eq": v >= b, "zero": v == 0.0,
        }[self.sense]

    @property
    def margin(self) -> float:
        """Distance from the bound in decades, capped at MARGIN_CAP; negative
        when the check fails."""
        v, b = abs(self.value), self.bound
        if math.isnan(v):
            return -MARGIN_CAP
        if self.sense == "zero" or b == 0.0:
            return MARGIN_CAP if v == 0.0 else -MARGIN_CAP
        if self.sense.startswith("below"):
            ratio = b / v if v > 0.0 else math.inf
        else:
            ratio = v / b
        if ratio <= 0.0:
            return -MARGIN_CAP
        return max(-MARGIN_CAP, min(MARGIN_CAP, math.log10(ratio)))


@dataclass
class Verdict:
    kind: str
    call: Callable[[], list[Check]]


@dataclass
class Batch:
    verdicts: list[Verdict]
    sizes: dict = field(default_factory=dict)
    bytes_written: int = 0


class Workload:
    """Hooks around each batch; the default does nothing."""

    def begin_batch(self) -> None:
        pass

    def end_batch(self, batch: Batch) -> None:
        pass


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([abs(seed), int(seed < 0), index])


def cache_fill() -> dict[str, int]:
    """Entries currently held by each known lazy cache (absent caches omitted)."""
    held = {}
    for module, attr in CACHES:
        fn = getattr({"modes": modes, "fields": fields}[module], attr, None)
        if fn is not None and hasattr(fn, "cache_info"):
            held[f"{module}.{attr}"] = fn.cache_info().currsize
    return held


# --- evolve: acceptance criterion 2 --------------------------------------------


class Evolve(Workload):
    """Covariance residual of a 32^3 random-wave state over 100 RK4 steps.

    A batch is one source-free verdict and one verdict on a state carrying
    two moving sources, shared-ratio in even batches and independent-ratio
    in odd ones; two consecutive batches cover the four default angles.
    Both sourced kinds cost the same.  Source-free verdicts never build
    current spectra, so a propagator change and a forcing-spectrum change
    show separately.
    """

    name = "evolve"
    N = 32
    STEPS = 100
    DT = 0.005
    SIGMA = 0.5
    LIMIT = 1e-10

    def __init__(self, steps: int = STEPS) -> None:
        self.grid = Grid3((self.N,) * 3, (2.0 * math.pi,) * 3)
        self.steps = steps

    def _sources(self, rng, kind: str) -> list[PointSource]:
        L = self.grid.L[0]
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        out = []
        for i in range(2):
            position = rng.uniform(0.5, L - 0.5, size=3)
            direction = rng.normal(size=3)
            velocity = rng.uniform(0.02, 0.06) * direction / np.linalg.norm(direction)
            t = rng.uniform(0.4, 1.2) * rng.choice([-1.0, 1.0])
            if kind == "shared":
                charges = ChargePair(t * math.cos(alpha), t * math.sin(alpha))
            else:
                charges = ChargePair(t, 0.0) if i == 0 else ChargePair(0.0, t)
            out.append(PointSource(position, velocity, charges, self.SIGMA))
        return out

    def _state(self, rng, kind: str) -> EMState:
        waves = cli.random_wave_fields(self.grid, NAT, rng)
        if kind == "free":
            return EMState(0.0, self.grid, waves, [])
        sources = self._sources(rng, kind)
        rho_e, rho_m, _, _ = fields.deposit_sources(sources, self.grid)
        E_long = fields.coulomb_field_from_density(rho_e, 1.0 / NAT.eps0)
        B_long = fields.coulomb_field_from_density(rho_m, 1.0)
        return EMState(0.0, self.grid,
                       FieldVecPair(waves.E + E_long.data, waves.B + B_long.data), sources)

    def batch(self, seed: int, index: int) -> Batch:
        rng = _rng(seed, index)
        kinds = ("free", "shared" if index % 2 == 0 else "independent")
        verdicts = []
        for i, kind in enumerate(kinds):
            state = self._state(rng, kind)
            theta = cli.DEFAULT_THETAS[(2 * index + i) % len(cli.DEFAULT_THETAS)]

            def call(state=state, theta=theta, shared=kind != "independent"):
                residual = maxwell.dual_covariance_residual(
                    state, theta, self.steps, self.DT, NAT, require_shared_ratio=shared)
                return [Check("covariance_residual", residual, self.LIMIT, "below")]

            verdicts.append(Verdict(kind, call))
        cells = math.prod(self.grid.shape)
        sizes = {
            "grid_cells": cells,
            "steps_per_evolution": self.steps,
            "verdicts": len(verdicts),
            "sourced_verdicts": 1,
            "evolutions": 2 * len(verdicts),
            "cell_steps": 2 * len(verdicts) * self.steps * cells,
        }
        return Batch(verdicts, sizes)

    def warm(self, batch: Batch) -> list[str]:
        """One sourced step on the benchmark grid: FFT plans, k-grid, spectra."""
        state = self._state(np.random.default_rng(0), "shared")
        maxwell.step_symmetric_maxwell(state, self.DT, NAT, 1)
        return [f"numpy.fft plan {'x'.join(map(str, self.grid.shape))}"]


# --- coulomb: acceptance criteria 4 and 5 -----------------------------------------


class Coulomb(Workload):
    """Mode-sum against real-space Coulomb energy, one- and two-field, on
    seeded shared-ratio configurations of 2, 3 and 4 static sources.

    The widest pair is always WIDEST apart, so the lattice (nmax, point count)
    is the same for every seed; every other pair is between MIN_SEP and
    WIDEST apart.  Charges share one sign, so the total energy never cancels.
    """

    name = "coulomb"
    SIGMA = 0.15
    WIDEST = 1.0
    MIN_SEP = 0.7
    COUNTS = (2, 3, 4)
    MAX_REL = 0.01

    def __init__(self, kmax_sigma: float = 6.0, dk_r: float = 0.3) -> None:
        self.kmax_sigma = kmax_sigma
        self.dk_r = dk_r

    def _sources(self, rng, count: int) -> list[PointSource]:
        centre = rng.uniform(-1.0, 1.0, size=3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        positions = [centre - 0.5 * self.WIDEST * axis, centre + 0.5 * self.WIDEST * axis]
        for _ in range(100_000):
            if len(positions) == count:
                break
            candidate = centre + rng.uniform(-self.WIDEST, self.WIDEST, size=3)
            distances = [np.linalg.norm(candidate - p) for p in positions]
            if all(self.MIN_SEP <= d <= 0.98 * self.WIDEST for d in distances):
                positions.append(candidate)
        else:
            raise RuntimeError(f"could not place {count} sources")
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        sources = []
        for position in positions:
            t = rng.uniform(0.4, 1.2)
            charges = ChargePair(t * math.cos(alpha), t * math.sin(alpha))
            sources.append(PointSource(position, np.zeros(3), charges, self.SIGMA))
        return sources

    def _verdict(self, sources: list[PointSource]) -> list[Check]:
        ms = modes.coulomb_mode_set(sources, kmax_sigma=self.kmax_sigma, dk_r=self.dk_r)
        real = modes.coulomb_energy_real(sources, NAT)
        theta = dualcore.asymmetrizing_angle(sources[0].charges, NAT)
        mode = modes.symmetric_charge_energy(sources, theta, ms, NAT)
        ee, mm, em = modes.two_field_energy(sources, ms, NAT)
        return [
            Check("coulomb_rel_difference", abs(mode - real) / abs(real), self.MAX_REL, "below"),
            Check("two_field_rel_difference", abs(ee + mm - real) / abs(real), self.MAX_REL, "below"),
            Check("cross_term", em, 0.0, "zero"),
        ]

    def batch(self, seed: int, index: int) -> Batch:
        rng = _rng(seed, index)
        configs = [self._sources(rng, count) for count in self.COUNTS]
        verdicts = [Verdict(f"{len(s)}-sources", lambda s=s: self._verdict(s)) for s in configs]
        ms = modes.coulomb_mode_set(configs[0], kmax_sigma=self.kmax_sigma, dk_r=self.dk_r)
        points = lattice_points(ms)
        pairs = sum(n * (n - 1) // 2 for n in self.COUNTS)
        sizes = {
            "verdicts": len(verdicts),
            "sources": list(self.COUNTS),
            "pairs": pairs,
            "lattice_nmax": int(math.floor(ms.kmax / ms.dk[0])),
            "lattice_points": points,
            "pair_sums": 3 * len(verdicts),
            "pair_points": 3 * pairs * points,
        }
        return Batch(verdicts, sizes)

    def warm(self, batch: Batch) -> list[str]:
        """A pair energy on a tiny lattice fills the exact near-cell weights."""
        pair = [PointSource(np.zeros(3), np.zeros(3), ChargePair(1.0, 0.0), self.SIGMA),
                PointSource(np.array([self.WIDEST, 0.0, 0.0]), np.zeros(3),
                            ChargePair(1.0, 0.0), self.SIGMA)]
        modes.symmetric_charge_energy(pair, 0.0, modes.ModeSet.lattice(dk=1.0, kmax=3.0), NAT)
        return []


# --- scenarios: the light CLI scenarios -------------------------------------------


class Scenarios(Workload):
    """The light CLI scenarios, run in-process through ``cli.main``.

    Each verdict is one ``dualfield run``: exit code 0, ``status=pass`` and
    every ``<key>_limit`` / ``<key>_floor`` line of summary.txt are checked,
    and a flyby trajectory that ends early fails the verdict.  noether-zero
    keeps its built-in seed: its sensitivity check fails for about 2% of
    other seeds (``--seed 9``, 25, 44 and 126 below 200 exit 3), a defect of
    that scenario which a seeded verdict would turn into random failures.
    """

    name = "scenarios"
    SCENARIOS = ("monopole-flyby", "rotation-properties", "noether-zero", "helicity-conservation")
    FLYBY_STEPS = 1600
    FLYBY_TRAJECTORIES = 2

    def __init__(self, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self.configs = self.workdir / "configs"
        self.outputs = self.workdir / "out"
        self.configs.mkdir(parents=True, exist_ok=True)
        for name in self.SCENARIOS:
            (self.configs / f"{name}.ini").write_text(f"[scenario]\nname = {name}\n")
        self.bytes_written = 0
        self.steps_completed = 0

    def _arguments(self, rng, name: str) -> list[str]:
        seed = ["--seed", str(int(rng.integers(1, 2**31)))]
        if name == "monopole-flyby":
            # small offsets: the flyby's out-of-plane ratio sets the run's margin
            y = 1.0 + rng.uniform(-0.02, 0.02)
            vx = 0.05 * (1.0 + rng.uniform(-0.01, 0.01))
            return seed + ["--override", f"particle.position=-2.0 {y!r} 0.0",
                           "--override", f"particle.velocity={vx!r} 0.0 0.0"]
        if name == "helicity-conservation":
            return seed + ["--override", f"rotation.theta={rng.uniform(0.2, 1.2)!r}"]
        if name == "noether-zero":
            return []
        return seed

    def _verdict(self, name: str, arguments: list[str], outdir: Path) -> list[Check]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(self.configs / f"{name}.ini"), "--out", str(outdir)]
                            + arguments)
        checks = [Check("exit_code", code, 0.0, "zero")]
        summary_path = outdir / "summary.txt"
        if not summary_path.is_file():
            return checks + [Check("summary_written", 1.0, 0.0, "zero")]
        summary = dict(line.split("=", 1) for line in summary_path.read_text().splitlines())
        checks.append(Check("status_pass", float(summary.get("status") != "pass"), 0.0, "zero"))
        for key, raw in summary.items():
            if key.endswith("_limit"):
                base = key[: -len("_limit")]
                checks.append(Check(base, float(summary[base]), float(raw), "below_eq"))
            elif key.endswith("_floor"):
                base = key[: -len("_floor")]
                checks.append(Check(base, float(summary[base]), float(raw), "above_eq"))
        if name == "monopole-flyby":
            done = sum(int(summary[f"{m}_steps"]) for m in ("classical", "quantum"))
            self.steps_completed += done
            checks.append(Check("flyby_steps_missing",
                                self.FLYBY_TRAJECTORIES * self.FLYBY_STEPS - done, 0.0, "zero"))
        self.bytes_written += sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
        return checks

    def batch(self, seed: int, index: int) -> Batch:
        rng = _rng(seed, index)
        verdicts = []
        for name in self.SCENARIOS:
            outdir = self.outputs / f"{index}-{name}"

            def call(name=name, arguments=self._arguments(rng, name), outdir=outdir):
                return self._verdict(name, arguments, outdir)

            verdicts.append(Verdict(name, call))
        sizes = {
            "verdicts": len(verdicts),
            "flyby_trajectories": self.FLYBY_TRAJECTORIES,
            "flyby_steps_requested": self.FLYBY_TRAJECTORIES * self.FLYBY_STEPS,
        }
        return Batch(verdicts, sizes)

    def begin_batch(self) -> None:
        shutil.rmtree(self.outputs, ignore_errors=True)
        self.bytes_written = 0
        self.steps_completed = 0

    def end_batch(self, batch: Batch) -> None:
        batch.sizes["trajectory_steps_completed"] = self.steps_completed
        batch.bytes_written = self.bytes_written
        shutil.rmtree(self.outputs, ignore_errors=True)

    def warm(self, batch: Batch) -> list[str]:
        """A Helmholtz split on the scenarios' 16^3 grid: FFT plans and k-grid."""
        grid = Grid3((16, 16, 16), (2.0 * math.pi,) * 3)
        fields.helmholtz_decompose(VectorField(grid, np.zeros((3,) + grid.shape)))
        return ["numpy.fft plan 16x16x16"]


# --- evolve-coulomb: criteria 2, 4 and 5 in one batch ------------------------------


class EvolveCoulomb(Workload):
    """An ``evolve`` batch and a ``coulomb`` batch of the same seed and index,
    timed as one batch of five verdicts.

    On a shared host separate runs of each would be too short to average
    over the host's slow phases; together they get twice the time per run.
    The per-layer metrics still split the stepper from the lattice sums,
    and ``scenarios`` bypasses both.
    """

    name = "evolve-coulomb"

    def __init__(self) -> None:
        self.parts = (Evolve(), Coulomb())

    def batch(self, seed: int, index: int) -> Batch:
        batches = [part.batch(seed, index) for part in self.parts]
        sizes = {f"{part.name}.{key}": value
                 for part, batch in zip(self.parts, batches) for key, value in batch.sizes.items()}
        return Batch([v for batch in batches for v in batch.verdicts], sizes)

    def warm(self, batch: Batch) -> list[str]:
        return [note for part in self.parts for note in part.warm(batch)]


def make_workload(name: str, workdir: Path):
    if name == "evolve":
        return Evolve()
    if name == "coulomb":
        return Coulomb()
    if name == "evolve-coulomb":
        return EvolveCoulomb()
    if name == "scenarios":
        return Scenarios(workdir)
    raise ValueError(f"unknown workload {name!r}")
