"""Command-line scenario runner.

Usage::

    dualfield run <config.ini> [--out DIR] [--seed N] [--override sec.key=val ...]

Each scenario computes a set of residuals, writes every one of them (with
its limit) to ``summary.txt`` as sorted ``key=value`` lines, and exits 0
when all checks pass.  Exit codes: 0 success, 1 usage or configuration
error (including a value that is not finite or out of range, a given key
the scenario never reads, and a value whose computation overflows or
turns invalid), 2 precondition violation (for example an unstable time
step), 3 a residual check failed.  Each scenario reads and checks every key
before it computes, and returns its files unwritten; ``run_scenario`` writes
them only after the scenario returns, so exit 1 or 2 creates no output
directory.  Identical configuration and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from collections.abc import Callable
from functools import partial
from pathlib import Path

import numpy as np

from .dualcore import (
    ChargePair,
    FieldVecPair,
    PotentialPair,
    UnitSystem,
    _asymmetrizing_angle,
    _charge_norm,
    _rotate,
    asymmetrizing_angle,
    charge_norm,
    field_quadratic_form,
    inverse_rotate_fields,
    potential_quadratic_form,
    rotate_charge_components,
    rotate_charges,
    rotate_fields,
    rotate_potentials,
)
from .errors import ConfigError, PreconditionError
from .fields import (
    Grid3,
    PointSource,
    VectorField,
    _gradient_hat,
    _to_grid,
    coulomb_field_from_density,
    deposit_sources,
    save_field,
)
from .maxwell import (
    EMState,
    _checked_spectra,
    _covariance_defect,
    _evolve_spectra,
    _evolved_state,
    field_energy,
    gauss_residuals,
)
from .dynamics import (
    SPEED_GUARD_FRACTION,
    MonopoleSampler,
    ParticleState,
    in_plane_span,
    out_of_plane_component,
    plane_normal,
    push_particle,
)
from .modes import (
    ModeAmplitudeSet,
    ModeSet,
    _coulomb_pair_sum,
    _noether_current,
    _sector_potentials,
    _spin_hat,
    _synthesis_hat,
    coulomb_energy_real,
    coulomb_mode_set,
    free_evolve_modes,
    noether_dual_charge,
    recommended_smearing,
    symmetric_charge_energy,
    synthesize_potentials,
    two_field_energy,
)

DEFAULT_THETAS = (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 2)
# largest Coulomb lattice nmax = kmax / dk; the acceptance gate needs 363, the defaults 100
MAX_LATTICE_NMAX = 1000
MAX_GRID_N = 64  # largest cells per grid axis; tier-1, defaults and benchmark use at most 32
# largest [evolution] steps of dual-covariance and monopole-flyby; their defaults, the tests
# and the acceptance gate use at most 1600
MAX_STEPS = 100_000
WAVE_INDEX_MAX = 3  # largest wavenumber index per axis of random_wave_fields


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are code 1
        raise ConfigError(message)


# --- configuration ------------------------------------------------------------


class ScenarioConfig:
    """Typed view over the INI configuration with per-key defaults."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self._read: set[tuple[str, str]] = set()
        self.name = self._raw("scenario", "name")
        if self.name is None:
            raise ConfigError("missing [scenario] name")
        self.seed = self.get_int("scenario", "seed", 0, at_least=0)
        c = self.get_float("units", "c", 1.0, above=0)
        eps0 = self.get_float("units", "eps0", 1.0, above=0)
        try:
            self.units = UnitSystem(c=c, eps0=eps0)
        except ValueError as exc:
            raise ConfigError(f"[units] c and [units] eps0: {exc}") from exc

    def _raw(self, section: str, key: str):
        self._read.add((section, self.parser.optionxform(key)))
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        return None

    def _given_keys(self, read: bool) -> list[str]:
        """``[section] key`` of every key the config gives, but ``[scenario]
        name``, that a getter has (``read``) or has not asked for."""
        return [f"[{section}] {key}" for section in self.parser.sections()
                for key in self.parser[section] if (section, key) != ("scenario", "name")
                and ((section, key) in self._read) == read]

    def check_all_read(self) -> None:
        """Raise ``ConfigError`` naming every given key that no getter has
        asked for; each runner calls it after its last read, before any work."""
        unread = self._given_keys(read=False)
        if unread:
            raise ConfigError(f"{self.name} reads no {', '.join(unread)}")

    @staticmethod
    def _check(section: str, key: str, raw: str, values, above=None, at_least=None,
               at_most=None) -> None:
        """The bounds of every numeric getter: each value must be finite, above
        ``above``, at least ``at_least`` and at most ``at_most`` where those
        are given."""
        if not all(-math.inf < v < math.inf for v in values):
            raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
        if above is not None and min(values) <= above:
            raise ConfigError(f"[{section}] {key} must be above {above}, got {raw!r}")
        if at_least is not None and min(values) < at_least:
            raise ConfigError(f"[{section}] {key} must be at least {at_least}, got {raw!r}")
        if at_most is not None and max(values) > at_most:
            raise ConfigError(f"[{section}] {key} must be at most {at_most}, got {raw!r}")

    def _parsed(self, section: str, key: str, parse, what: str):
        """A key's raw text and ``parse`` of it; ``(None, None)`` when not given."""
        raw = self._raw(section, key)
        if raw is None:
            return None, None
        try:
            return raw, parse(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} must be {what}, got {raw!r}") from exc

    def _floats(self, section: str, key: str):  # a whitespace-separated list
        return self._parsed(section, key, lambda raw: [float(v) for v in raw.split()], "numbers")

    def _number(self, section: str, key: str, default, parse, what: str, bounds: dict):
        raw, value = self._parsed(section, key, parse, what)
        if raw is None:
            return default
        self._check(section, key, raw, [value], **bounds)
        return value

    def get_float(self, section: str, key: str, default: float, **bounds) -> float:
        return self._number(section, key, default, float, "a number", bounds)

    def get_int(self, section: str, key: str, default: int, **bounds) -> int:
        return self._number(section, key, default, int, "an integer", bounds)

    def get_vector(self, section: str, key: str, default, **bounds) -> np.ndarray:
        raw, parts = self._floats(section, key)
        if raw is None:
            return np.asarray(default, dtype=float)
        if len(parts) == 1:
            parts = parts * 3
        if len(parts) != 3:
            raise ConfigError(f"[{section}] {key} needs 1 or 3 numbers, got {raw!r}")
        self._check(section, key, raw, parts, **bounds)
        return np.asarray(parts)

    def grid(self, default_n: int = 32) -> Grid3:
        n = self.get_vector("grid", "n", [default_n] * 3, at_most=MAX_GRID_N)
        L = self.get_vector("grid", "L", [2.0 * math.pi] * 3)
        if np.any(n != np.round(n)):
            raise ConfigError(f"[grid] n must be whole cell counts, got {self._raw('grid', 'n')!r}")
        try:
            return Grid3(tuple(int(v) for v in n), tuple(L))
        except ValueError as exc:
            raise ConfigError(f"[grid] n and [grid] L: {exc}") from exc

    def modes(self) -> tuple[Grid3, ModeSet]:
        """Grid (16 cells per axis by default) and its modes with
        ``|k| <= [modes] kmax``; a cutoff that selects no mode is rejected."""
        grid = self.grid(default_n=16)
        kmax = self.get_float("modes", "kmax", 3.5 * 2.0 * math.pi / max(grid.L))
        ms = ModeSet.from_grid(grid, kmax)
        if ms.n_modes == 0:
            raise ConfigError(f"[modes] kmax = {kmax!r} selects no mode of the grid")
        return grid, ms

    def lattice(self) -> tuple[list[PointSource], ModeSet]:
        """At least two ``[source.N]`` sources and their Coulomb lattice at
        ``[modes] kmax_sigma`` and ``dk_r``.  A ``dk * dk`` that is not a
        normal float, or an ``nmax = kmax / dk`` above ``MAX_LATTICE_NMAX``,
        is rejected first."""
        sources = self.sources()
        if len(sources) < 2:
            raise ConfigError(f"{self.name} needs at least two [source.N] sections")
        kmax_sigma = self.get_float("modes", "kmax_sigma", 6.0, above=0)
        dk_r = self.get_float("modes", "dk_r", 0.3, above=0)
        keys = ", ".join(["[modes] kmax_sigma", "[modes] dk_r"] + [
            f"[{s}] sigma" for s in sorted(self.parser.sections()) if s.startswith("source.")])
        try:
            ms = coulomb_mode_set(sources, kmax_sigma=kmax_sigma, dk_r=dk_r)
        except ValueError as exc:
            raise ConfigError(f"{keys}: {exc}") from exc
        dk, nmax = ms.dk[0], ms.kmax / ms.dk[0]
        if not (sys.float_info.min <= dk * dk <= sys.float_info.max
                and nmax <= MAX_LATTICE_NMAX):
            raise ConfigError(f"{keys} give lattice spacing {dk!r} and nmax {nmax!r}; dk * dk "
                              f"must be a normal float and nmax at most {MAX_LATTICE_NMAX}")
        return sources, ms

    def thetas(self) -> list[float]:
        raw, thetas = self._floats("rotation", "thetas")
        if raw is None:
            return list(DEFAULT_THETAS)
        if not thetas:
            raise ConfigError("[rotation] thetas is empty")
        self._check("rotation", "thetas", raw, thetas)
        return thetas

    def sources(self, sigma_fallback: float | None = None) -> list[PointSource]:
        entries = []
        for section in sorted(s for s in self.parser.sections() if s.startswith("source.")):
            if not self.parser.has_option(section, "position"):
                raise ConfigError(f"[{section}] needs a position")
            position = self.get_vector(section, "position", None)
            velocity = self.get_vector(section, "velocity", [0, 0, 0])
            qe = self.get_float(section, "qe", 0.0)
            qm = self.get_float(section, "qm", 0.0)
            sigma = None
            if self._raw(section, "sigma") not in (None, "auto"):
                sigma = self.get_float(section, "sigma", None, above=0)
            entries.append((section, position, velocity, qe, qm, sigma))
        sources = []
        positions = [e[1] for e in entries]
        for section, position, velocity, qe, qm, sigma in entries:
            if sigma is None:
                if len(positions) >= 2:
                    sigma = recommended_smearing(np.stack(positions))
                elif sigma_fallback is not None:
                    sigma = sigma_fallback
                else:
                    raise ConfigError("sigma=auto needs at least two sources")
            try:
                sources.append(PointSource(position, velocity, ChargePair(qe, qm), sigma))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {exc}") from exc
        return sources


def load_config(path: str, overrides: list[str], seed: int | None) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(config_path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        section, key = target.rsplit(".", 1)  # last dot: section names may contain dots
        if section != parser.default_section and not parser.has_section(section):
            parser.add_section(section)  # DEFAULT.key sets a default, as [DEFAULT] does
        parser.set(section, key, value)
    if seed is not None:
        if not parser.has_section("scenario"):
            parser.add_section("scenario")
        parser.set("scenario", "seed", str(seed))
    return ScenarioConfig(parser)


# --- shared helpers -----------------------------------------------------------


def write_pairs(path: Path, pairs: dict) -> None:
    """Write ``pairs`` to ``path`` as ``key=value`` lines sorted by key; a
    float's ``str`` is its shortest round-trip ``repr``."""
    path.write_text("".join(f"{key}={pairs[key]}\n" for key in sorted(pairs)))


class Checks:
    """Collects named residuals with limits, an overall verdict, and the output
    files: a writer per file name, which ``run_scenario`` calls with its path."""

    def __init__(self) -> None:
        self.summary: dict = {}
        self.files: dict[str, Callable[[Path], None]] = {}
        self.ok = True

    def below(self, name: str, value: float, limit: float) -> None:
        self.summary[name] = float(value)
        self.summary[f"{name}_limit"] = float(limit)
        if not (value <= limit):
            self.ok = False

    def above(self, name: str, value: float, floor: float) -> None:
        self.summary[name] = float(value)
        self.summary[f"{name}_floor"] = float(floor)
        if not (value >= floor):
            self.ok = False

    def record(self, name: str, value) -> None:
        self.summary[name] = value


def _rel_difference(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def random_wave_fields(grid: Grid3, units: UnitSystem, rng) -> FieldVecPair:
    """Superpose five random transverse plane waves (a valid free field)."""
    E = np.zeros((3,) + grid.shape)
    B = np.zeros((3,) + grid.shape)
    x, y, z = np.meshgrid(*grid.axes(), indexing="ij")
    base = [2.0 * math.pi / L for L in grid.L]
    made = 0
    while made < 5:
        kint = rng.integers(-WAVE_INDEX_MAX, WAVE_INDEX_MAX + 1, size=3)
        if not np.any(kint):
            continue
        k = kint * np.asarray(base)
        khat = k / np.linalg.norm(k)
        pol = rng.normal(size=3)
        pol -= khat * (pol @ khat)
        norm = np.linalg.norm(pol)
        if norm < 1e-12:
            continue
        pol /= norm
        amp = rng.normal()
        phase = k[0] * x + k[1] * y + k[2] * z + rng.uniform(0.0, 2.0 * math.pi)
        E += amp * pol[:, None, None, None] * np.cos(phase)
        B += (amp / units.c) * np.cross(khat, pol)[:, None, None, None] * np.cos(phase)
        made += 1
    return FieldVecPair(E, B)


def _euclidean_potential_form(potentials: PotentialPair, units: UnitSystem) -> float:
    """eps0 (c^2 |A|^2 + |C|^2) over all four components: the positive
    companion of ``potential_quadratic_form``, in its units."""
    return units.eps0 * (units.c * units.c * float(np.sum(potentials.A ** 2))
                         + float(np.sum(potentials.C ** 2)))


# batches swept together: inputs held at once stay bounded whatever the count
_SWEEP_BLOCK = 64


def rotation_property_residuals(count: int, seed: int, units: UnitSystem) -> dict:
    """Worst-case residuals of the rotation-algebra properties.

    Sweeps ``count`` random inputs per transform family (fields, charges,
    potentials) with fresh random angle pairs per batch; every residual is
    relative to the magnitude of the exact result.  The inputs of up to
    ``_SWEEP_BLOCK`` batches go through each map at once, with one angle per
    input, and each batch keeps its own maxima and quadratic-form sums, so
    the result is that of sweeping the batches one by one.
    """
    rng = np.random.default_rng(seed)
    batches = max(1, count // 50)
    base, extra = divmod(count, batches)
    sizes = [base + (batch < extra) for batch in range(batches)]
    worst: dict[str, float] = {}

    def update(name: str, values) -> None:
        worst[name] = max(worst.get(name, 0.0), float(np.max(values)))

    c, ce = units.c, units.c * units.eps0
    for first in range(0, batches, _SWEEP_BLOCK):
        block = sizes[first:first + _SWEEP_BLOCK]
        starts = np.cumsum([0] + block[:-1])
        draws = [(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi),
                  rng.normal(size=(3, n)), rng.normal(size=(3, n)) / c,
                  rng.normal(size=n), rng.normal(size=n) / ce,
                  rng.normal(size=(4, n)), c * rng.normal(size=(4, n))) for n in block]
        t1, t2, *inputs = zip(*draws)
        t1, t2 = np.repeat(t1, block), np.repeat(t2, block)
        E, B, qe, qm, A, C = (np.concatenate(parts, axis=-1) for parts in inputs)

        def peak(parts):
            """Largest |entry| of each batch over the stacked ``parts``."""
            return np.maximum.reduceat(np.abs(np.concatenate(parts)), starts, axis=1).max(axis=0)

        def rel(diffs, scales):
            return peak(diffs) / np.maximum(peak(scales), 1e-30)

        def invariant(form, pair, before, after, euclidean=None):
            """Relative change of ``form`` per batch, each summed over the
            batch's own contiguous arrays, as a batch on its own sums it.  An
            indefinite form is floored at a share of ``euclidean``, its
            positive companion in the same units, so no floor scales with eps0."""
            values = []
            for a, n in zip(starts, block):
                x0, x1 = (pair(*(np.ascontiguousarray(x[:, a:a + n]) for x in arrays))
                          for arrays in (before, after))
                q0 = form(x0, units)
                scale = q0 if euclidean is None else max(abs(q0), 1e-30 * euclidean(x0, units))
                values.append(abs(form(x1, units) - q0) / scale)
            return values

        fp = FieldVecPair(E, B)
        once = rotate_fields(fp, t1, units)
        twice = rotate_fields(once, t2, units)
        direct = rotate_fields(fp, t1 + t2, units)
        scale = (direct.E, c * direct.B)
        update("fields_group", rel((twice.E - direct.E, c * (twice.B - direct.B)), scale))
        ident = rotate_fields(fp, 0.0, units)
        update("fields_identity", rel((ident.E - E, c * (ident.B - B)), (E, c * B)))
        back = inverse_rotate_fields(once, t1, units)
        update("fields_inverse", rel((back.E - E, c * (back.B - B)), (E, c * B)))
        update("fields_invariant",
               invariant(field_quadratic_form, FieldVecPair, (E, B), (once.E, once.B)))
        wrapped = rotate_fields(fp, t1 + 2.0 * math.pi, units)
        update("fields_periodicity", rel((wrapped.E - once.E, c * (wrapped.B - once.B)), scale))

        pair_scale = np.hypot(qe, ce * qm)
        s = np.maximum(pair_scale, 1e-30)
        once_e, once_m = rotate_charge_components(qe, qm, t1, units)
        twice_e, twice_m = rotate_charge_components(once_e, once_m, t2, units)
        direct_e, direct_m = rotate_charge_components(qe, qm, t1 + t2, units)
        update("charges_group",
               np.maximum(abs(twice_e - direct_e), ce * abs(twice_m - direct_m)) / s)
        back_e, back_m = rotate_charge_components(once_e, once_m, -t1, units)
        update("charges_inverse", np.maximum(abs(back_e - qe), ce * abs(back_m - qm)) / s)
        update("charges_norm",
               abs(_charge_norm(once_e, once_m, units) - _charge_norm(qe, qm, units)) / s)
        keep = pair_scale > 0.0  # the asymmetrizing angle needs a nonzero pair
        if np.any(keep):
            angle = _asymmetrizing_angle(qe[keep], qm[keep], units)
            asym_e, asym_m = rotate_charge_components(qe[keep], qm[keep], angle, units)
            update("charges_asymmetrize",
                   np.maximum(abs(asym_e - pair_scale[keep]), ce * abs(asym_m)) / s[keep])

        pp = PotentialPair(A, C)
        once_p = rotate_potentials(pp, t1, units)
        twice_p = rotate_potentials(once_p, t2, units)
        direct_p = rotate_potentials(pp, t1 + t2, units)
        update("potentials_group", rel((c * (twice_p.A - direct_p.A), twice_p.C - direct_p.C),
                                       (c * direct_p.A, direct_p.C)))
        back_p = rotate_potentials(once_p, -t1, units)
        update("potentials_inverse", rel((c * (back_p.A - A), back_p.C - C), (c * A, C)))
        update("potentials_invariant",
               invariant(potential_quadratic_form, PotentialPair, (A, C), (once_p.A, once_p.C),
                         _euclidean_potential_form))
    return worst


# --- scenarios ----------------------------------------------------------------


def run_rotation_properties(cfg: ScenarioConfig) -> Checks:
    count = cfg.get_int("sweep", "count", 2000, at_least=1)
    # the sweep draws magnetic charges of scale 1 / (c eps0), which its rotations
    # enlarge by at most the sum of two draws: keep room for draws to 32 sigma
    ce = cfg.units.c * cfg.units.eps0
    if not math.isfinite(64.0 / ce):
        raise ConfigError("[units] eps0 and [units] c: the sweep draws magnetic charges of "
                          f"scale 1 / (c eps0), and 64 / (c eps0) must be finite, got {ce!r}")
    cfg.check_all_read()
    residuals = rotation_property_residuals(count, cfg.seed, cfg.units)
    checks = Checks()
    checks.record("sweep_count", count)
    for name in sorted(residuals):
        checks.below(name, residuals[name], 1e-12)
    return checks


def run_dual_covariance(cfg: ScenarioConfig) -> Checks:
    units = cfg.units
    grid = cfg.grid()
    min_cells = 2 * (WAVE_INDEX_MAX + 1)  # the random waves' indices lie below Nyquist
    if min(grid.n) < min_cells:
        raise ConfigError(f"[grid] n must be at least {min_cells} cells per axis, got {grid.n}")
    sources = cfg.sources(sigma_fallback=3.0 * max(grid.spacing))
    dt = cfg.get_float("evolution", "dt", 0.005, above=0)
    steps = cfg.get_int("evolution", "steps", 100, at_least=1, at_most=MAX_STEPS)
    thetas = cfg.thetas()
    cfg.check_all_read()

    fields = random_wave_fields(grid, units, np.random.default_rng(cfg.seed))
    if sources:
        # start from a Gauss-consistent state: waves plus longitudinal parts
        rho_e, rho_m, _, _ = deposit_sources(sources, grid)
        E_long = coulomb_field_from_density(rho_e, 1.0 / units.eps0)
        B_long = coulomb_field_from_density(rho_m, 1.0)
        fields = FieldVecPair(fields.E + E_long.data, fields.B + B_long.data)
    state = EMState(0.0, grid, fields, sources)
    # one forward transform starts every evolution; each angle compares its
    # rotated paths, evolved, with this one evolution rotated
    initial = _checked_spectra(state, dt, units, steps)
    reference = initial.copy()
    _evolve_spectra(reference, state, dt, units, steps)
    # the residual's sensitivity to charges left unrotated; charges act only
    # through their currents, so slow sources and short runs show round-off,
    # and the value is recorded, not checked (the acceptance gate asserts 1e-5)
    moving_charge = any(np.any(s.velocity != 0.0) and charge_norm(s.charges, units) > 0.0
                        for s in sources)
    checks = Checks()
    defects = []
    for theta in thetas:
        rotated = _rotate(*initial, theta, units.c)  # as ``inverse_rotate_fields``
        if moving_charge:
            defects.append(_covariance_defect([y.copy() for y in rotated], None, reference,
                                              state, theta, dt, units, steps))
        charges = [rotate_charges(s.charges, theta, units) for s in sources]
        residual = _covariance_defect(rotated, charges, reference, state, theta, dt, units, steps)
        checks.below(f"covariance_residual_theta_{theta!r}", residual, 1e-13)
    if defects:
        checks.record("fields_only_rotation_defect", min(defects))
    evolved = _evolved_state(state, reference, dt, steps)
    rE, rB = gauss_residuals(evolved, units)
    checks.below("gauss_residual_E", float(rE), 1e-8)
    checks.below("gauss_residual_B", float(rB), 1e-8)
    e0, e1 = field_energy(state, units), field_energy(evolved, units)
    checks.record("final_field_energy", float(e1))
    checks.record("initial_field_energy", float(e0))
    checks.files["E_final.bin"] = partial(save_field, field=VectorField(grid, evolved.fields.E))
    checks.files["B_final.bin"] = partial(save_field, field=VectorField(grid, evolved.fields.B))
    header = {
        "scenario": cfg.name,
        "t": evolved.t,
        "dt": dt,
        "steps": steps,
        "n": " ".join(str(v) for v in grid.n),
        "L": " ".join(repr(v) for v in grid.L),
        "c": units.c,
        "eps0": units.eps0,
        "thetas": " ".join(repr(v) for v in thetas),
    }
    checks.files["snapshot_header.txt"] = partial(write_pairs, pairs=header)
    return checks


def run_coulomb_equivalence(cfg: ScenarioConfig) -> Checks:
    units = cfg.units
    sources, ms = cfg.lattice()
    reference = next((s for s in sources if charge_norm(s.charges, units) > 0.0), None)
    if reference is None:
        raise ConfigError("all sources have zero charge")
    theta = asymmetrizing_angle(reference.charges, units)
    cfg.check_all_read()
    e_real = coulomb_energy_real(sources, units)
    e_mode = symmetric_charge_energy(sources, theta, ms, units)
    checks = Checks()
    checks.record("theta", float(theta))
    checks.record("energy_real", float(e_real))
    checks.record("energy_mode", float(e_mode))
    checks.record("lattice_dk", ms.dk[0])
    checks.record("lattice_kmax", float(ms.kmax))
    checks.below("coulomb_rel_difference", _rel_difference(e_mode, e_real), 0.01)
    return checks


def run_two_field_cross(cfg: ScenarioConfig) -> Checks:
    units = cfg.units
    sources, ms = cfg.lattice()
    cfg.check_all_read()
    ee, mm, em = two_field_energy(sources, ms, units)
    positions = np.stack([s.position for s in sources])
    ee_ref = _coulomb_pair_sum(positions, np.asarray([s.charges.qe for s in sources]), units.eps0)
    mm_ref = _coulomb_pair_sum(
        positions, units.c * units.eps0 * np.asarray([s.charges.qm for s in sources]), units.eps0
    )

    checks = Checks()
    checks.record("energy_ee", float(ee))
    checks.record("energy_mm", float(mm))
    checks.record("energy_ee_reference", float(ee_ref))
    checks.record("energy_mm_reference", float(mm_ref))
    checks.below("cross_term", abs(em), 0.0)
    checks.below("ee_rel_difference", _rel_difference(ee, ee_ref), 0.01)
    checks.below("mm_rel_difference", _rel_difference(mm, mm_ref), 0.01)
    return checks


def run_noether_zero(cfg: ScenarioConfig) -> Checks:
    units = cfg.units
    grid, ms = cfg.modes()
    count = cfg.get_int("sweep", "count", 10, at_least=1)
    cfg.check_all_read()
    rng = np.random.default_rng(cfg.seed)

    worst_charge = 0.0
    worst_current = 0.0
    for _ in range(count):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        a = rng.normal(size=(ms.n_modes, 4)) + 1j * rng.normal(size=(ms.n_modes, 4))
        # the grid potentials and their gradients from one synthesis spectrum
        X_hat = _synthesis_hat(ModeAmplitudeSet(ms, a), grid, units)
        A, C = _sector_potentials(_to_grid(X_hat), theta, units)
        gradA, gradC = _sector_potentials(_to_grid(_gradient_hat(X_hat[:4], grid)), theta, units)
        pp, dpp = PotentialPair(A[:4], C[:4]), PotentialPair(A[4:], C[4:])
        value, scale = noether_dual_charge(pp, dpp, grid, units)
        worst_charge = max(worst_charge, abs(value) / scale)
        f, f_scale = _noether_current(gradA, gradC, pp, dpp, units)
        worst_current = max(worst_current, float(np.max(np.abs(f)) / np.max(f_scale)))

    # a deliberately broken pairing: C from amplitudes 1j * eta * a (eta the
    # metric signs), so every mode adds to the charge with the same sign; an
    # independent C gives a random sum that can nearly cancel
    a = rng.normal(size=(ms.n_modes, 4)) + 1j * rng.normal(size=(ms.n_modes, 4))
    eta = np.array([1.0, -1.0, -1.0, -1.0])
    x, dx = synthesize_potentials(ModeAmplitudeSet(ms, a), 0.0, grid, units)
    y, dy = synthesize_potentials(ModeAmplitudeSet(ms, 1j * eta * a), 0.0, grid, units)
    value, scale = noether_dual_charge(PotentialPair(x.A, units.c * y.A),
                                       PotentialPair(dx.A, units.c * dy.A), grid, units)
    violating = abs(value) / scale

    checks = Checks()
    checks.record("config_count", count)
    checks.record("mode_count", ms.n_modes)
    checks.below("noether_charge_rel", worst_charge, 1e-13)
    checks.below("noether_current_rel", worst_current, 1e-13)
    checks.above("violating_charge_rel", violating, 1e-3)
    return checks


def run_helicity_conservation(cfg: ScenarioConfig) -> Checks:
    units = cfg.units
    grid, ms = cfg.modes()
    theta = cfg.get_float("rotation", "theta", 0.6)
    t_final = cfg.get_float("evolution", "t_final", 4.0, above=0)
    samples = cfg.get_int("evolution", "samples", 9, at_least=2)
    cfg.check_all_read()

    rng = np.random.default_rng(cfg.seed)
    a = np.zeros((ms.n_modes, 4), dtype=complex)
    a[:, 1] = rng.normal(size=ms.n_modes) + 1j * rng.normal(size=ms.n_modes)
    a[:, 2] = rng.normal(size=ms.n_modes) + 1j * rng.normal(size=ms.n_modes)
    amp = ModeAmplitudeSet(ms, a)
    times = np.linspace(0.0, t_final, samples)
    helicities = []
    spins = []
    for t in times:
        evolved = free_evolve_modes(amp, float(t), units)
        # the spin straight from the synthesis spectrum, which never goes to the grid
        A, C = _sector_potentials(_synthesis_hat(evolved, grid, units), theta, units)
        S = _spin_hat(A[1:4], C[1:4], A[5:], C[5:], grid, units)
        spins.append(S)
        helicities.append(float(np.linalg.norm(S)))
    helicities = np.asarray(helicities)
    drift = float(np.max(np.abs(helicities - helicities[0])) / abs(helicities[0]))

    lines = ["t,Sx,Sy,Sz,helicity"] + [",".join(repr(float(v)) for v in (t, *S, h))
                                       for t, S, h in zip(times, spins, helicities)]
    checks = Checks()
    checks.files["series.csv"] = partial(Path.write_text, data="\n".join(lines) + "\n")
    checks.record("mode_count", ms.n_modes)
    checks.record("helicity_initial", float(helicities[0]))
    checks.below("helicity_drift", drift, 1e-13)
    return checks


def run_monopole_flyby(cfg: ScenarioConfig) -> Checks:
    units = cfg.units
    monopole_qm = cfg.get_float("monopole", "qm", 0.05)
    monopole_pos = cfg.get_vector("monopole", "position", [0.0, 0.0, 0.0])
    position = cfg.get_vector("particle", "position", [-2.0, 1.0, 0.0])
    velocity = cfg.get_vector("particle", "velocity", [0.05, 0.0, 0.0])
    qe = cfg.get_float("particle", "qe", 1.0)
    qm = cfg.get_float("particle", "qm", 0.0)
    mass = cfg.get_float("particle", "mass", 1.0, above=0)
    dt = cfg.get_float("evolution", "dt", 0.05, above=0)
    steps = cfg.get_int("evolution", "steps", 1600, at_least=1, at_most=MAX_STEPS)
    cfg.check_all_read()
    guard = SPEED_GUARD_FRACTION * units.c
    if not sum(a * a for a in velocity.tolist()) < guard * guard:
        raise ConfigError(f"[particle] velocity must be slower than the pusher's speed guard "
                          f"{SPEED_GUARD_FRACTION} c, got {velocity}")

    sampler = MonopoleSampler(monopole_qm, monopole_pos, units)
    if not sampler.in_domain(position.tolist()):
        raise ConfigError(f"[particle] position must lie farther than r_min = {sampler.r_min!r} "
                          f"from [monopole] position, got {position} and {monopole_pos}")
    try:
        particle = ParticleState(position, velocity, ChargePair(qe, qm), mass)
        normal = plane_normal(particle.position - sampler.center, particle.velocity)
    except ValueError as exc:
        raise ConfigError(f"[particle] velocity and position: {exc}") from exc

    checks = Checks()
    for model, check, bound in (("classical", checks.above, 1e-2),
                                ("quantum", checks.below, 1e-8)):
        trajectory = push_particle(particle, sampler, model, dt, steps, units)
        disp, _ = out_of_plane_component(trajectory, normal)
        span = in_plane_span(trajectory, normal)
        # a run stopped before its first step spans nothing, and a span that
        # overflows measures nothing: the ratio is undefined
        ratio = float(np.max(np.abs(disp))) / span if 0.0 < span < math.inf else math.nan
        checks.files[f"trajectory_{model}.npy"] = partial(trajectory.to_npy, out_of_plane=disp)
        checks.record(f"{model}_steps", len(trajectory) - 1)
        checks.record(f"{model}_termination", trajectory.termination or "completed")
        checks.record(f"{model}_in_plane_span", span)
        check(f"{model}_out_of_plane_ratio", ratio, bound)
    return checks


SCENARIOS = {
    "rotation-properties": run_rotation_properties,
    "dual-covariance": run_dual_covariance,
    "coulomb-equivalence": run_coulomb_equivalence,
    "two-field-cross": run_two_field_cross,
    "noether-zero": run_noether_zero,
    "helicity-conservation": run_helicity_conservation,
    "monopole-flyby": run_monopole_flyby,
}


def run_scenario(cfg: ScenarioConfig, outdir: Path) -> tuple[dict, bool]:
    """Run the scenario, then create ``outdir`` and write its files and the summary:
    the one place that writes, so a run that raises leaves nothing."""
    if cfg.name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg.name!r}; expected one of {sorted(SCENARIOS)}")
    try:  # one float boundary: an overflow or invalid value is an input error
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            checks = SCENARIOS[cfg.name](cfg)
    except ConfigError:
        raise
    except (FloatingPointError, ValueError) as exc:
        keys = ", ".join(cfg._given_keys(read=True)) or "its defaults"
        raise ConfigError(f"{cfg.name} at {keys}: {exc}") from exc
    summary = dict(checks.summary)
    summary["scenario"] = cfg.name
    summary["seed"] = cfg.seed
    summary["status"] = "pass" if checks.ok else "fail"
    checks.files["summary.txt"] = partial(write_pairs, pairs=summary)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, write in checks.files.items():
            write(outdir / name)
    except OSError as exc:
        raise ConfigError(f"--out {str(outdir)!r}: {exc}") from exc
    return summary, checks.ok


def main(argv=None) -> int:
    parser = _Parser(prog="dualfield", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    run_parser = sub.add_parser("run", help="run a scenario configuration")
    run_parser.add_argument("config", help="path to an INI scenario configuration")
    run_parser.add_argument("--out", type=Path, default=Path("out"),
                            help="output directory (default: ./out)")
    run_parser.add_argument("--seed", type=int, default=None, help="override the seed")
    run_parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one configuration value (repeatable)",
    )
    try:
        args = parser.parse_args(argv)
        if args.command != "run":
            raise ConfigError("expected the 'run' command")
        cfg = load_config(args.config, args.override, args.seed)
        summary, ok = run_scenario(cfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    print(f"{summary['scenario']}: {summary['status']} ({args.out / 'summary.txt'})")
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
