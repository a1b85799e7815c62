"""Command-line scenario runner.

Usage::

    dualfield run <config.ini> [--out DIR] [--seed N] [--override sec.key=val ...]

Each scenario computes a set of residuals, writes every one of them (with
its limit) to ``summary.txt`` as sorted ``key=value`` lines, and exits 0
when all checks pass.  Exit codes: 0 success, 1 usage or configuration
error (including a value that is not finite or out of range and a given key
the scenario never reads), 2 precondition violation (for example an
unstable time step), 3 a residual check failed.  Identical configuration
and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path

import numpy as np

from .dualcore import (
    ChargePair,
    FieldVecPair,
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
from .dualcore import PotentialPair
from .errors import ConfigError, PreconditionError
from .fields import (
    Grid3,
    PointSource,
    VectorField,
    coulomb_field_from_density,
    deposit_sources,
    fields_from_potentials,
    helmholtz_decompose,
    save_field,
)
from .maxwell import (
    EMState,
    dual_covariance_residual,
    field_energy,
    gauss_residuals,
    step_symmetric_maxwell,
)
from .dynamics import (
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
    coulomb_energy_real,
    coulomb_mode_set,
    free_evolve_modes,
    noether_dual_charge,
    noether_dual_current,
    recommended_smearing,
    spin_observable,
    symmetric_charge_energy,
    synthesize_potentials,
    two_field_energy,
)

DEFAULT_THETAS = (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 2)


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
        self.units = UnitSystem(c=self.get_float("units", "c", 1.0, above=0),
                                eps0=self.get_float("units", "eps0", 1.0, above=0))

    def _raw(self, section: str, key: str):
        self._read.add((section, self.parser.optionxform(key)))
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        return None

    def unread(self) -> list[str]:
        """``[section] key`` for every given key that no getter has asked for."""
        return [f"[{section}] {key}" for section in self.parser.sections()
                for key in self.parser[section] if (section, key) not in self._read]

    @staticmethod
    def _check(section: str, key: str, raw: str, values, above=None, at_least=None) -> None:
        """The bounds of every numeric getter: each value must be finite, and
        above ``above`` and at least ``at_least`` where those are given."""
        if not all(-math.inf < v < math.inf for v in values):
            raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
        if above is not None and min(values) <= above:
            raise ConfigError(f"[{section}] {key} must be above {above}, got {raw!r}")
        if at_least is not None and min(values) < at_least:
            raise ConfigError(f"[{section}] {key} must be at least {at_least}, got {raw!r}")

    def _number(self, section: str, key: str, default, parse, what: str, bounds: dict):
        raw = self._raw(section, key)
        if raw is None:
            return default
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} must be {what}, got {raw!r}") from exc
        self._check(section, key, raw, [value], **bounds)
        return value

    def get_float(self, section: str, key: str, default: float, **bounds) -> float:
        return self._number(section, key, default, float, "a number", bounds)

    def get_int(self, section: str, key: str, default: int, **bounds) -> int:
        return self._number(section, key, default, int, "an integer", bounds)

    def get_bool(self, section: str, key: str, default: bool) -> bool:
        raw = self._raw(section, key)
        if raw is None:
            return default
        if raw.lower() not in self.parser.BOOLEAN_STATES:
            raise ConfigError(f"[{section}] {key} must be a boolean, got {raw!r}")
        return self.parser.BOOLEAN_STATES[raw.lower()]

    def get_vector(self, section: str, key: str, default, **bounds) -> np.ndarray:
        raw = self._raw(section, key)
        if raw is None:
            return np.asarray(default, dtype=float)
        try:
            parts = [float(v) for v in raw.split()]
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} must be numbers, got {raw!r}") from exc
        if len(parts) == 1:
            parts = parts * 3
        if len(parts) != 3:
            raise ConfigError(f"[{section}] {key} needs 1 or 3 numbers, got {raw!r}")
        self._check(section, key, raw, parts, **bounds)
        return np.asarray(parts)

    def grid(self, default_n: int = 32) -> Grid3:
        n = self.get_vector("grid", "n", [default_n] * 3)
        L = self.get_vector("grid", "L", [2.0 * math.pi] * 3)
        if np.any(n != np.round(n)):
            raise ConfigError(f"[grid] n must be whole cell counts, got {self._raw('grid', 'n')!r}")
        try:
            return Grid3(tuple(int(v) for v in n), tuple(L))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

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
        ``[modes] kmax_sigma`` and ``dk_r``."""
        sources = self.sources()
        if len(sources) < 2:
            raise ConfigError(f"{self.name} needs at least two [source.N] sections")
        return sources, coulomb_mode_set(
            sources,
            kmax_sigma=self.get_float("modes", "kmax_sigma", 6.0, above=0),
            dk_r=self.get_float("modes", "dk_r", 0.3, above=0),
        )

    def thetas(self) -> list[float]:
        raw = self._raw("rotation", "thetas")
        if raw is None:
            return list(DEFAULT_THETAS)
        try:
            thetas = [float(v) for v in raw.split()]
        except ValueError as exc:
            raise ConfigError(f"[rotation] thetas must be numbers, got {raw!r}") from exc
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
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(config_path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        section, key = target.rsplit(".", 1)  # last dot: section names may contain dots
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    if seed is not None:
        if not parser.has_section("scenario"):
            parser.add_section("scenario")
        parser.set("scenario", "seed", str(seed))
    return ScenarioConfig(parser)


# --- shared helpers -----------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_summary(outdir: Path, summary: dict) -> Path:
    path = outdir / "summary.txt"
    lines = [f"{key}={_format_value(summary[key])}" for key in sorted(summary)]
    path.write_text("\n".join(lines) + "\n")
    return path


class Checks:
    """Collects named residuals with limits and an overall verdict."""

    def __init__(self) -> None:
        self.summary: dict = {}
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


def random_wave_fields(grid: Grid3, units: UnitSystem, rng, n_waves: int = 5,
                       kint_max: int = 3) -> FieldVecPair:
    """Superpose a few random transverse plane waves (a valid free field)."""
    E = np.zeros((3,) + grid.shape)
    B = np.zeros((3,) + grid.shape)
    x, y, z = np.meshgrid(*grid.axes(), indexing="ij")
    base = [2.0 * math.pi / L for L in grid.L]
    made = 0
    while made < n_waves:
        kint = rng.integers(-kint_max, kint_max + 1, size=3)
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


def rotation_property_residuals(count: int, seed: int, units: UnitSystem) -> dict:
    """Worst-case residuals of the rotation-algebra properties.

    Sweeps ``count`` random inputs per transform family (fields, charges,
    potentials) with fresh random angle pairs per batch; every residual is
    relative to the magnitude of the exact result.
    """
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
        q_before = field_quadratic_form(fp, units)
        update("fields_invariant", abs(field_quadratic_form(once, units) - q_before)
               / max(abs(q_before), 1e-30))
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
        update("potentials_invariant",
               abs(potential_quadratic_form(once_p, units) - q_before)
               / max(abs(q_before), 1e-30))
    return worst


# --- scenarios ----------------------------------------------------------------


def run_rotation_properties(cfg: ScenarioConfig, outdir: Path) -> Checks:
    count = cfg.get_int("sweep", "count", 2000, at_least=1)
    limit = cfg.get_float("checks", "max_residual", 1e-12)
    residuals = rotation_property_residuals(count, cfg.seed, cfg.units)
    checks = Checks()
    checks.record("sweep_count", count)
    for name in sorted(residuals):
        checks.below(name, residuals[name], limit)
    return checks


def run_dual_covariance(cfg: ScenarioConfig, outdir: Path) -> Checks:
    units = cfg.units
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    h_max = max(grid.spacing)
    sources = cfg.sources(sigma_fallback=3.0 * h_max)
    fields = random_wave_fields(grid, units, rng)
    if sources:
        # start from a Gauss-consistent state: waves plus longitudinal parts
        rho_e, rho_m, _, _ = deposit_sources(sources, grid)
        E_long = coulomb_field_from_density(rho_e, 1.0 / units.eps0)
        B_long = coulomb_field_from_density(rho_m, 1.0)
        fields = FieldVecPair(fields.E + E_long.data, fields.B + B_long.data)
    state = EMState(0.0, grid, fields, sources)
    dt = cfg.get_float("evolution", "dt", 0.005, above=0)
    steps = cfg.get_int("evolution", "steps", 100, at_least=1)
    limit = cfg.get_float("checks", "max_residual", 1e-10)
    require_shared = cfg.get_bool("checks", "require_shared_ratio", True)
    thetas = cfg.thetas()

    checks = Checks()
    for theta in thetas:
        residual = dual_covariance_residual(
            state, theta, steps, dt, units, require_shared_ratio=require_shared
        )
        checks.below(f"covariance_residual_theta_{theta!r}", residual, limit)
    evolved = step_symmetric_maxwell(state, dt, units, steps)
    rE, rB = gauss_residuals(evolved, units)
    max_gauss = cfg.get_float("checks", "max_gauss_residual", 1e-8)
    checks.below("gauss_residual_E", float(rE), max_gauss)
    checks.below("gauss_residual_B", float(rB), max_gauss)
    e0, e1 = field_energy(state, units), field_energy(evolved, units)
    checks.record("final_field_energy", float(e1))
    checks.record("initial_field_energy", float(e0))
    save_field(outdir / "E_final.bin", VectorField(grid, evolved.fields.E))
    save_field(outdir / "B_final.bin", VectorField(grid, evolved.fields.B))
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
    (outdir / "snapshot_header.txt").write_text(
        "\n".join(f"{k}={_format_value(v)}" for k, v in sorted(header.items())) + "\n"
    )
    return checks


def run_coulomb_equivalence(cfg: ScenarioConfig, outdir: Path) -> Checks:
    units = cfg.units
    sources, ms = cfg.lattice()
    theta_raw = cfg._raw("rotation", "theta")
    if theta_raw is None or theta_raw == "auto":
        reference = next(
            (s for s in sources if charge_norm(s.charges, units) > 0.0), None
        )
        if reference is None:
            raise ConfigError("all sources have zero charge")
        theta = asymmetrizing_angle(reference.charges, units).theta
    else:
        theta = cfg.get_float("rotation", "theta", 0.0)
    e_real = coulomb_energy_real(sources, units)
    e_mode = symmetric_charge_energy(sources, theta, ms, units)
    rel = abs(e_mode - e_real) / max(abs(e_real), 1e-300)
    checks = Checks()
    checks.record("theta", float(theta))
    checks.record("energy_real", float(e_real))
    checks.record("energy_mode", float(e_mode))
    checks.record("lattice_dk", ms.dk[0])
    checks.record("lattice_kmax", float(ms.kmax))
    checks.below("coulomb_rel_difference", rel, cfg.get_float("checks", "max_rel", 0.01))
    return checks


def run_two_field_cross(cfg: ScenarioConfig, outdir: Path) -> Checks:
    units = cfg.units
    sources, ms = cfg.lattice()
    ee, mm, em = two_field_energy(sources, ms, units)
    positions = np.stack([s.position for s in sources])
    ee_ref = _coulomb_pair_sum(positions, np.asarray([s.charges.qe for s in sources]), units.eps0)
    mm_ref = _coulomb_pair_sum(
        positions, units.c * units.eps0 * np.asarray([s.charges.qm for s in sources]), units.eps0
    )

    def rel(value: float, ref: float) -> float:
        if abs(ref) < 1e-15 and abs(value) < 1e-15:
            return 0.0
        return abs(value - ref) / max(abs(ref), 1e-300)

    checks = Checks()
    checks.record("energy_ee", float(ee))
    checks.record("energy_mm", float(mm))
    checks.record("energy_ee_reference", float(ee_ref))
    checks.record("energy_mm_reference", float(mm_ref))
    max_rel = cfg.get_float("checks", "max_rel", 0.01)
    checks.below("cross_term", abs(em), cfg.get_float("checks", "max_em", 0.0))
    checks.below("ee_rel_difference", rel(ee, ee_ref), max_rel)
    checks.below("mm_rel_difference", rel(mm, mm_ref), max_rel)
    return checks


def run_noether_zero(cfg: ScenarioConfig, outdir: Path) -> Checks:
    units = cfg.units
    grid, ms = cfg.modes()
    count = cfg.get_int("sweep", "count", 10, at_least=1)
    rng = np.random.default_rng(cfg.seed)

    worst_charge = 0.0
    worst_current = 0.0
    for _ in range(count):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        a = rng.normal(size=(ms.n_modes, 4)) + 1j * rng.normal(size=(ms.n_modes, 4))
        pp, dpp = synthesize_potentials(ModeAmplitudeSet(ms, a), theta, grid, units)
        value, scale = noether_dual_charge(pp, dpp, grid, units)
        worst_charge = max(worst_charge, abs(value) / scale)
        f, f_scale = noether_dual_current(pp, dpp, grid, units)
        worst_current = max(worst_current, float(np.max(np.abs(f)) / np.max(f_scale)))

    # a deliberately broken pairing: C from amplitudes 1j * eta * a (eta the
    # metric signs), so every mode adds to the charge with the same sign; an
    # independent C gives a random sum that can nearly cancel
    a = rng.normal(size=(ms.n_modes, 4)) + 1j * rng.normal(size=(ms.n_modes, 4))
    eta = np.array([1.0, -1.0, -1.0, -1.0])
    broken_amp = ModeAmplitudeSet(ms, a, 1j * eta * a)
    broken, broken_dt = synthesize_potentials(broken_amp, 0.0, grid, units)
    value, scale = noether_dual_charge(broken, broken_dt, grid, units)
    violating = abs(value) / scale

    checks = Checks()
    checks.record("config_count", count)
    checks.record("mode_count", ms.n_modes)
    limit = cfg.get_float("checks", "max_residual", 1e-10)
    checks.below("noether_charge_rel", worst_charge, limit)
    checks.below("noether_current_rel", worst_current, limit)
    checks.above("violating_charge_rel", violating,
                 cfg.get_float("checks", "min_violating", 1e-3, above=0))
    return checks


def run_helicity_conservation(cfg: ScenarioConfig, outdir: Path) -> Checks:
    units = cfg.units
    grid, ms = cfg.modes()
    rng = np.random.default_rng(cfg.seed)
    theta = cfg.get_float("rotation", "theta", 0.6)
    a = np.zeros((ms.n_modes, 4), dtype=complex)
    a[:, 1] = rng.normal(size=ms.n_modes) + 1j * rng.normal(size=ms.n_modes)
    a[:, 2] = rng.normal(size=ms.n_modes) + 1j * rng.normal(size=ms.n_modes)
    amp = ModeAmplitudeSet(ms, a)

    t_final = cfg.get_float("evolution", "t_final", 4.0, above=0)
    samples = cfg.get_int("evolution", "samples", 9, at_least=2)
    times = np.linspace(0.0, t_final, samples)
    helicities = []
    spins = []
    for t in times:
        evolved = free_evolve_modes(amp, float(t), units)
        pp, dpp = synthesize_potentials(evolved, theta, grid, units)
        fp = fields_from_potentials(pp, dpp, grid, units)
        E_T, _ = helmholtz_decompose(VectorField(grid, fp.E))
        B_T, _ = helmholtz_decompose(VectorField(grid, fp.B))
        A_T, _ = helmholtz_decompose(VectorField(grid, pp.A[1:]))
        C_T, _ = helmholtz_decompose(VectorField(grid, pp.C[1:]))
        S = spin_observable(E_T, B_T, A_T, C_T, units)
        spins.append(S)
        helicities.append(float(np.linalg.norm(S)))
    helicities = np.asarray(helicities)
    drift = float(np.max(np.abs(helicities - helicities[0])) / abs(helicities[0]))

    with open(outdir / "series.csv", "w") as fh:
        fh.write("t,Sx,Sy,Sz,helicity\n")
        for t, S, h in zip(times, spins, helicities):
            fh.write(",".join(repr(float(v)) for v in (t, *S, h)) + "\n")

    checks = Checks()
    checks.record("mode_count", ms.n_modes)
    checks.record("helicity_initial", float(helicities[0]))
    checks.below("helicity_drift", drift, cfg.get_float("checks", "max_drift", 1e-10))
    return checks


def run_monopole_flyby(cfg: ScenarioConfig, outdir: Path) -> Checks:
    units = cfg.units
    monopole_qm = cfg.get_float("monopole", "qm", 0.05)
    monopole_pos = cfg.get_vector("monopole", "position", [0.0, 0.0, 0.0])
    position = cfg.get_vector("particle", "position", [-2.0, 1.0, 0.0])
    velocity = cfg.get_vector("particle", "velocity", [0.05, 0.0, 0.0])
    qe = cfg.get_float("particle", "qe", 1.0)
    qm = cfg.get_float("particle", "qm", 0.0)
    mass = cfg.get_float("particle", "mass", 1.0, above=0)
    dt = cfg.get_float("evolution", "dt", 0.05, above=0)
    steps = cfg.get_int("evolution", "steps", 1600, at_least=1)

    sampler = MonopoleSampler(monopole_qm, monopole_pos, units)
    try:
        particle = ParticleState(position, velocity, ChargePair(qe, qm), mass)
        normal = plane_normal(particle.position - sampler.center, particle.velocity)
    except ValueError as exc:
        raise ConfigError(f"[particle] velocity and position: {exc}") from exc

    checks = Checks()
    ratios = {}
    for model in ("classical", "quantum"):
        trajectory = push_particle(particle, sampler, model, dt, steps, units)
        trajectory.to_csv(outdir / f"trajectory_{model}.csv", plane_normal=normal)
        disp, _ = out_of_plane_component(trajectory, normal)
        span = in_plane_span(trajectory, normal)
        ratios[model] = float(np.max(np.abs(disp)) / span)
        checks.record(f"{model}_steps", len(trajectory) - 1)
        checks.record(f"{model}_termination", trajectory.termination or "completed")
        checks.record(f"{model}_in_plane_span", span)
    checks.above("classical_out_of_plane_ratio", ratios["classical"],
                 cfg.get_float("checks", "min_classical_ratio", 1e-2, above=0))
    checks.below("quantum_out_of_plane_ratio", ratios["quantum"],
                 cfg.get_float("checks", "max_quantum_ratio", 1e-8))
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
    if cfg.name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {cfg.name!r}; expected one of {sorted(SCENARIOS)}"
        )
    outdir.mkdir(parents=True, exist_ok=True)
    checks = SCENARIOS[cfg.name](cfg, outdir)
    unread = cfg.unread()
    if unread:
        raise ConfigError(f"{cfg.name} reads no {', '.join(unread)}")
    summary = dict(checks.summary)
    summary["scenario"] = cfg.name
    summary["seed"] = cfg.seed
    summary["status"] = "pass" if checks.ok else "fail"
    return summary, checks.ok


def main(argv=None) -> int:
    parser = _Parser(prog="dualfield", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    run_parser = sub.add_parser("run", help="run a scenario configuration")
    run_parser.add_argument("config", help="path to an INI scenario configuration")
    run_parser.add_argument("--out", default=None, help="output directory (default: ./out)")
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
        outdir = Path(args.out) if args.out is not None else Path("out")
        summary, ok = run_scenario(cfg, outdir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    path = write_summary(outdir, summary)
    print(f"{summary['scenario']}: {summary['status']} ({path})")
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
