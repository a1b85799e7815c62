"""Grid fields: spectral operators, deposits, and serialization oracles."""

import ast
import builtins
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import dualfield
from dualfield.dualcore import ChargePair, UnitSystem
from dualfield.errors import PreconditionError
from dualfield.fields import (
    Grid3,
    PointSource,
    ScalarField,
    VectorField,
    _curl_hat,
    _kgrid,
    _to_grid,
    _to_spectrum,
    check_shared_ratio,
    coulomb_field_from_density,
    current_spectra,
    deposit_sources,
    helmholtz_decompose,
    load_field,
    point_magnetic_field,
    save_field,
    spectral_divergence,
    spectral_gradient,
)

NAT = UnitSystem.natural()
TWO_PI = 2.0 * math.pi


def cube(n, L=TWO_PI):
    return Grid3((n, n, n), (L, L, L))


def meshes(grid):
    return np.meshgrid(*grid.axes(), indexing="ij")


def curl(data, grid):
    """Grid curl through ``_curl_hat``, the kernel of the stepper and the spin."""
    return _to_grid(_curl_hat(_kgrid(grid), _to_spectrum(data)))


# --- grid geometry ------------------------------------------------------------


def test_grid_geometry():
    grid = Grid3((8, 16, 4), (1.0, 2.0, 4.0))
    assert grid.shape == (8, 16, 4)
    assert grid.spacing == pytest.approx((0.125, 0.125, 1.0))
    assert grid.cell_volume == pytest.approx(0.125 * 0.125 * 1.0)
    assert grid.volume == pytest.approx(8.0)
    for axis, (n, L) in enumerate(zip(grid.n, grid.L)):
        assert grid.axes()[axis][0] == 0.0
        assert grid.axes()[axis][-1] == pytest.approx(L - L / n)


@pytest.mark.parametrize("n", [(7, 8, 8), (2, 8, 8), (8, 8, 0)])
def test_grid_rejects_bad_cell_counts(n):
    with pytest.raises(ValueError):
        Grid3(n, (1.0, 1.0, 1.0))


def test_grid_rejects_bad_lengths():
    with pytest.raises(ValueError):
        Grid3((8, 8, 8), (1.0, -2.0, 1.0))


@pytest.mark.parametrize("L", [1e-200, 1e200, 1e-320])
def test_grid_rejects_lengths_whose_wavenumber_squares_are_not_normal(L):
    with pytest.raises(ValueError, match="normal"):
        Grid3((8, 8, 8), (1.0, L, 1.0))


def test_field_wrappers_check_shape():
    grid = cube(8)
    with pytest.raises(ValueError, match="scalar data shape"):
        ScalarField(grid, np.zeros((8, 8, 4)))
    with pytest.raises(ValueError, match="vector data shape"):
        VectorField(grid, np.zeros((8, 8, 8)))


# --- spectral operators against analytic derivatives ---------------------------


@pytest.mark.parametrize("kint", [(1, 0, 0), (0, 2, 0), (1, 2, 3), (-2, 1, 0)])
def test_spectral_gradient_of_cosine(kint):
    grid = cube(16)
    x, y, z = meshes(grid)
    k = np.asarray(kint, dtype=float)
    phase = k[0] * x + k[1] * y + k[2] * z
    grad = spectral_gradient(np.cos(phase), grid)
    expected = -k[:, None, None, None] * np.sin(phase)
    np.testing.assert_allclose(grad, expected, atol=1e-12)


def test_spectral_divergence_of_cosine():
    grid = cube(16)
    x, y, z = meshes(grid)
    k = np.array([1.0, -2.0, 3.0])
    c0 = np.array([0.3, 0.7, -0.2])
    phase = k[0] * x + k[1] * y + k[2] * z
    field = c0[:, None, None, None] * np.cos(phase)
    expected = -float(k @ c0) * np.sin(phase)
    np.testing.assert_allclose(spectral_divergence(field, grid), expected, atol=1e-12)


def test_spectral_curl_of_cosine():
    grid = cube(16)
    x, y, z = meshes(grid)
    k = np.array([2.0, 1.0, 0.0])
    c0 = np.array([0.0, 0.4, 1.0])
    phase = k[0] * x + k[1] * y + k[2] * z
    field = c0[:, None, None, None] * np.cos(phase)
    expected = -np.cross(k, c0)[:, None, None, None] * np.sin(phase)
    np.testing.assert_allclose(curl(field, grid), expected, atol=1e-12)


def test_curl_of_gradient_vanishes():
    grid = cube(16)
    x, y, z = meshes(grid)
    data = np.cos(x) * np.sin(2 * y) + np.cos(z)
    assert np.max(np.abs(curl(spectral_gradient(data, grid), grid))) < 1e-12


# --- Helmholtz decomposition ----------------------------------------------------


def random_vector_field(grid, seed):
    rng = np.random.default_rng(seed)
    hat = np.zeros((3,) + grid.shape, dtype=complex)
    # a handful of low modes keeps the field band limited and exact
    for _ in range(12):
        idx = tuple(rng.integers(1, 5, size=3))
        hat[(slice(None),) + idx] = rng.normal(size=3) + 1j * rng.normal(size=3)
    data = np.stack([np.fft.ifftn(hat[a]).real for a in range(3)])
    return VectorField(grid, data)


def test_helmholtz_parts_sum_and_are_orthogonal():
    grid = cube(16)
    field = random_vector_field(grid, 1)
    T, L = helmholtz_decompose(field)
    np.testing.assert_allclose(T.data + L.data, field.data, atol=1e-13)
    inner = float(np.sum(T.data * L.data) * grid.cell_volume)
    assert abs(inner) < 1e-12
    total = field.l2norm() ** 2
    assert T.l2norm() ** 2 + L.l2norm() ** 2 == pytest.approx(total, rel=1e-12)


def test_helmholtz_is_idempotent():
    grid = cube(16)
    field = random_vector_field(grid, 2)
    T, _ = helmholtz_decompose(field)
    T2, L2 = helmholtz_decompose(T)
    np.testing.assert_allclose(T2.data, T.data, atol=1e-13)
    assert L2.l2norm() < 1e-13


def test_gradient_fields_are_longitudinal():
    grid = cube(16)
    x, y, _ = meshes(grid)
    grad = VectorField(grid, spectral_gradient(np.cos(x) + np.sin(2 * y), grid))
    assert helmholtz_decompose(grad)[0].l2norm() < 1e-13 * grad.l2norm()


def test_curl_fields_are_transverse():
    grid = cube(16)
    field = random_vector_field(grid, 3)
    rotational = VectorField(grid, curl(field.data, grid))
    assert helmholtz_decompose(rotational)[1].l2norm() < 1e-13 * rotational.l2norm()


def test_uniform_field_counts_as_longitudinal():
    grid = cube(8)
    data = np.zeros((3,) + grid.shape)
    data[2] = 1.0
    uniform = VectorField(grid, data)
    assert helmholtz_decompose(uniform)[0].l2norm() == pytest.approx(0.0)
    assert helmholtz_decompose(uniform)[1].l2norm() == pytest.approx(uniform.l2norm())


# --- source deposits -------------------------------------------------------------


def source_at(pos, qe=1.0, qm=0.0, v=(0.0, 0.0, 0.0), sigma=0.5):
    return PointSource(np.asarray(pos), np.asarray(v), ChargePair(qe, qm), sigma)


def test_deposit_integrates_to_the_exact_charge():
    grid = cube(32)
    sources = [
        source_at((1.0, 2.0, 3.0), qe=1.25, qm=-0.5),
        source_at((4.0, 4.0, 1.5), qe=-0.75, qm=0.25),
    ]
    rho_e, rho_m, _, _ = deposit_sources(sources, grid)
    assert rho_e.integral() == pytest.approx(0.5, abs=1e-12)
    assert rho_m.integral() == pytest.approx(-0.25, abs=1e-12)


def test_deposit_current_is_density_times_velocity():
    grid = cube(32)
    v = np.array([0.03, -0.01, 0.02])
    source = source_at((2.0, 3.0, 1.0), qe=2.0, qm=0.5, v=v)
    rho_e, rho_m, j_e, j_m = deposit_sources([source], grid)
    np.testing.assert_allclose(j_e.data, v[:, None, None, None] * rho_e.data, atol=1e-13)
    np.testing.assert_allclose(j_m.data, v[:, None, None, None] * rho_m.data, atol=1e-13)


def test_deposit_is_linear_in_sources():
    grid = cube(32)
    s1 = source_at((1.0, 1.0, 1.0), qe=1.0)
    s2 = source_at((4.0, 5.0, 2.0), qe=-2.0, qm=1.0)
    together = deposit_sources([s1, s2], grid)
    separate1 = deposit_sources([s1], grid)
    separate2 = deposit_sources([s2], grid)
    for combined, a, b in zip(together, separate1, separate2):
        np.testing.assert_allclose(combined.data, a.data + b.data, atol=1e-13)


def test_deposit_peak_sits_at_the_source():
    grid = cube(32)
    source = source_at((2.0, 3.0, 4.0), qe=1.0, sigma=0.4)
    rho_e, _, _, _ = deposit_sources([source], grid)
    peak = np.unravel_index(np.argmax(rho_e.data), rho_e.data.shape)
    pos = np.array([grid.axes()[a][peak[a]] for a in range(3)])
    assert np.max(np.abs(pos - source.position)) <= max(grid.spacing)


def test_current_spectra_zero_for_static_sources():
    grid = cube(16)
    j_e, j_m = current_spectra([source_at((1, 1, 1))], grid)
    assert j_e.shape == j_m.shape == _kgrid(grid).shape
    assert not np.any(j_e) and not np.any(j_m)


def test_at_time_moves_and_wraps():
    source = source_at((5.0, 1.0, 1.0), v=(2.0, 0.0, 0.0))
    moved = source.at_time(1.0, box=(TWO_PI, TWO_PI, TWO_PI))
    assert moved.position[0] == pytest.approx(7.0 - TWO_PI)
    free = source.at_time(1.0)
    assert free.position[0] == pytest.approx(7.0)
    # np.mod(-3.5e-17, 2 pi) rounds to the float 2 pi itself, which lies outside
    below_zero = source_at((0.0, 1.0, 1.0), v=(-3.5e-17, 0.0, 0.0))
    assert below_zero.at_time(1.0, box=(TWO_PI, TWO_PI, TWO_PI)).position[0] == 0.0


@pytest.mark.parametrize(
    "pos,sigma,message",
    [
        ((1.0, 1.0, 1.0), 0.1, "under-resolves the grid"),
        ((1.0, 1.0, 1.0), 2.0, "too wide for the box"),  # wider than L/8
        ((7.0, 1.0, 1.0), 0.5, "lies outside the box"),
        ((-0.1, 1.0, 1.0), 0.5, "lies outside the box"),
    ],
)
def test_deposit_geometry_validation(pos, sigma, message):
    grid = cube(16)
    with pytest.raises(PreconditionError, match=message):
        deposit_sources([source_at(pos, sigma=sigma)], grid)


def test_shared_ratio_check():
    a = source_at((1, 1, 1), qe=1.0, qm=0.5)
    b = source_at((2, 2, 2), qe=-2.0, qm=-1.0)
    check_shared_ratio([a, b])  # parallel pairs pass
    check_shared_ratio([a, source_at((3, 3, 3), qe=0.0, qm=0.0)])  # zero pair passes
    with pytest.raises(PreconditionError, match="different qm/qe ratios"):
        check_shared_ratio([a, source_at((3, 3, 3), qe=1.0, qm=0.6)])


# --- spectral Coulomb solve -------------------------------------------------------


def test_coulomb_solve_single_mode_oracle():
    grid = cube(16)
    x, y, z = meshes(grid)
    k = np.array([1.0, 2.0, 0.0])
    phase = k[0] * x + k[1] * y + k[2] * z
    density = ScalarField(grid, np.cos(phase))
    out = coulomb_field_from_density(density, 2.5)
    expected = 2.5 * (k / float(k @ k))[:, None, None, None] * np.sin(phase)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_coulomb_solve_reproduces_density_divergence():
    grid = cube(32)
    source = source_at((3.0, 3.0, 3.0), qe=1.0, sigma=0.5)
    rho_e, _, _, _ = deposit_sources([source], grid)
    field = coulomb_field_from_density(rho_e, 1.0 / NAT.eps0)
    div = spectral_divergence(field.data, grid)
    target = (rho_e.data - np.mean(rho_e.data)) / NAT.eps0
    np.testing.assert_allclose(div, target, atol=1e-11)
    assert helmholtz_decompose(field)[0].l2norm() < 1e-13 * field.l2norm()


def test_smeared_charge_field_matches_radial_profile():
    # E_r(r) = q/(4 pi eps0 r^2) [erf(u) - 2u exp(-u^2)/sqrt(pi)], u = r/(sqrt(2) sigma)
    grid = cube(64)
    sigma = 0.25
    center = np.array([math.pi, math.pi, math.pi])
    source = source_at(center, qe=1.0, sigma=sigma)
    rho_e, _, _, _ = deposit_sources([source], grid)
    field = coulomb_field_from_density(rho_e, 1.0 / NAT.eps0)
    h = grid.spacing[0]
    i0 = grid.n[0] // 2
    for steps in (4, 5, 6, 8):
        r = steps * h
        u = r / (math.sqrt(2.0) * sigma)
        enclosed = erf(u) - 2.0 * u * math.exp(-(u**2)) / math.sqrt(math.pi)
        expected = enclosed / (4.0 * math.pi * r**2)
        sampled = field.data[0, i0 + steps, i0, i0]
        assert sampled == pytest.approx(expected, rel=2e-2)


# --- point field profiles ---------------------------------------------------------


def test_point_magnetic_field_has_no_permittivity_factor():
    B = point_magnetic_field(0.5, np.array([2.0, 0.0, 0.0]), UnitSystem(c=1.0, eps0=7.0))
    np.testing.assert_allclose(B, [0.5 / (16.0 * math.pi), 0.0, 0.0], rtol=1e-14)


def test_point_fields_reject_the_origin():
    with pytest.raises(ValueError, match="at the charge position"):
        point_magnetic_field(1.0, np.zeros(3), NAT)


def test_point_magnetic_field_follows_numpy_where_floats_overflow():
    # a cube that overflows reads inf, as a numpy float does, so the far field is zero
    assert point_magnetic_field(1.0, (1e103, 0.0, 0.0), NAT) == (0.0, 0.0, 0.0)
    # a cube that underflows leaves a zero divisor, where numpy would give inf
    with pytest.raises(ZeroDivisionError):
        point_magnetic_field(1.0, (1e-110, 0.0, 0.0), NAT)


# --- serialization -----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["scalar", "vector"])
def test_binary_round_trip_is_exact(tmp_path, kind):
    grid = Grid3((8, 6, 4), (1.0, 2.5, 3.0))
    rng = np.random.default_rng(6)
    if kind == "scalar":
        field = ScalarField(grid, rng.normal(size=grid.shape))
    else:
        field = VectorField(grid, rng.normal(size=(3,) + grid.shape))
    path = tmp_path / "field.bin"
    save_field(path, field)
    loaded = load_field(path)
    assert type(loaded) is type(field)
    assert loaded.grid.n == grid.n
    np.testing.assert_array_equal(loaded.data, field.data)
    assert loaded.grid.L == pytest.approx(grid.L, rel=0.0)


@pytest.mark.parametrize(
    "damage,message",
    [
        (lambda raw: raw[:40], "header"),
        (lambda raw: raw[:64], "payload"),
        (lambda raw: raw[:-8], "payload"),
        (lambda raw: raw + bytes(8), "payload"),
        (lambda raw: raw[:8] + np.int64(2).tobytes() + raw[16:], "component count"),
    ],
    ids=["short-header", "header-only", "truncated-payload", "trailing-bytes", "component-count"],
)
def test_load_field_rejects_damaged_files(tmp_path, damage, message):
    grid = Grid3((8, 6, 4), (1.0, 2.5, 3.0))
    path = tmp_path / "field.bin"
    save_field(path, VectorField(grid, np.ones((3,) + grid.shape)))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        load_field(path)


def test_load_field_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_a_field.bin"
    path.write_bytes(b"PNG\x00\x00\x00\x00\x00 and then some")
    with pytest.raises(ValueError):
        load_field(path)


def _fft_calls(node):
    names = {name for name in np.fft.__all__ if not name.endswith(("freq", "shift"))}
    return sorted(
        getattr(n.func, "attr", getattr(n.func, "id", None))
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and (getattr(n.func, "attr", None) in names or getattr(n.func, "id", None) in names)
    )


def test_fft_is_called_only_by_the_spectral_helpers():
    package = Path(dualfield.__file__).parent
    calls = {path.name: _fft_calls(ast.parse(path.read_text())) for path in package.glob("*.py")}
    assert {name: found for name, found in calls.items() if found} == {"fields.py": ["irfftn", "rfftn"]}
    helpers = {
        fn.name: _fft_calls(fn)
        for fn in ast.parse((package / "fields.py").read_text()).body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("_to_spectrum", "_to_grid")
    }
    assert helpers == {"_to_spectrum": ["rfftn"], "_to_grid": ["irfftn"]}


def _called(func):
    """``name`` or ``module.name`` of a call target, None for other targets."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def _callers(path, wanted):
    """Top-level definitions in ``path`` that call one of ``wanted``
    (``name`` or ``module.name``)."""
    found = {}
    for stmt in ast.parse(path.read_text()).body:
        calls = {_called(n.func) for n in ast.walk(stmt) if isinstance(n, ast.Call)}
        if calls & wanted:
            found[getattr(stmt, "name", None)] = sorted(calls & wanted)
    return found


def test_dual_rotation_and_force_law_are_written_once():
    package = Path(dualfield.__file__).parent
    trig = _callers(package / "dualcore.py", {"math.cos", "math.sin", "np.cos", "np.sin"})
    assert trig == {"_rotate": ["np.cos", "np.sin"]}
    # one componentwise force kernel on floats; np.cross is left to the orbit plane
    dynamics_source = package / "dynamics.py"
    assert _callers(dynamics_source, {"np.cross"}) == {"plane_normal": ["np.cross"]}
    law = _callers(dynamics_source, {"_force_law"})
    assert law == {"push_particle": ["_force_law"], "quantum_lorentz_force": ["_force_law"]}
    monopole = {}
    for path in sorted(package.glob("*.py")):
        monopole.update(_callers(path, {"point_magnetic_field"}))
    assert monopole == {"MonopoleSampler": ["point_magnetic_field"]}


def test_mode_observables_are_written_once():
    package = Path(dualfield.__file__).parent
    modes_source = package / "modes.py"
    contract = _callers(modes_source, {"_lorentz_contract", "_abs_contract"})
    assert contract == {"_dual_density": ["_abs_contract", "_lorentz_contract"]}
    projector = {}
    for path in sorted(package.glob("*.py")):
        projector.update(_callers(path, {"_transverse_hat"}))
    assert projector == {"helmholtz_decompose": ["_transverse_hat"],
                         "_spin_hat": ["_transverse_hat"]}
    # the grid form transforms once; the spectral core, which the scenario calls, never
    for name, expected in (("spin_observable", (1, 0)), ("_spin_hat", (0, 0))):
        spin = next(stmt for stmt in ast.parse(modes_source.read_text()).body
                    if getattr(stmt, "name", None) == name)
        transforms = [_called(n.func) for n in ast.walk(spin) if isinstance(n, ast.Call)]
        assert (transforms.count("_to_spectrum"), transforms.count("_to_grid")) == expected, name
    add_at = [
        n for n in ast.walk(ast.parse(modes_source.read_text()))
        if isinstance(n, ast.Call) and ast.unparse(n.func) == "np.add.at"
    ]
    assert len(add_at) == 2


# the state builders and verdicts behind the scenarios of criteria 2 to 7
SCENARIO_INTERNALS = {
    "random_wave_fields", "deposit_sources", "step_symmetric_maxwell", "dual_covariance_residual",
    "noether_dual_charge", "noether_dual_current", "symmetric_charge_energy", "two_field_energy",
    "coulomb_mode_set", "push_particle", "free_evolve_modes", "_covariance_defect",
    "_noether_current",
}


def test_the_acceptance_gate_takes_scenario_verdicts_from_the_scenarios():
    # a call or import of one of these would grow a second verdict next to the CLI's
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    called = {(_called(n.func) or "").rsplit(".", 1)[-1] for n in ast.walk(tree)
              if isinstance(n, ast.Call)}
    imported = {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for alias in n.names}
    assert (called | imported) & SCENARIO_INTERNALS == set()
    assert "main" in called


def _divides_by_k2(node):
    """Whether ``node`` divides by k^2: a ``/`` or an ``np.divide`` whose
    denominator names ``k2`` or ``_ksquared``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        denominator = node.right
    elif isinstance(node, ast.Call) and _called(node.func) == "np.divide" and len(node.args) > 1:
        denominator = node.args[1]
    else:
        return False
    return any(name in ast.unparse(denominator) for name in ("k2", "ksquared"))


def _guards_k2_division(node):
    return (isinstance(node, ast.With)
            and any(_called(getattr(item.context_expr, "func", None)) == "np.errstate"
                    for item in node.items)
            and any(_divides_by_k2(n) for stmt in node.body for n in ast.walk(stmt)))


def test_spectral_and_lattice_tables_are_written_once():
    package = Path(dualfield.__file__).parent

    def defining(test, stems=None):
        """``module.name`` of each top-level definition with a node that passes ``test``."""
        found = set()
        for path in sorted(package.glob("*.py")):
            if stems is None or path.stem in stems:
                found.update(f"{path.stem}.{getattr(stmt, 'name', None)}"
                             for stmt in ast.parse(path.read_text()).body
                             if any(test(n) for n in ast.walk(stmt)))
        return found

    # one batched near-cell Gauss rule besides the origin cell's
    gauss = defining(lambda n: isinstance(n, ast.Call)
                     and ast.unparse(n.func) == "np.polynomial.legendre.leggauss")
    assert gauss == {"modes._zero_cell_weight", "modes._near_weight_table"}
    # one k . v and one guarded 1/k^2, both in fields
    helpers = defining(lambda n: isinstance(n, ast.FunctionDef)
                       and n.name in {"_kdot", "_inv_ksquared"})
    assert helpers == {"fields._kdot", "fields._inv_ksquared"}
    spectral = {"fields", "maxwell"}
    assert defining(_divides_by_k2, spectral) == {"fields._inv_ksquared"}
    assert defining(_guards_k2_division) == set()
    components = defining(lambda n: isinstance(n, ast.Subscript)
                          and isinstance(n.value, ast.Name) and n.value.id == "k", spectral)
    assert components == {"fields._curl_hat", "fields._kdot"}


# Public names kept although no scenario, no other module and no acceptance
# criterion calls them; every other public name must have such a caller.
NO_CALLER_ALLOWED = {
    "fields.load_field": "reads back the E_final.bin / B_final.bin files dual-covariance writes",
    "fields.helmholtz_decompose": "the benchmark's scenarios warm-up splits a 16^3 field with it",
    "maxwell.dual_covariance_residual": "the benchmark's evolve verdicts time it; tier-1 pins it",
    "maxwell.step_symmetric_maxwell": "the benchmark's evolve warm-up calls it; tier-1 pins it",
    "modes.noether_dual_current": "the grid form of the current for arbitrary potentials; "
                                  "tier-1 pins the scenario route against it",
}


def test_the_only_exception_classes_are_the_two_exit_code_errors():
    # the command line tells exactly two failures apart; all else is ValueError
    package = Path(dualfield.__file__).parent
    bases = {
        f"{path.stem}.{node.name}": {name for base in node.bases for name in _names_used(base)}
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    raising = {name for name, value in vars(builtins).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    for _ in bases:  # each pass reaches one more level of subclassing
        raising |= {key.split(".")[1] for key, names in bases.items() if names & raising}
    errors = {key for key, names in bases.items() if names & raising}
    assert errors == {"errors.ConfigError", "errors.PreconditionError"}


def _names_used(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _public_names_bound(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        names = [alias.asname or alias.name for alias in stmt.names]
    else:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_has_a_caller():
    package = Path(dualfield.__file__).parent
    used = _names_used(ast.parse(Path(__file__).with_name("test_acceptance.py").read_text()))
    defined = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            names = _public_names_bound(stmt)
            defined.update((name, path.stem) for name in names)
            used |= _names_used(stmt) - set(names)
    uncalled = {f"{module}.{name}" for name, module in defined.items() if name not in used}
    allowed = set(NO_CALLER_ALLOWED)
    assert not uncalled - allowed, f"no caller: {sorted(uncalled - allowed)}"
    assert not allowed - uncalled, f"allowed, yet called: {sorted(allowed - uncalled)}"
    exported = ast.parse((package / "__init__.py").read_text()).body
    assert set(dualfield.__all__) == {name for stmt in exported for name in _public_names_bound(stmt)}
