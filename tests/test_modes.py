"""Mode-space machinery: lattices, pair energies, constraints, observables."""

import math

import numpy as np
import pytest

from dualfield.dualcore import ChargePair, PotentialPair, UnitSystem
from dualfield.errors import (
    AliasingError,
    CoincidentSourcesError,
    GridMismatchError,
    NotTransverseError,
    SharedRatioError,
)
from dualfield.fields import (
    Grid3,
    PointSource,
    VectorField,
    fields_from_potentials,
    helmholtz_decompose,
)
from dualfield import modes
from dualfield.modes import (
    ChargeFourier,
    ModeAmplitudeSet,
    ModeSet,
    charge_fourier,
    coulomb_energy_real,
    coulomb_mode_set,
    free_evolve_modes,
    gupta_bleuler_residual,
    load_amplitudes,
    noether_dual_charge,
    noether_dual_current,
    recommended_smearing,
    save_amplitudes,
    spin_observable,
    symmetric_charge_energy,
    synthesize_potentials,
    two_field_energy,
)

NAT = UnitSystem.natural()
TWO_PI = 2.0 * math.pi


def cube(n, L=TWO_PI):
    return Grid3((n, n, n), (L, L, L))


def source_pair(r=1.5, qe=(1.0, -1.0), qm=(0.0, 0.0), sigma=0.2):
    a = PointSource(np.zeros(3), np.zeros(3), ChargePair(qe[0], qm[0]), sigma)
    b = PointSource(np.array([r, 0.0, 0.0]), np.zeros(3), ChargePair(qe[1], qm[1]), sigma)
    return [a, b]


# --- mode sets -----------------------------------------------------------------


def test_lattice_materializes_the_expected_shell():
    ms = ModeSet.lattice(dk=1.0, kmax=1.5)
    assert ms.is_lattice
    with pytest.raises(ValueError):
        ms.n_modes
    full = ms.materialize()
    # 6 unit vectors and 12 face diagonals lie inside |k| <= 1.5
    assert full.n_modes == 18
    norms = np.linalg.norm(full.kvecs, axis=1)
    assert np.all(norms <= 1.5) and np.all(norms > 0.0)


def test_lattice_materialization_has_a_size_guard():
    ms = ModeSet.lattice(dk=1e-3, kmax=10.0)
    with pytest.raises(ValueError):
        ms.materialize(max_modes=1000)


def test_from_grid_modes_sit_on_bins_below_nyquist():
    grid = cube(16)
    ms = ModeSet.from_grid(grid, kmax=3.5)
    ints = ms.kvecs  # base spacing is 1 for L = 2 pi
    np.testing.assert_allclose(ints, np.rint(ints), atol=1e-12)
    assert np.all(np.abs(ints) <= grid.n[0] // 2 - 1)
    assert np.all(np.linalg.norm(ms.kvecs, axis=1) > 0.0)
    assert np.all(np.linalg.norm(ms.kvecs, axis=1) <= 3.5)


def test_mode_set_rejects_the_zero_mode():
    with pytest.raises(ValueError):
        ModeSet.from_kvecs(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), dk=1.0)


def test_mode_geometry_quantities():
    ms = ModeSet.lattice(dk=0.5, kmax=1.2).materialize()
    assert ms.mode_volume == pytest.approx(0.125)
    assert ms.box_volume == pytest.approx(TWO_PI**3 / 0.125)
    np.testing.assert_allclose(ms.omega(UnitSystem(c=3.0, eps0=1.0)),
                               3.0 * np.linalg.norm(ms.kvecs, axis=1))


def test_tetrads_are_orthonormal_and_right_handed():
    ms = ModeSet.from_grid(cube(16), kmax=4.5)
    khat, e1, e2 = ms.khat, ms.eps1, ms.eps2
    for a, b in [(khat, khat), (e1, e1), (e2, e2)]:
        np.testing.assert_allclose(np.sum(a * b, axis=1), 1.0, atol=1e-14)
    for a, b in [(khat, e1), (khat, e2), (e1, e2)]:
        np.testing.assert_allclose(np.sum(a * b, axis=1), 0.0, atol=1e-14)
    np.testing.assert_allclose(np.cross(e1, e2), khat, atol=1e-14)


# --- smearing and lattice choices -------------------------------------------------


def test_recommended_smearing_is_a_fifth_of_the_closest_pair():
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert recommended_smearing(positions) == pytest.approx(0.2)
    with pytest.raises(CoincidentSourcesError):
        recommended_smearing(np.zeros((2, 3)))


def test_source_pairs_name_the_first_coincident_pair():
    a, b = [0.0, 0.0, 0.0], [1.0, 2.0, 0.5]
    with pytest.raises(CoincidentSourcesError, match="sources 0 and 3 coincide"):
        modes._source_pairs(np.array([a, b, b, a]))  # (0, 3) precedes (1, 2)
    positions = np.array([a, b, [0.3, -1.0, 2.0], [4.0, 0.0, 0.0]])
    i, j, r = modes._source_pairs(positions)
    assert list(zip(i, j)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert list(r) == [float(np.linalg.norm(positions[p] - positions[q])) for p, q in zip(i, j)]


def test_coulomb_mode_set_scales_with_the_geometry():
    sources = source_pair(r=2.0, sigma=0.25)
    ms = coulomb_mode_set(sources)
    assert ms.is_lattice
    assert ms.kmax == pytest.approx(6.0 / 0.25)
    assert ms.dk[0] == pytest.approx(0.3 / 2.0)


# --- real-space pair energy ---------------------------------------------------------


def test_opposite_unit_charges_give_minus_coulomb():
    sources = source_pair(r=2.0)
    assert coulomb_energy_real(sources, NAT) == pytest.approx(-1.0 / (4.0 * math.pi * 2.0))


def test_like_charges_repel_and_energy_halves_with_distance():
    near = coulomb_energy_real(source_pair(r=1.0, qe=(1.0, 1.0)), NAT)
    far = coulomb_energy_real(source_pair(r=2.0, qe=(1.0, 1.0)), NAT)
    assert near == pytest.approx(1.0 / (4.0 * math.pi))
    assert far == pytest.approx(near / 2.0)


def test_pure_magnetic_pair_mirrors_the_electric_one():
    electric = coulomb_energy_real(source_pair(r=1.5, qe=(0.7, -0.7)), NAT)
    magnetic = coulomb_energy_real(
        source_pair(r=1.5, qe=(0.0, 0.0), qm=(0.7, -0.7)), NAT
    )
    assert magnetic == pytest.approx(electric, rel=1e-12)


def test_mixed_pair_uses_the_invariant_charge():
    qe, qm = 0.6, 0.8
    sources = source_pair(r=1.0, qe=(qe, -qe), qm=(qm, -qm))
    norm_sq = qe**2 + qm**2  # c = eps0 = 1
    assert coulomb_energy_real(sources, NAT) == pytest.approx(-norm_sq / (4.0 * math.pi))


def test_real_energy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        coulomb_energy_real(source_pair()[:1], NAT)
    with pytest.raises(SharedRatioError):
        coulomb_energy_real(source_pair(qe=(1.0, 1.0), qm=(0.5, 0.0)), NAT)
    on_top = source_pair(r=1.0)
    on_top[1] = PointSource(np.zeros(3), np.zeros(3), on_top[1].charges, on_top[1].sigma)
    with pytest.raises(CoincidentSourcesError):
        coulomb_energy_real(on_top, NAT)
    zeros = source_pair(qe=(0.0, 0.0))
    assert coulomb_energy_real(zeros, NAT) == 0.0


# --- mode-sum pair energy ------------------------------------------------------------


@pytest.mark.parametrize(
    "qe,qm",
    [((1.0, -1.0), (0.0, 0.0)), ((0.0, 0.0), (0.8, -0.8)), ((0.6, -0.6), (0.3, -0.3))],
)
def test_mode_sum_matches_real_space_at_the_asymmetrizing_angle(qe, qm):
    sources = source_pair(r=1.5, qe=qe, qm=qm, sigma=0.25)
    ms = coulomb_mode_set(sources)
    theta = math.atan2(qm[0], qe[0])
    mode = symmetric_charge_energy(sources, theta, ms, NAT)
    real = coulomb_energy_real(sources, NAT)
    assert abs(mode - real) / abs(real) < 0.01


def test_mode_sum_vanishes_a_quarter_turn_away():
    sources = source_pair(r=1.5, qe=(1.0, -1.0), sigma=0.25)
    ms = coulomb_mode_set(sources)
    reference = abs(symmetric_charge_energy(sources, 0.0, ms, NAT))
    rotated = abs(symmetric_charge_energy(sources, math.pi / 2, ms, NAT))
    assert rotated < 1e-12 * reference


def test_two_field_cross_term_is_structurally_zero():
    sources = source_pair(r=1.2, qe=(1.0, -0.5), qm=(0.3, 0.9), sigma=0.2)
    ee, mm, em = two_field_energy(sources, coulomb_mode_set(sources), NAT)
    assert em == 0.0  # exact, not approximately
    ee_ref = 1.0 * (-0.5) / (4.0 * math.pi * 1.2)
    mm_ref = 0.3 * 0.9 / (4.0 * math.pi * 1.2)
    assert abs(ee - ee_ref) / abs(ee_ref) < 0.01
    assert abs(mm - mm_ref) / abs(mm_ref) < 0.01


def test_two_field_energy_builds_the_lattice_kernel_once(monkeypatch):
    calls = []
    kernel = modes._pair_kernel

    def spy(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(modes, "_pair_kernel", spy)
    sources = source_pair(r=1.2, qe=(1.0, -0.5), qm=(0.3, 0.9), sigma=0.2)
    two_field_energy(sources, ModeSet.lattice(dk=1.0, kmax=4.0), NAT)
    assert len(calls) == 1


def full_lattice_kernel(rvecs, s2, dk, kmax, eps0):
    """Reference for ``_pair_kernel``: every signed lattice point in the cutoff,
    each cell weight written out, and the full cos(k.r)."""
    nmax = int(math.floor(kmax / dk))
    idx = np.arange(-nmax, nmax + 1)
    cells = np.stack(np.meshgrid(idx, idx, idx, indexing="ij"), axis=-1).reshape(-1, 3)
    k2 = (dk * dk) * np.sum(cells * cells, axis=1)
    cells, k2 = cells[k2 <= kmax * kmax], k2[k2 <= kmax * kmax]
    weights = np.empty(len(cells))
    for row, n in enumerate(cells):
        reach = int(np.max(np.abs(n)))
        if reach == 0:
            weights[row] = dk * modes._zero_cell_weight()
        elif reach <= modes._NEAR:
            weights[row] = dk * modes._cell_weight_gauss(tuple(n), 16 if reach <= 2 else 8)
        else:
            weights[row] = dk**3 / k2[row] * (1.0 + dk * dk / (12.0 * k2[row]))
    k = dk * cells
    terms = weights * np.cos(rvecs @ k.T) * np.exp(-0.5 * np.multiply.outer(s2, k2))
    return terms.sum(axis=1) / (TWO_PI**3 * eps0)


@pytest.mark.parametrize("kmax", [6.0, 2.2])
def test_pair_kernel_matches_the_full_signed_lattice(kmax):
    # nmax 12 reaches past the exact-weight block, nmax 4 cuts through it
    rvecs = np.array([[0.3, -0.7, 1.1], [-1.2, 0.4, 0.25], [0.05, 0.9, -0.6]])
    s2 = np.array([0.02, 0.05, 0.11])
    kernel = modes._pair_kernel(rvecs, s2, 0.5, kmax, 2.0)
    reference = full_lattice_kernel(rvecs, s2, 0.5, kmax, 2.0)
    np.testing.assert_allclose(kernel, reference, rtol=1e-13, atol=0.0)


def test_two_field_sector_energies_are_independent():
    sources = source_pair(r=1.5, qe=(1.0, -1.0), qm=(0.0, 0.0), sigma=0.25)
    ee, mm, em = two_field_energy(sources, coulomb_mode_set(sources), NAT)
    assert mm == 0.0 and em == 0.0
    assert ee == pytest.approx(coulomb_energy_real(sources, NAT), rel=0.01)


# --- Fourier data and the subsidiary condition -----------------------------------------


def test_charge_fourier_of_a_point_at_the_origin():
    k = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    ms = ModeSet.from_kvecs(k, dk=1.0)
    sigma = 0.3
    src = PointSource(np.zeros(3), np.zeros(3), ChargePair(2.0, 0.0), sigma)
    cf = charge_fourier([src], ms, NAT)
    expected = 2.0 * (TWO_PI**-1.5) * np.exp(-0.5 * np.array([1.0, 4.0]) * sigma**2)
    np.testing.assert_allclose(cf.rho_e, expected, rtol=1e-14)
    np.testing.assert_allclose(cf.rho_m, 0.0, atol=1e-15)


def test_charge_fourier_has_conjugate_symmetry():
    k = np.array([[1.0, 2.0, -1.0], [-1.0, -2.0, 1.0]])
    ms = ModeSet.from_kvecs(k, dk=1.0)
    src = PointSource(np.array([0.3, 1.1, 2.0]), np.array([0.01, 0.0, 0.0]),
                      ChargePair(1.0, 0.5), 0.3)
    cf = charge_fourier([src], ms, NAT)
    assert cf.rho_e[1] == pytest.approx(np.conj(cf.rho_e[0]))
    np.testing.assert_allclose(cf.xi_m[1], np.conj(cf.xi_m[0]), rtol=1e-13)


def test_subsidiary_closure_balances_the_constraint():
    grid = cube(16)
    ms = ModeSet.from_grid(grid, kmax=3.5)
    rng = np.random.default_rng(31)
    src = PointSource(np.array([2.0, 3.0, 1.0]), np.array([0.02, 0.0, 0.01]),
                      ChargePair(1.0, 0.4), 0.5)
    cf = charge_fourier([src], ms, NAT)
    a = rng.normal(size=(ms.n_modes, 4)) + 1j * rng.normal(size=(ms.n_modes, 4))
    amp = ModeAmplitudeSet(ms, a)
    theta = 0.7
    closed = amp.with_subsidiary_closure(cf, theta)
    assert gupta_bleuler_residual(closed, cf, theta) < 1e-14
    # and the one-field residual really is theta sensitive
    assert gupta_bleuler_residual(closed, cf, theta + 1.0) > 1e-6


def test_subsidiary_closure_two_field():
    ms = ModeSet.from_grid(cube(16), kmax=2.5)
    src = PointSource(np.array([1.0, 1.0, 1.0]), np.zeros(3), ChargePair(0.7, -0.2), 0.4)
    cf = charge_fourier([src], ms, NAT)
    amp = ModeAmplitudeSet.zeros(ms, two_field=True)
    closed = amp.with_subsidiary_closure(cf, 0.0)
    assert gupta_bleuler_residual(closed, cf, 0.0) < 1e-15
    assert closed.b is not None


def test_source_free_residual_measures_scalar_minus_longitudinal():
    ms = ModeSet.from_kvecs(np.array([[1.0, 0.0, 0.0]]), dk=1.0)
    cf = charge_fourier([], ms, NAT)
    a = np.zeros((1, 4), dtype=complex)
    a[0, 0] = 0.25
    a[0, 3] = 0.25
    assert gupta_bleuler_residual(ModeAmplitudeSet(ms, a), cf, 0.0) == 0.0
    a[0, 0] = 0.25 + 1e-3
    assert gupta_bleuler_residual(ModeAmplitudeSet(ms, a), cf, 0.0) == pytest.approx(1e-3)


def test_amplitude_shape_validation():
    ms = ModeSet.from_kvecs(np.array([[1.0, 0.0, 0.0]]), dk=1.0)
    with pytest.raises(ValueError):
        ModeAmplitudeSet(ms, np.zeros((2, 4), dtype=complex))
    with pytest.raises(ValueError):
        ModeAmplitudeSet(ms, np.zeros((1, 4), dtype=complex), np.zeros((1, 3), dtype=complex))


def test_mode_set_mismatch_is_rejected():
    ms1 = ModeSet.from_kvecs(np.array([[1.0, 0.0, 0.0]]), dk=1.0)
    ms2 = ModeSet.from_kvecs(np.array([[0.0, 1.0, 0.0]]), dk=1.0)
    amp = ModeAmplitudeSet.zeros(ms1)
    cf = charge_fourier([], ms2, NAT)
    with pytest.raises(ValueError):
        gupta_bleuler_residual(amp, cf, 0.0)


# --- free evolution ---------------------------------------------------------------------


def test_free_evolution_phases_and_composition():
    ms = ModeSet.from_kvecs(np.array([[2.0, 0.0, 0.0]]), dk=1.0)
    a = np.ones((1, 4), dtype=complex)
    amp = ModeAmplitudeSet(ms, a)
    t = 0.37
    evolved = free_evolve_modes(amp, t, NAT)
    np.testing.assert_allclose(evolved.a, np.exp(-2j * t) * a, rtol=1e-14)
    np.testing.assert_allclose(np.abs(evolved.a), np.abs(a), rtol=1e-14)
    two_step = free_evolve_modes(free_evolve_modes(amp, 0.2, NAT), 0.17, NAT)
    np.testing.assert_allclose(two_step.a, evolved.a, rtol=1e-13)
    identity = free_evolve_modes(amp, 0.0, NAT)
    np.testing.assert_array_equal(identity.a, amp.a)


# --- synthesis ---------------------------------------------------------------------------


def single_mode_amp(grid, kint=(1, 0, 0), coeffs=(0.0, 1.0, 0.0, 0.0)):
    ms = ModeSet.from_kvecs(np.array([kint], dtype=float), dk=TWO_PI / grid.L[0])
    a = np.array([coeffs], dtype=complex)
    return ModeAmplitudeSet(ms, a), ms


def test_single_mode_synthesis_matches_direct_evaluation():
    grid = cube(16)
    amp, ms = single_mode_amp(grid)
    pp, dpp = synthesize_potentials(amp, 0.0, grid, NAT)
    x = grid.axes()[0][:, None, None] * np.ones(grid.shape)
    omega = float(ms.omega(NAT)[0])
    N_k = math.sqrt(1.0 / (2.0 * omega * ms.box_volume))
    eps1 = ms.eps1[0]
    for axis in range(3):
        np.testing.assert_allclose(
            pp.A[1 + axis], 2.0 * N_k * eps1[axis] * np.cos(x), atol=1e-12
        )
        np.testing.assert_allclose(
            dpp.A[1 + axis], 2.0 * N_k * omega * eps1[axis] * np.sin(x), atol=1e-12
        )
    assert np.max(np.abs(pp.A[0])) < 1e-15  # no scalar amplitude
    assert np.max(np.abs(pp.C)) < 1e-15  # theta = 0 has no second potential


def test_imaginary_amplitude_shifts_the_phase():
    grid = cube(16)
    amp, ms = single_mode_amp(grid, coeffs=(0.0, 1j, 0.0, 0.0))
    pp, _ = synthesize_potentials(amp, 0.0, grid, NAT)
    x = grid.axes()[0][:, None, None] * np.ones(grid.shape)
    omega = float(ms.omega(NAT)[0])
    N_k = math.sqrt(1.0 / (2.0 * omega * ms.box_volume))
    np.testing.assert_allclose(
        pp.A[1:], -2.0 * N_k * ms.eps1[0][:, None, None, None] * np.sin(x), atol=1e-12
    )


def test_synthesis_angle_splits_the_two_potentials():
    grid = cube(16)
    amp, _ = single_mode_amp(grid)
    theta = 0.6
    pp, _ = synthesize_potentials(amp, theta, grid, NAT)
    pp0, _ = synthesize_potentials(amp, 0.0, grid, NAT)
    np.testing.assert_allclose(pp.A, math.cos(theta) * pp0.A, atol=1e-14)
    np.testing.assert_allclose(pp.C, math.sin(theta) * pp0.A, atol=1e-14)
    quarter, _ = synthesize_potentials(amp, math.pi / 2, grid, NAT)
    assert np.max(np.abs(quarter.A)) < 1e-15


def test_synthesis_of_zero_amplitudes_is_zero():
    grid = cube(8)
    ms = ModeSet.from_grid(grid, kmax=2.5)
    pp, dpp = synthesize_potentials(ModeAmplitudeSet.zeros(ms), 0.3, grid, NAT)
    assert np.max(np.abs(pp.A)) == 0.0 and np.max(np.abs(pp.C)) == 0.0
    assert np.max(np.abs(dpp.A)) == 0.0


def test_synthesis_rejects_off_bin_and_aliased_modes():
    grid = cube(8)
    off_bin = ModeAmplitudeSet.zeros(ModeSet.from_kvecs(np.array([[0.5, 0.0, 0.0]]), dk=1.0))
    with pytest.raises(AliasingError):
        synthesize_potentials(off_bin, 0.0, grid, NAT)
    aliased = ModeAmplitudeSet.zeros(ModeSet.from_kvecs(np.array([[4.0, 0.0, 0.0]]), dk=1.0))
    with pytest.raises(AliasingError):
        synthesize_potentials(aliased, 0.0, grid, NAT)


def test_synthesis_requires_matching_box_volume():
    grid = cube(8, L=math.pi)
    amp = ModeAmplitudeSet.zeros(ModeSet.from_kvecs(np.array([[1.0, 0.0, 0.0]]), dk=1.0))
    with pytest.raises(GridMismatchError):
        synthesize_potentials(amp, 0.0, grid, NAT)


# --- the rotation Noether charge ------------------------------------------------------


def random_constrained_potentials(grid, ms, seed, theta=None):
    rng = np.random.default_rng(seed)
    if theta is None:
        theta = rng.uniform(0.0, TWO_PI)
    a = rng.normal(size=(ms.n_modes, 4)) + 1j * rng.normal(size=(ms.n_modes, 4))
    return synthesize_potentials(ModeAmplitudeSet(ms, a), theta, grid, NAT)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_constrained_configurations_carry_no_rotation_charge(seed):
    grid = cube(16)
    ms = ModeSet.from_grid(grid, kmax=3.5)
    pp, dpp = random_constrained_potentials(grid, ms, seed)
    value, scale = noether_dual_charge(pp, dpp, grid, NAT)
    assert scale > 0.0
    assert abs(value) / scale < 1e-10
    f, f_scale = noether_dual_current(pp, dpp, grid, NAT)
    assert np.max(np.abs(f)) / np.max(f_scale) < 1e-10


def test_identical_potentials_cancel_exactly():
    grid = cube(8)
    rng = np.random.default_rng(8)
    A = rng.normal(size=(4,) + grid.shape)
    dA = rng.normal(size=(4,) + grid.shape)
    value, scale = noether_dual_charge(PotentialPair(A, A), PotentialPair(dA, dA), grid, NAT)
    assert value == 0.0
    assert scale > 0.0


def test_unconstrained_potentials_carry_charge():
    grid = cube(16)
    ms = ModeSet.from_grid(grid, kmax=3.5)
    pp1, dpp1 = random_constrained_potentials(grid, ms, 10, theta=0.0)
    pp2, dpp2 = random_constrained_potentials(grid, ms, 11, theta=0.0)
    broken = PotentialPair(pp1.A, NAT.c * pp2.A)
    broken_dt = PotentialPair(dpp1.A, NAT.c * dpp2.A)
    value, scale = noether_dual_charge(broken, broken_dt, grid, NAT)
    assert abs(value) / scale > 1e-3


# --- spin and helicity -----------------------------------------------------------------


def helicity_amp(grid, kint, w, sign=+1.0):
    ms = ModeSet.from_kvecs(np.array([kint], dtype=float), dk=TWO_PI / grid.L[0])
    a = np.zeros((1, 4), dtype=complex)
    a[0, 1] = w / math.sqrt(2.0)
    a[0, 2] = sign * 1j * w / math.sqrt(2.0)
    return ModeAmplitudeSet(ms, a), ms


def spin_from_amp(amp, theta, grid, units=NAT):
    pp, dpp = synthesize_potentials(amp, theta, grid, units)
    fp = fields_from_potentials(pp, dpp, grid, units)
    E_T, _ = helmholtz_decompose(VectorField(grid, fp.E))
    B_T, _ = helmholtz_decompose(VectorField(grid, fp.B))
    A_T, _ = helmholtz_decompose(VectorField(grid, pp.A[1:]))
    C_T, _ = helmholtz_decompose(VectorField(grid, pp.C[1:]))
    return spin_observable(E_T, B_T, A_T, C_T, units)


@pytest.mark.parametrize("kint", [(1, 0, 0), (0, 2, 1)])
def test_positive_helicity_spin_is_hbar_per_quantum(kint):
    grid = cube(16)
    w = 0.8
    amp, ms = helicity_amp(grid, kint, w)
    S = spin_from_amp(amp, 0.0, grid)
    np.testing.assert_allclose(S, w**2 * ms.khat[0], rtol=1e-12, atol=1e-14)


def test_negative_helicity_flips_the_spin():
    grid = cube(16)
    amp, ms = helicity_amp(grid, (1, 0, 0), 0.5, sign=-1.0)
    S = spin_from_amp(amp, 0.0, grid)
    np.testing.assert_allclose(S, -0.25 * ms.khat[0], rtol=1e-12, atol=1e-15)


def test_linear_polarization_carries_no_spin():
    grid = cube(16)
    amp, _ = single_mode_amp(grid, coeffs=(0.0, 0.7, 0.0, 0.0))
    S = spin_from_amp(amp, 0.0, grid)
    assert np.max(np.abs(S)) < 1e-14


@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 2, 2.2])
def test_spin_is_independent_of_the_representation_angle(theta):
    grid = cube(16)
    amp, ms = helicity_amp(grid, (1, 0, 0), 0.6)
    S = spin_from_amp(amp, theta, grid)
    np.testing.assert_allclose(S, 0.36 * ms.khat[0], rtol=1e-12, atol=1e-14)


def test_spin_is_conserved_under_free_evolution():
    grid = cube(16)
    ms = ModeSet.from_grid(grid, kmax=2.5)
    rng = np.random.default_rng(13)
    a = np.zeros((ms.n_modes, 4), dtype=complex)
    a[:, 1] = rng.normal(size=ms.n_modes) + 1j * rng.normal(size=ms.n_modes)
    a[:, 2] = rng.normal(size=ms.n_modes) + 1j * rng.normal(size=ms.n_modes)
    amp = ModeAmplitudeSet(ms, a)
    h0 = float(np.linalg.norm(spin_from_amp(amp, 0.5, grid)))
    for t in (0.7, 2.3, 11.0):
        h = float(np.linalg.norm(spin_from_amp(free_evolve_modes(amp, t, NAT), 0.5, grid)))
        assert abs(h - h0) / h0 < 1e-10


def test_spin_rejects_longitudinal_inputs():
    grid = cube(8)
    data = np.zeros((3,) + grid.shape)
    x = grid.axes()[0][:, None, None] * np.ones(grid.shape)
    data[0] = np.sin(x)  # gradient-like: k along x, vector along x
    longitudinal = VectorField(grid, data)
    zero = VectorField(grid, np.zeros((3,) + grid.shape))
    with pytest.raises(NotTransverseError):
        spin_observable(longitudinal, zero, zero, zero, NAT)


def test_spin_rejects_mismatched_grids():
    zero8 = VectorField(cube(8), np.zeros((3, 8, 8, 8)))
    zero16 = VectorField(cube(16), np.zeros((3, 16, 16, 16)))
    with pytest.raises(GridMismatchError):
        spin_observable(zero8, zero16, zero8, zero8, NAT)


# --- serialization ------------------------------------------------------------------------


@pytest.mark.parametrize("two_field", [False, True])
def test_amplitude_round_trip(tmp_path, two_field):
    ms = ModeSet.from_kvecs(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0]]), dk=0.5)
    rng = np.random.default_rng(17)
    a = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    b = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)) if two_field else None
    amp = ModeAmplitudeSet(ms, a, b)
    path = tmp_path / "amplitudes.txt"
    save_amplitudes(path, amp)
    loaded = load_amplitudes(path)
    np.testing.assert_array_equal(loaded.modes.kvecs, ms.kvecs)
    np.testing.assert_array_equal(loaded.a, a)
    if two_field:
        np.testing.assert_array_equal(loaded.b, b)
    else:
        assert loaded.b is None
    assert loaded.modes.dk == ms.dk


@pytest.mark.parametrize(
    "damage",
    ["drop the last row", "swap two lam rows", "drop a column"],
)
def test_load_amplitudes_rejects_a_damaged_table(tmp_path, damage):
    ms = ModeSet.from_kvecs(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0]]), dk=0.5)
    path = tmp_path / "amplitudes.txt"
    save_amplitudes(path, ModeAmplitudeSet(ms, np.ones((2, 4), dtype=complex)))
    lines = path.read_text().splitlines()
    if damage == "drop the last row":
        lines = lines[:-1]
    elif damage == "swap two lam rows":
        lines[3], lines[4] = lines[4], lines[3]
    else:
        lines[-1] = lines[-1].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_amplitudes(path)


def test_load_amplitudes_requires_metadata(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("kx,ky,kz,lam,re_a,im_a\n")
    with pytest.raises(ValueError):
        load_amplitudes(path)
