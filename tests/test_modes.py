"""Mode-space machinery: lattices, pair energies, constraints, observables."""

import math

import numpy as np
import pytest

from dualfield.dualcore import ChargePair, PotentialPair, UnitSystem
from dualfield.errors import PreconditionError
from dualfield.fields import (
    Grid3,
    PointSource,
    VectorField,
    _curl_hat,
    _kgrid,
    _to_grid,
    _to_spectrum,
    helmholtz_decompose,
    spectral_gradient,
)
from dualfield import modes
from dualfield.cli import MAX_LATTICE_NMAX
from dualfield.modes import (
    ModeAmplitudeSet,
    ModeSet,
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
from test_dualcore import same_bits

NAT = UnitSystem.natural()
TWO_PI = 2.0 * math.pi


def cube(n, L=TWO_PI):
    return Grid3((n, n, n), (L, L, L))


def source_pair(r=1.5, qe=(1.0, -1.0), qm=(0.0, 0.0), sigma=0.2):
    a = PointSource(np.zeros(3), np.zeros(3), ChargePair(qe[0], qm[0]), sigma)
    b = PointSource(np.array([r, 0.0, 0.0]), np.zeros(3), ChargePair(qe[1], qm[1]), sigma)
    return [a, b]


# --- mode sets -----------------------------------------------------------------


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
    ms = ModeSet.from_kvecs(0.5 * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, -1.0, 2.0]]), dk=0.5)
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
    with pytest.raises(PreconditionError, match="sources 0 and 1 coincide"):
        recommended_smearing(np.zeros((2, 3)))


def test_source_pairs_name_the_first_coincident_pair():
    a, b = [0.0, 0.0, 0.0], [1.0, 2.0, 0.5]
    with pytest.raises(PreconditionError, match="sources 0 and 3 coincide"):
        modes._source_pairs(np.array([a, b, b, a]))  # (0, 3) precedes (1, 2)
    positions = np.array([a, b, [0.3, -1.0, 2.0], [4.0, 0.0, 0.0]])
    i, j, r = modes._source_pairs(positions)
    assert list(zip(i, j)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert list(r) == [float(np.linalg.norm(positions[p] - positions[q])) for p, q in zip(i, j)]


def test_source_pairs_measure_a_distance_whose_square_underflows():
    _, _, r = modes._source_pairs(np.array([[0.0, 0.0, 0.0], [1e-200, 0.0, 0.0]]))
    assert list(r) == [1e-200]


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
    with pytest.raises(PreconditionError, match="different qm/qe ratios"):
        coulomb_energy_real(source_pair(qe=(1.0, 1.0), qm=(0.5, 0.0)), NAT)
    on_top = source_pair(r=1.0)
    on_top[1] = PointSource(np.zeros(3), np.zeros(3), on_top[1].charges, on_top[1].sigma)
    with pytest.raises(PreconditionError, match="sources 0 and 1 coincide"):
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
    ms = coulomb_mode_set(sources)
    ee, mm, em = two_field_energy(sources, ms, NAT)
    assert em == 0.0  # computed: the sector matrix 1 has no off-diagonal block
    ee_ref = 1.0 * (-0.5) / (4.0 * math.pi * 1.2)
    mm_ref = 0.3 * 0.9 / (4.0 * math.pi * 1.2)
    assert abs(ee - ee_ref) / abs(ee_ref) < 0.01
    assert abs(mm - mm_ref) / abs(mm_ref) < 0.01
    # the one-field sector matrix at pi/4 mixes the sectors, and the same
    # contraction then returns em = (qe_1 qm_2 + qm_1 qe_2) / 2 times the kernel
    u = np.asarray(modes._sector_weights(math.pi / 4))
    _, _, em_mixed = modes._pair_energies(sources, np.outer(u, u), ms, NAT)
    em_ref = 0.5 * (1.0 * 0.9 + 0.3 * (-0.5)) / (4.0 * math.pi * 1.2)
    assert abs(em_mixed - em_ref) / abs(em_ref) < 0.01
    mixed = source_pair(r=1.0, qe=(1.0, 0.0), qm=(0.0, 1.0), sigma=0.15)
    _, _, em_floor = modes._pair_energies(mixed, np.outer(u, u), coulomb_mode_set(mixed), NAT)
    assert em_floor == pytest.approx(0.5 / (4.0 * math.pi), rel=0.01)


@pytest.mark.parametrize(
    "energy",
    [lambda s, ms: symmetric_charge_energy(s, 0.4, ms, NAT),
     lambda s, ms: two_field_energy(s, ms, NAT)],
    ids=["symmetric_charge_energy", "two_field_energy"],
)
def test_each_mode_sum_builds_the_lattice_kernel_once(monkeypatch, energy):
    modes._lattice_kernel.cache_clear()
    calls = []
    kernel = modes._pair_kernel

    def spy(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(modes, "_pair_kernel", spy)
    sources = source_pair(r=1.2, qe=(1.0, -0.5), qm=(0.3, 0.9), sigma=0.2)
    energy(sources, ModeSet.lattice(dk=1.0, kmax=4.0))
    assert len(calls) == 1


def test_one_and_two_field_sums_share_one_lattice_kernel():
    sources = source_pair(r=1.2, qe=(1.0, -0.5), qm=(0.3, 0.9), sigma=0.2)
    ms = ModeSet.lattice(dk=1.0, kmax=4.0)
    modes._lattice_kernel.cache_clear()
    symmetric_charge_energy(sources, 0.4, ms, NAT)
    cold = two_field_energy(sources, ms, NAT)
    info = modes._lattice_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    warm = two_field_energy(sources, ms, NAT)
    modes._lattice_kernel.cache_clear()
    assert warm == cold == two_field_energy(sources, ms, NAT)


def shifted_pair(change):
    """The pair of the kernel-cache tests, its lattice and units, with one input changed."""
    r, sigma = 1.2, 0.2
    ms, units = ModeSet.lattice(dk=1.0, kmax=4.0), NAT
    if change == "position":
        r = math.nextafter(r, 2.0)
    elif change == "sigma":
        sigma = 0.25
    elif change == "eps0":
        units = UnitSystem(eps0=2.0)
    elif change == "dk":
        ms = ModeSet.lattice(dk=0.9, kmax=4.0)
    elif change == "kmax":
        ms = ModeSet.lattice(dk=1.0, kmax=5.0)
    return source_pair(r=r, qe=(1.0, -0.5), qm=(0.3, 0.9), sigma=sigma), ms, units


@pytest.mark.parametrize("change", ["position", "sigma", "eps0", "dk", "kmax"])
def test_changing_one_kernel_input_rebuilds_the_kernel(change):
    modes._lattice_kernel.cache_clear()
    two_field_energy(*shifted_pair(None))
    two_field_energy(*shifted_pair(change))
    info = modes._lattice_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 1)


def test_the_cached_kernel_is_read_only():
    rvecs, s2 = np.array([1.2, 0.0, 0.0]).tobytes(), np.array([0.08]).tobytes()
    assert not modes._lattice_kernel(rvecs, s2, 1.0, 4.0, 1.0).flags.writeable


def cell_weight_gauss(n, points):
    """Tensor Gauss-Legendre integral of 1/|u|^2 over the unit cube centred on
    the integer point ``n``, one cell at a time."""
    x, w = np.polynomial.legendre.leggauss(points)
    X, Y, Z = np.meshgrid(*[ni + 0.5 * x for ni in n], indexing="ij")
    W = (0.5 * w)[:, None, None] * (0.5 * w)[None, :, None] * (0.5 * w)[None, None, :]
    return float(np.sum(W / (X**2 + Y**2 + Z**2)))


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
            weights[row] = dk * cell_weight_gauss(n, 16 if reach <= 2 else 8)
        else:
            weights[row] = dk**3 / k2[row] * (1.0 + dk * dk / (12.0 * k2[row]))
    k = dk * cells
    terms = weights * np.cos(rvecs @ k.T) * np.exp(-0.5 * np.multiply.outer(s2, k2))
    return terms.sum(axis=1) / (TWO_PI**3 * eps0)


KERNEL_PAIRS = np.array([[0.3, -0.7, 1.1], [-1.2, 0.4, 0.25], [0.05, 0.9, -0.6]])
KERNEL_S2 = np.array([0.02, 0.05, 0.11])


@pytest.mark.parametrize("kmax", [6.0, 2.2, 5.3, 5.25])
def test_pair_kernel_matches_the_full_signed_lattice(kmax):
    # nmax 12 reaches past the exact-weight block, nmax 4 cuts through it;
    # nmax 10 with (kmax / dk)^2 = 112.36 ends on a partial shell, but its
    # shells 111 and 112 are empty (no sum of three squares); (kmax / dk)^2 =
    # 110.25 ends on the occupied shell 110 = 10^2 + 3^2 + 1^2
    kernel = modes._pair_kernel(KERNEL_PAIRS, KERNEL_S2, 0.5, kmax, 2.0)
    reference = full_lattice_kernel(KERNEL_PAIRS, KERNEL_S2, 0.5, kmax, 2.0)
    np.testing.assert_allclose(kernel, reference, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_pair_kernel_is_even_in_each_component(axis):
    flipped = KERNEL_PAIRS.copy()
    flipped[:, axis] *= -1.0
    kernel = modes._pair_kernel(KERNEL_PAIRS, KERNEL_S2, 0.5, 6.0, 2.0)
    assert np.array_equal(modes._pair_kernel(flipped, KERNEL_S2, 0.5, 6.0, 2.0), kernel)


@pytest.mark.parametrize("order", [(1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0)])
def test_pair_kernel_treats_no_axis_specially(order):
    kernel = modes._pair_kernel(KERNEL_PAIRS, KERNEL_S2, 0.5, 6.0, 2.0)
    permuted = modes._pair_kernel(KERNEL_PAIRS[:, order], KERNEL_S2, 0.5, 6.0, 2.0)
    np.testing.assert_allclose(permuted, kernel, rtol=1e-14, atol=0.0)


def test_pair_kernel_at_the_lattice_bound_is_the_gaussian_pair_coulomb_law():
    kmax, eps0 = 10.0, 2.0
    dk = kmax / MAX_LATTICE_NMAX
    assert math.floor(kmax / dk) == MAX_LATTICE_NMAX
    rvec, s2 = np.array([[0.6, -0.48, 0.64]]), np.array([2.0 * (6.0 / kmax) ** 2])
    r = float(np.linalg.norm(rvec))
    gaussian_pair = math.erf(r / math.sqrt(2.0 * s2[0])) / (4.0 * math.pi * eps0 * r)
    kernel = modes._pair_kernel(rvec, s2, dk, kmax, eps0)[0]
    assert kernel == pytest.approx(gaussian_pair, rel=1e-4)


def test_two_field_sector_energies_are_independent():
    sources = source_pair(r=1.5, qe=(1.0, -1.0), qm=(0.0, 0.0), sigma=0.25)
    ee, mm, em = two_field_energy(sources, coulomb_mode_set(sources), NAT)
    assert mm == 0.0 and em == 0.0
    assert ee == pytest.approx(coulomb_energy_real(sources, NAT), rel=0.01)


# --- amplitudes and free evolution ------------------------------------------------------


def test_amplitude_shape_validation():
    ms = ModeSet.from_kvecs(np.array([[1.0, 0.0, 0.0]]), dk=1.0)
    with pytest.raises(ValueError):
        ModeAmplitudeSet(ms, np.zeros((2, 4), dtype=complex))
    with pytest.raises(ValueError):
        ModeAmplitudeSet(ms, np.zeros((1, 3), dtype=complex))


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


def full_spectrum_synthesis(amp, grid, units):
    """X^mu and dX^mu/dt on the full spectrum, each mode and each conjugate
    partner scattered in one call: the reference for ``_synthesis_hat``."""
    ms = amp.modes
    bins = modes._grid_bins(ms, grid)
    omega = ms.omega(units)
    N_k = np.sqrt(1.0 / (2.0 * units.eps0 * omega * ms.box_volume))
    n_cells = grid.n[0] * grid.n[1] * grid.n[2]
    coeff = np.einsum("ml,mlu->mu", amp.a, modes._polarization_four_vectors(ms)) * N_k[:, None]
    rows = np.concatenate([coeff.T, (-1j * omega) * coeff.T])
    S = np.zeros((8,) + grid.shape, dtype=complex)
    np.add.at(S, (slice(None), *bins.T), n_cells * rows)
    np.add.at(S, (slice(None), *(-bins % np.asarray(grid.n)).T), n_cells * np.conj(rows))
    return S


@pytest.mark.parametrize("units", [NAT, UnitSystem(3.0, 0.2)], ids=["natural", "c3-eps0.2"])
@pytest.mark.parametrize("case", ["from_grid", "12x16x20", "repeated"])
def test_synthesis_spectrum_is_the_half_of_the_full_scatter(case, units):
    if case == "repeated":  # one of a pair, a repeated mode, a mode on the kz = 0 plane
        grid = cube(8)
        ms = ModeSet.from_kvecs(np.array([[1.0, 0, 0], [0, -2, 1], [0, -2, 1], [-1, 3, 0]]), 1.0)
    else:
        grid = cube(16) if case == "from_grid" else Grid3((12, 16, 20), (5.0, 6.0, 7.0))
        ms = ModeSet.from_grid(grid, kmax=3.5)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(ms.n_modes, 4)) + 1j * rng.normal(size=(ms.n_modes, 4))
    amp = ModeAmplitudeSet(ms, a)
    hat = modes._synthesis_hat(amp, grid, units)
    ref = full_spectrum_synthesis(amp, grid, units)[..., : grid.n[2] // 2 + 1]
    assert same_bits(hat.real, ref.real) and same_bits(hat.imag, ref.imag)


def zero_amp(ms):
    return ModeAmplitudeSet(ms, np.zeros((ms.n_modes, 4)))


def test_synthesis_of_zero_amplitudes_is_zero():
    grid = cube(8)
    ms = ModeSet.from_grid(grid, kmax=2.5)
    pp, dpp = synthesize_potentials(zero_amp(ms), 0.3, grid, NAT)
    assert np.max(np.abs(pp.A)) == 0.0 and np.max(np.abs(pp.C)) == 0.0
    assert np.max(np.abs(dpp.A)) == 0.0


def test_synthesis_rejects_off_bin_and_aliased_modes():
    grid = cube(8)
    off_bin = zero_amp(ModeSet.from_kvecs(np.array([[0.5, 0.0, 0.0]]), dk=1.0))
    with pytest.raises(PreconditionError, match="do not sit on grid bins"):
        synthesize_potentials(off_bin, 0.0, grid, NAT)
    aliased = zero_amp(ModeSet.from_kvecs(np.array([[4.0, 0.0, 0.0]]), dk=1.0))
    with pytest.raises(PreconditionError, match="exceed the grid Nyquist range"):
        synthesize_potentials(aliased, 0.0, grid, NAT)


def test_synthesis_requires_matching_box_volume():
    grid = cube(8, L=math.pi)
    amp = zero_amp(ModeSet.from_kvecs(np.array([[1.0, 0.0, 0.0]]), dk=1.0))
    with pytest.raises(ValueError, match="mode lattice represents volume"):
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
    return spin_observable(*synthesize_potentials(amp, theta, grid, units), grid, units)


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


def test_spin_ignores_a_static_gauge_gradient():
    grid = cube(16)
    amp, _ = helicity_amp(grid, (0, 2, 1), 0.7)
    pp, dpp = synthesize_potentials(amp, 0.4, grid, NAT)
    S = spin_observable(pp, dpp, grid, NAT)
    x, y, z = np.meshgrid(*grid.axes(), indexing="ij")
    chi = 0.02 * np.cos(x + 2.0 * y) + 0.01 * np.sin(3.0 * z - y)  # |grad chi| ~ |A|
    A = pp.A.copy()
    A[1:] += spectral_gradient(chi, grid)
    S_gauge = spin_observable(PotentialPair(A, pp.C), dpp, grid, NAT)
    assert np.max(np.abs(S_gauge - S)) <= 1e-14 * np.max(np.abs(S))


def real_space_spin(pp, dpp, grid, units):
    """eps0 * sum over cells of (E_T x A_T + B_T x C_T) h^3, with E and B built
    on the grid from the potentials and split by ``helmholtz_decompose``."""
    def curl(v):
        return _to_grid(_curl_hat(_kgrid(grid), _to_spectrum(v)))

    c = units.c
    E = -(dpp.A[1:] + c * spectral_gradient(pp.A[0], grid) + curl(pp.C[1:]))
    B = -(dpp.C[1:] / c**2 + spectral_gradient(pp.C[0], grid) / c - curl(pp.A[1:]))
    E_T, B_T, A_T, C_T = (
        helmholtz_decompose(VectorField(grid, v))[0].data for v in (E, B, pp.A[1:], pp.C[1:])
    )
    cross = np.cross(E_T, A_T, axis=0) + np.cross(B_T, C_T, axis=0)
    return units.eps0 * np.sum(cross, axis=(1, 2, 3)) * grid.cell_volume


@pytest.mark.parametrize("units", [NAT, UnitSystem(3.0, 0.2)], ids=["natural", "c3-eps0.2"])
@pytest.mark.parametrize("grid", [cube(16), Grid3((12, 16, 20), (5.0, 6.0, 7.0))],
                         ids=["16^3", "12x16x20"])
def test_spin_matches_the_real_space_integral(grid, units):
    # white-noise potentials fill every bin, Nyquist planes and k = 0 included
    rng = np.random.default_rng(29)
    pp, dpp = (PotentialPair(rng.normal(size=(4,) + grid.shape), rng.normal(size=(4,) + grid.shape))
               for _ in range(2))
    S = spin_observable(pp, dpp, grid, units)
    reference = real_space_spin(pp, dpp, grid, units)
    assert np.max(np.abs(S - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_spin_rejects_mismatched_grids():
    zero16 = PotentialPair(np.zeros((4, 16, 16, 16)), np.zeros((4, 16, 16, 16)))
    with pytest.raises(ValueError, match="does not match grid"):
        spin_observable(zero16, zero16, cube(8), NAT)

