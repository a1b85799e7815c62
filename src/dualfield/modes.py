"""Plane-wave mode machinery for the two-potential formulation.

Mode conventions
----------------
Modes live on a lattice ``k = dk * n`` (integer ``n != 0``) inside a
spherical cutoff.  Each wavevector carries an orthonormal tetrad: the scalar
unit ``eps(k,0) = (1, 0)``, two transverse spatial vectors ``eps(k,1)``,
``eps(k,2)`` and the longitudinal ``eps(k,3) = khat``, with
``eps1 x eps2 = khat`` (right-handed, so ``(eps1 + i eps2)/sqrt(2)`` carries
positive helicity).

A lattice of spacing ``dk`` represents a periodic volume ``V = (2 pi)^3 /
(dkx dky dkz)`` and the per-mode normalization is ``N_k = sqrt(hbar /
(2 eps0 omega_k V))`` with ``omega_k = c |k|``.  In the one-field model both
potentials are built from one amplitude family ``a``: the A-potential with
weight ``cos(theta)`` and the C-potential with weight ``c sin(theta)``, so
the subsidiary condition ``C cos = c A sin`` holds identically.  The
two-field model uses independent families ``a`` (for A, weight 1) and ``b``
(for C, weight c).

Coulomb energy quadrature
-------------------------
The electrostatic energy is the k-integral of ``|rho(k)|^2 / (2 eps0 k^2)``.
On the mode lattice this package evaluates it as a cell quadrature with
weights ``w_n = integral of d^3k / k^2 over the cell centred on k_n``:
near the origin (including the k = 0 cell, whose weight is finite) the cell
integrals are computed by Gauss quadrature, far cells use the curvature-
corrected midpoint rule.  Plain midpoint weights ``dk^3 / k_n^2`` would
instead converge to the *periodic* (image-summed) interaction, which at the
documented cutoffs is biased by roughly 2.8 * r * dk / (2 pi) (about 13%),
far outside the required agreement with the open-space Coulomb law.

The cell weights, the spherical cutoff and the Gaussian smearing factor are
all even in each lattice coordinate on its own, so in the pair sum of
``w cos(k.r) exp(-k^2 s^2 / 2)`` every sine term cancels and the product
``cos(kx rx) cos(ky ry) cos(kz rz)`` remains.  The sum therefore folds onto
the octant ``n_a >= 0`` with multiplicity 2 per nonzero coordinate and
separates by axis: one small matrix product per x-slice instead of a cosine
at every lattice point.  A weight rule that broke this evenness would need
the full signed lattice again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .dualcore import (
    PotentialPair,
    UnitSystem,
    _angle,
    asymmetrizing_angle,
    rotate_charge_components,
)
from .errors import (
    AliasingError,
    CoincidentSourcesError,
    GridMismatchError,
    NotTransverseError,
)
from .fields import (
    Grid3,
    PointSource,
    VectorField,
    _to_grid,
    check_shared_ratio,
    longitudinal_fraction,
    spectral_gradient,
)

_NEAR = 6  # cells with |n|_inf <= _NEAR get exact Gauss-integrated weights


@dataclass(frozen=True, eq=False)
class ModeSet:
    """A set of wavevectors, either materialized or an implicit lattice.

    ``kvecs`` of shape (N, 3) lists explicit modes (k = 0 excluded); when it
    is None the set stands for the full cubic lattice of spacing ``dk``
    inside ``|k| <= kmax``, which energy sums iterate without materializing.
    """

    dk: tuple[float, float, float]
    kmax: float | None = None
    kvecs: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dk", tuple(float(v) for v in self.dk))
        for v in self.dk:
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"lattice spacing must be positive, got {self.dk}")
        if self.kvecs is not None:
            arr = np.asarray(self.kvecs, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(f"kvecs must have shape (N, 3), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError("kvecs must be finite")
            if np.any(np.linalg.norm(arr, axis=1) == 0.0):
                raise ValueError("the k = 0 mode carries no tetrad and is excluded")
            object.__setattr__(self, "kvecs", arr)
        elif self.kmax is None:
            raise ValueError("an implicit lattice needs a kmax cutoff")

    @classmethod
    def lattice(cls, dk: float, kmax: float) -> "ModeSet":
        """Implicit cubic lattice of spacing dk inside |k| <= kmax."""
        return cls(dk=(dk, dk, dk), kmax=float(kmax))

    @classmethod
    def from_kvecs(cls, kvecs: np.ndarray, dk) -> "ModeSet":
        dk = (dk, dk, dk) if np.isscalar(dk) else tuple(dk)
        return cls(dk=dk, kvecs=np.asarray(kvecs, dtype=float))

    @classmethod
    def from_grid(cls, grid: Grid3, kmax: float) -> "ModeSet":
        """All modes of the grid with 0 < |k| <= kmax that synthesize cleanly.

        Rows at the Nyquist frequency are excluded since they cannot carry a
        counter-propagating partner on the grid.
        """
        axes = [k[np.arange(n) != n // 2] for k, n in zip(grid.kaxes(), grid.n)]
        kx, ky, kz = np.meshgrid(*axes, indexing="ij")
        k_norm = np.sqrt(kx**2 + ky**2 + kz**2)
        keep = (k_norm > 0.0) & (k_norm <= kmax)
        dk = tuple(2.0 * math.pi / L for L in grid.L)
        kvecs = np.stack([kx[keep], ky[keep], kz[keep]], axis=1)
        return cls(dk=dk, kmax=float(kmax), kvecs=kvecs)

    @property
    def is_lattice(self) -> bool:
        return self.kvecs is None

    @property
    def n_modes(self) -> int:
        if self.kvecs is None:
            raise ValueError("implicit lattice; call materialize() first")
        return self.kvecs.shape[0]

    @property
    def mode_volume(self) -> float:
        return self.dk[0] * self.dk[1] * self.dk[2]

    @property
    def box_volume(self) -> float:
        """Periodic volume represented by the lattice: (2 pi)^3 / mode_volume."""
        return (2.0 * math.pi) ** 3 / self.mode_volume

    def materialize(self, max_modes: int = 2_000_000) -> "ModeSet":
        """Explicit version of an implicit lattice (small cutoffs only)."""
        if self.kvecs is not None:
            return self
        dk = self.dk[0]
        nmax = int(math.floor(self.kmax / dk))
        count_bound = (2 * nmax + 1) ** 3
        if count_bound > max_modes:
            raise ValueError(f"lattice would materialize up to {count_bound} modes")
        idx = np.arange(-nmax, nmax + 1)
        nx, ny, nz = np.meshgrid(idx, idx, idx, indexing="ij")
        k = dk * np.stack([nx.ravel(), ny.ravel(), nz.ravel()], axis=1).astype(float)
        norms = np.linalg.norm(k, axis=1)
        keep = (norms > 0.0) & (norms <= self.kmax)
        return ModeSet(dk=self.dk, kmax=self.kmax, kvecs=k[keep])

    def omega(self, units: UnitSystem) -> np.ndarray:
        return units.c * np.linalg.norm(self.kvecs, axis=1)

    @cached_property
    def khat(self) -> np.ndarray:
        norms = np.linalg.norm(self.kvecs, axis=1, keepdims=True)
        return self.kvecs / norms

    @cached_property
    def _transverse_pair(self) -> tuple[np.ndarray, np.ndarray]:
        khat = self.khat
        # seed each tetrad from the coordinate axis least aligned with khat
        seed_axis = np.argmin(np.abs(khat), axis=1)
        seed = np.zeros_like(khat)
        seed[np.arange(len(seed_axis)), seed_axis] = 1.0
        eps1 = seed - khat * np.sum(seed * khat, axis=1, keepdims=True)
        eps1 /= np.linalg.norm(eps1, axis=1, keepdims=True)
        eps2 = np.cross(khat, eps1)
        return eps1, eps2

    @property
    def eps1(self) -> np.ndarray:
        return self._transverse_pair[0]

    @property
    def eps2(self) -> np.ndarray:
        return self._transverse_pair[1]


def _source_pairs(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs ``i < j`` in row-major order and the distance of each pair.

    Raises ``CoincidentSourcesError`` naming the first pair at zero distance.
    """
    positions = np.asarray(positions, dtype=float)
    i, j = np.triu_indices(positions.shape[0], 1)
    # one 1-D norm per pair: the axis=1 reduction rounds differently
    r = np.asarray([float(np.linalg.norm(d)) for d in positions[i] - positions[j]], dtype=float)
    coincident = np.flatnonzero(r == 0.0)
    if coincident.size:
        p = coincident[0]
        raise CoincidentSourcesError(f"sources {i[p]} and {j[p]} coincide")
    return i, j, r


def recommended_smearing(positions: np.ndarray) -> float:
    """Smearing width resolving the closest pair: one fifth of its distance."""
    positions = np.asarray(positions, dtype=float)
    if positions.shape[0] < 2:
        raise ValueError("need at least two positions")
    _, _, r = _source_pairs(positions)
    return float(r.min()) / 5.0


def coulomb_mode_set(
    sources: list[PointSource], *, kmax_sigma: float = 6.0, dk_r: float = 0.3
) -> ModeSet:
    """Lattice at the documented cutoffs: kmax * sigma_min >= kmax_sigma and
    dk * r_max <= dk_r for the widest source pair."""
    if len(sources) < 2:
        raise ValueError("need at least two sources")
    _, _, r = _source_pairs(np.stack([s.position for s in sources]))
    r_max = float(r.max())
    sigma_min = min(s.sigma for s in sources)
    return ModeSet.lattice(dk=dk_r / r_max, kmax=kmax_sigma / sigma_min)


# --- cell-integrated 1/k^2 quadrature weights ---------------------------------


def _zero_cell_weight() -> float:
    """Dimensionless integral of 1/|u|^2 over the unit cube at the origin.

    Radially, int 1/u^2 d^3u = int R(direction) dOmega with R the distance
    to the cube boundary, which reduces to 3 * int du dv / (1 + u^2 + v^2)
    over one face.
    """
    x, w = np.polynomial.legendre.leggauss(48)
    U, V = np.meshgrid(x, x, indexing="ij")
    W = w[:, None] * w[None, :]
    return 3.0 * float(np.sum(W / (1.0 + U**2 + V**2)))


def _cell_weight_gauss(n: tuple[int, int, int], points: int) -> float:
    x, w = np.polynomial.legendre.leggauss(points)
    ax = [ni + 0.5 * x for ni in n]
    X, Y, Z = np.meshgrid(*ax, indexing="ij")
    W = (
        (0.5 * w)[:, None, None]
        * (0.5 * w)[None, :, None]
        * (0.5 * w)[None, None, :]
    )
    return float(np.sum(W / (X**2 + Y**2 + Z**2)))


@lru_cache(maxsize=1)
def _near_weight_table() -> np.ndarray:
    """Dimensionless exact cell weights of the octant 0 <= n_a <= _NEAR, indexed n.

    The weights are even in each axis, so the octant stands for all signs.
    """
    size = _NEAR + 1
    table = np.zeros((size, size, size))
    for ix in range(size):
        for iy in range(size):
            for iz in range(size):
                if (ix, iy, iz) == (0, 0, 0):
                    value = _zero_cell_weight()
                else:
                    points = 16 if max(ix, iy, iz) <= 2 else 8
                    value = _cell_weight_gauss((ix, iy, iz), points)
                table[ix, iy, iz] = value
    return table


def _pair_kernel(rvecs: np.ndarray, s2: np.ndarray, dk: float, kmax: float,
                 eps0: float) -> np.ndarray:
    """Open-space Coulomb kernel sum_cells w cos(k.r) exp(-k^2 s2 / 2) per pair,
    normalized so a pair contributes Q_i Q_j * kernel to the energy.

    Summed over the octant (see the module docstring) as
    sum_ix Fx[p, ix] * sum_{iy, iz} Fy[p, iy] W_ix[iy, iz] Fz[p, iz] with
    Fa[p, i] = mult_i cos(dk i r_a) exp(-(dk i)^2 s2 / 2), mult_i = 2 for
    i > 0 and 1 for i = 0, and W_ix the weights of the slice n_x = ix.
    """
    nmax = int(math.floor(kmax / dk))
    n = np.arange(nmax + 1)
    n2 = n * n
    # far weights by integer |n|^2; the origin's entry is replaced from the near table
    k2 = (dk * dk) * np.arange(3 * nmax * nmax + 1)
    inside = k2 <= kmax * kmax
    k2[0] = 1.0
    far = np.where(inside, (dk**3 / k2) * (1.0 + dk * dk / (12.0 * k2)), 0.0)
    edge = min(nmax, _NEAR) + 1
    near_n2 = n2[:edge, None, None] + n2[:edge, None] + n2[:edge]
    near = np.where(inside[near_n2], dk * _near_weight_table()[:edge, :edge, :edge], 0.0)
    n_perp2 = n2[:, None] + n2

    kn = dk * n
    F = (np.where(n > 0, 2.0, 1.0) * np.cos(rvecs.T[:, :, None] * kn)
         * np.exp(-0.5 * np.multiply.outer(s2, kn * kn)))
    totals = np.zeros(rvecs.shape[0])
    for ix in n:
        w = far[ix * ix + n_perp2]
        if ix < edge:
            w[:edge, :edge] = near[ix]
        totals += F[0][:, ix] * ((F[1] @ w) * F[2]).sum(axis=1)
    return totals / ((2.0 * math.pi) ** 3 * eps0)


def _lattice_kernels(
    sources: list[PointSource], ms: ModeSet, eps0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source pairs ``(i, j)`` and their lattice kernels; a pair's energy is
    ``Q_i Q_j * kernel`` for any charge vector ``Q``."""
    if not ms.is_lattice:
        raise ValueError("charge energy sums need an implicit lattice ModeSet")
    if not (ms.dk[0] == ms.dk[1] == ms.dk[2]):
        raise ValueError("charge energy sums need a cubic lattice")
    positions = np.stack([s.position for s in sources])
    i, j, _ = _source_pairs(positions)
    sigma2 = np.asarray([s.sigma**2 for s in sources])
    kernels = _pair_kernel(positions[i] - positions[j], sigma2[i] + sigma2[j],
                           ms.dk[0], ms.kmax, eps0)
    return i, j, kernels


def _coulomb_pair_sum(positions: np.ndarray, Q: np.ndarray, eps0: float) -> float:
    """Open-space Coulomb energy sum_{i<j} Q_i Q_j / (4 pi eps0 r_ij)."""
    i, j, r = _source_pairs(positions)
    total = 0.0
    # summed in pair order; np.sum would reassociate the terms
    for term in Q[i] * Q[j] / (4.0 * math.pi * eps0 * r):
        total += term
    return total


def _asym_charges(sources: list[PointSource], theta, units: UnitSystem) -> np.ndarray:
    qe = np.asarray([s.charges.qe for s in sources])
    qm = np.asarray([s.charges.qm for s in sources])
    return rotate_charge_components(qe, qm, theta, units)[0]


def coulomb_energy_real(sources: list[PointSource], units: UnitSystem) -> float:
    """Real-space pair Coulomb energy of shared-ratio sources.

    Each source enters with its signed invariant charge (the electric charge
    after rotating by the shared asymmetrizing angle), so a pure pair of
    magnetic charges has the same energy as the mirrored electric pair.
    """
    if len(sources) < 2:
        raise ValueError("need at least two sources")
    check_shared_ratio(sources)
    reference = next(
        (s for s in sources if (s.charges.qe, s.charges.qm) != (0.0, 0.0)), None
    )
    if reference is None:
        return 0.0
    Q = _asym_charges(sources, asymmetrizing_angle(reference.charges, units), units)
    return _coulomb_pair_sum(np.stack([s.position for s in sources]), Q, units.eps0)


def symmetric_charge_energy(
    sources: list[PointSource], theta, ms: ModeSet, units: UnitSystem
) -> float:
    """Mode-space pair energy of the combined density rho_e cos + c eps0 rho_m sin.

    Evaluates the pair (cross) part of the k-integral of
    |rho(k)|^2 / (2 eps0 k^2) with cell-integrated weights; source
    self-energies never enter.  The representation angle combines the two
    densities exactly as ``rotate_charge_components`` does, so at the shared
    asymmetrizing angle this reproduces ``coulomb_energy_real``.
    """
    if len(sources) < 2:
        raise ValueError("need at least two sources")
    Q = _asym_charges(sources, theta, units)
    i, j, kernels = _lattice_kernels(sources, ms, units.eps0)
    return float(np.sum(Q[i] * Q[j] * kernels))


def two_field_energy(
    sources: list[PointSource], ms: ModeSet, units: UnitSystem
) -> tuple[float, float, float]:
    """(ee, mm, em) pair energies in the two-field model.

    With independent potentials the electric and magnetic sectors decouple:
    ee is the Coulomb energy of the electric charges, mm that of the
    magnetic charges scaled by c eps0, and the cross term is structurally
    zero, which is returned exactly.
    """
    if len(sources) < 2:
        raise ValueError("need at least two sources")
    qe = np.asarray([s.charges.qe for s in sources])
    qm = np.asarray([s.charges.qm for s in sources]) * units.c * units.eps0
    i, j, kernels = _lattice_kernels(sources, ms, units.eps0)
    ee = float(np.sum(qe[i] * qe[j] * kernels))
    mm = float(np.sum(qm[i] * qm[j] * kernels))
    return ee, mm, 0.0


# --- Fourier source data and the subsidiary (Gupta-Bleuler style) condition ---


@dataclass
class ChargeFourier:
    """Fourier data of smeared sources on a materialized mode set.

    ``rho_e``/``rho_m`` follow the symmetric convention
    rho(k) = (2 pi)^(-3/2) sum_j q_j exp(-i k.x_j) exp(-k^2 sigma_j^2 / 2).
    ``xi_e``/``xi_m`` are the four-vector source strengths entering the
    subsidiary condition, built from the four-currents (c rho, j):

        xi_e^mu(k) = N_k / (hbar omega_k) * J_e^mu(k)
        xi_m^mu(k) = c eps0 N_k / (hbar omega_k) * J_m^mu(k)

    with J^mu(k) the plain Fourier integral (no (2 pi) factors) and N_k the
    per-mode normalization of the represented box volume.
    """

    modes: ModeSet
    rho_e: np.ndarray
    rho_m: np.ndarray
    xi_e: np.ndarray
    xi_m: np.ndarray


def charge_fourier(
    sources: list[PointSource], ms: ModeSet, units: UnitSystem, hbar: float = 1.0
) -> ChargeFourier:
    """Fourier transforms and subsidiary source strengths of the sources."""
    if ms.is_lattice:
        raise ValueError("charge_fourier needs a materialized ModeSet")
    k = ms.kvecs
    n = ms.n_modes
    rho_e = np.zeros(n, dtype=complex)
    rho_m = np.zeros(n, dtype=complex)
    j_e = np.zeros((n, 3), dtype=complex)
    j_m = np.zeros((n, 3), dtype=complex)
    for s in sources:
        phase = np.exp(-1j * (k @ s.position) - 0.5 * np.sum(k**2, axis=1) * s.sigma**2)
        rho_e += s.charges.qe * phase
        rho_m += s.charges.qm * phase
        j_e += s.charges.qe * np.outer(phase, s.velocity)
        j_m += s.charges.qm * np.outer(phase, s.velocity)
    omega = ms.omega(units)
    N_k = np.sqrt(hbar / (2.0 * units.eps0 * omega * ms.box_volume))
    coeff = N_k / (hbar * omega)
    c = units.c
    xi_e = np.concatenate([(c * rho_e)[:, None], j_e], axis=1) * coeff[:, None]
    xi_m = (
        np.concatenate([(c * rho_m)[:, None], j_m], axis=1)
        * (c * units.eps0 * coeff)[:, None]
    )
    norm = (2.0 * math.pi) ** -1.5
    return ChargeFourier(
        modes=ms,
        rho_e=norm * rho_e,
        rho_m=norm * rho_m,
        xi_e=xi_e,
        xi_m=xi_m,
    )


@dataclass
class ModeAmplitudeSet:
    """Complex mode amplitudes: one family ``a`` of shape (N, 4), indexed by
    polarization (0 scalar, 1-2 transverse, 3 longitudinal); the optional
    family ``b`` switches the set to the two-field model."""

    modes: ModeSet
    a: np.ndarray
    b: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=complex)
        expected = (self.modes.n_modes, 4)
        if self.a.shape != expected:
            raise ValueError(f"amplitudes must have shape {expected}, got {self.a.shape}")
        if self.b is not None:
            self.b = np.asarray(self.b, dtype=complex)
            if self.b.shape != expected:
                raise ValueError(f"amplitudes must have shape {expected}, got {self.b.shape}")

    @classmethod
    def zeros(cls, ms: ModeSet, two_field: bool = False) -> "ModeAmplitudeSet":
        shape = (ms.n_modes, 4)
        return cls(ms, np.zeros(shape, complex), np.zeros(shape, complex) if two_field else None)

    def with_subsidiary_closure(self, cf: ChargeFourier, theta) -> "ModeAmplitudeSet":
        """Copy whose scalar amplitudes satisfy the subsidiary condition.

        One-field: a0 := a3 + xi_e0 cos(theta) + xi_m0 sin(theta).
        Two-field: a0 := a3 + xi_e0 and b0 := b3 + xi_m0 (theta unused).
        """
        _check_same_modes(self.modes, cf.modes)
        t = _angle(theta)
        a = self.a.copy()
        if self.b is None:
            a[:, 0] = a[:, 3] + cf.xi_e[:, 0] * math.cos(t) + cf.xi_m[:, 0] * math.sin(t)
            return ModeAmplitudeSet(self.modes, a)
        b = self.b.copy()
        a[:, 0] = a[:, 3] + cf.xi_e[:, 0]
        b[:, 0] = b[:, 3] + cf.xi_m[:, 0]
        return ModeAmplitudeSet(self.modes, a, b)


def _check_same_modes(a: ModeSet, b: ModeSet) -> None:
    if a is b:
        return
    if a.is_lattice or b.is_lattice or a.kvecs.shape != b.kvecs.shape or not np.array_equal(
        a.kvecs, b.kvecs
    ):
        raise ValueError("mode sets do not match")


def gupta_bleuler_residual(amp: ModeAmplitudeSet, cf: ChargeFourier, theta) -> float:
    """Largest violation of the sourced scalar-longitudinal constraint.

    One-field model: max_k |a3 - a0 + xi_e0 cos + xi_m0 sin|.  Two-field
    model: the maximum over both families, a against xi_e0 and b against
    xi_m0.
    """
    _check_same_modes(amp.modes, cf.modes)
    t = _angle(theta)
    if amp.b is None:
        residual = (
            amp.a[:, 3]
            - amp.a[:, 0]
            + cf.xi_e[:, 0] * math.cos(t)
            + cf.xi_m[:, 0] * math.sin(t)
        )
        return float(np.max(np.abs(residual))) if residual.size else 0.0
    res_a = amp.a[:, 3] - amp.a[:, 0] + cf.xi_e[:, 0]
    res_b = amp.b[:, 3] - amp.b[:, 0] + cf.xi_m[:, 0]
    if res_a.size == 0:
        return 0.0
    return float(max(np.max(np.abs(res_a)), np.max(np.abs(res_b))))


def free_evolve_modes(amp: ModeAmplitudeSet, t: float, units: UnitSystem) -> ModeAmplitudeSet:
    """Free evolution: every amplitude picks up exp(-i omega_k t)."""
    phase = np.exp(-1j * amp.modes.omega(units) * t)[:, None]
    b = None if amp.b is None else amp.b * phase
    return ModeAmplitudeSet(amp.modes, amp.a * phase, b)


# --- synthesis on grids and integral observables -------------------------------


def _polarization_four_vectors(ms: ModeSet) -> np.ndarray:
    """eps[m, lambda, mu] for the four tetrad vectors of each mode."""
    n = ms.n_modes
    eps = np.zeros((n, 4, 4))
    eps[:, 0, 0] = 1.0
    eps[:, 1, 1:] = ms.eps1
    eps[:, 2, 1:] = ms.eps2
    eps[:, 3, 1:] = ms.khat
    return eps


def _grid_bins(ms: ModeSet, grid: Grid3) -> np.ndarray:
    """Grid FFT bin of each mode (and of its conjugate via negation)."""
    bins = np.zeros((ms.n_modes, 3), dtype=int)
    for axis in range(3):
        base = 2.0 * math.pi / grid.L[axis]
        n_float = ms.kvecs[:, axis] / base
        n_int = np.rint(n_float).astype(int)
        if np.any(np.abs(n_float - n_int) > 1e-9):
            raise AliasingError(f"mode wavevectors do not sit on grid bins along axis {axis}")
        if np.any(np.abs(n_int) > grid.n[axis] // 2 - 1):
            raise AliasingError(f"mode wavevectors exceed the grid Nyquist range on axis {axis}")
        bins[:, axis] = n_int % grid.n[axis]
    return bins


def synthesize_potentials(
    amp: ModeAmplitudeSet,
    theta,
    grid: Grid3,
    units: UnitSystem,
    hbar: float = 1.0,
) -> tuple[PotentialPair, PotentialPair]:
    """Real-space potential pair and its time derivative at t = 0.

    One-field model: A^mu = cos(theta) X^mu and C^mu = c sin(theta) X^mu
    with X^mu = sum_k N_k [sum_lambda a eps^mu exp(ik.x) + c.c.]; the
    subsidiary condition then holds identically.  Two-field model: A from
    the ``a`` family (weight 1) and C from ``b`` (weight c).  The ModeSet
    box volume must match the synthesis grid.
    """
    ms = amp.modes
    if ms.is_lattice:
        raise ValueError("synthesis needs a materialized ModeSet")
    if not math.isclose(ms.box_volume, grid.volume, rel_tol=1e-9):
        raise GridMismatchError(
            f"mode lattice represents volume {ms.box_volume}, grid has {grid.volume}"
        )
    t = _angle(theta)
    bins = _grid_bins(ms, grid)
    eps = _polarization_four_vectors(ms)
    omega = ms.omega(units)
    N_k = np.sqrt(hbar / (2.0 * units.eps0 * omega * ms.box_volume))
    n_cells = grid.n[0] * grid.n[1] * grid.n[2]

    def spectra(amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        coeff = np.einsum("ml,mlu->mu", amplitudes, eps) * N_k[:, None]  # (N, 4)
        S = np.zeros((4,) + grid.shape, dtype=complex)
        S_dt = np.zeros((4,) + grid.shape, dtype=complex)
        pos = tuple(bins.T)
        neg = tuple((-bins % np.asarray(grid.n)[None, :]).T)
        for mu in range(4):
            np.add.at(S[mu], pos, n_cells * coeff[:, mu])
            np.add.at(S[mu], neg, n_cells * np.conj(coeff[:, mu]))
            np.add.at(S_dt[mu], pos, n_cells * (-1j * omega) * coeff[:, mu])
            np.add.at(S_dt[mu], neg, n_cells * np.conj((-1j * omega) * coeff[:, mu]))
        return _to_grid(S), _to_grid(S_dt)

    X, X_dt = spectra(amp.a)
    if amp.b is None:
        A, A_dt = math.cos(t) * X, math.cos(t) * X_dt
        C, C_dt = units.c * math.sin(t) * X, units.c * math.sin(t) * X_dt
    else:
        Y, Y_dt = spectra(amp.b)
        A, A_dt = X, X_dt
        C, C_dt = units.c * Y, units.c * Y_dt
    return PotentialPair(A, C), PotentialPair(A_dt, C_dt)


def _lorentz_contract(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^nu y_nu with the (+,-,-,-) metric, over the leading axis."""
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2] - x[3] * y[3]


def _abs_contract(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return sum(np.abs(x[nu] * y[nu]) for nu in range(4))


def noether_dual_charge(
    potentials: PotentialPair,
    dpotentials_dt: PotentialPair,
    grid: Grid3,
    units: UnitSystem,
) -> tuple[float, float]:
    """Conserved charge of the dual rotation and its magnitude scale.

    Returns (value, scale) with

        value = -eps0 * integral[ (d0 A^nu) C_nu - (d0 C^nu) A_nu ]

    and scale the same integral with every product replaced by its absolute
    value, suitable for forming a relative residual.  With the subsidiary
    condition satisfied the integrand cancels pointwise.
    """
    d0A = dpotentials_dt.A / units.c
    d0C = dpotentials_dt.C / units.c
    term1 = _lorentz_contract(d0A, potentials.C)
    term2 = _lorentz_contract(d0C, potentials.A)
    value = -units.eps0 * float(np.sum(term1 - term2)) * grid.cell_volume
    scale = units.eps0 * float(
        np.sum(_abs_contract(d0A, potentials.C) + _abs_contract(d0C, potentials.A))
    ) * grid.cell_volume
    return value, scale


def noether_dual_current(
    potentials: PotentialPair,
    dpotentials_dt: PotentialPair,
    grid: Grid3,
    units: UnitSystem,
) -> tuple[np.ndarray, np.ndarray]:
    """Noether current density f_mu of the dual rotation and its scale field.

    f_mu = -(1/(c mu0)) (d_mu A^nu) C_nu + c eps0 (d_mu C^nu) A_nu, shape
    (4, nx, ny, nz); the scale field carries absolute values of the same
    products.  Under the subsidiary condition f vanishes pointwise because
    c^2 eps0 = 1/mu0.
    """
    c = units.c
    coef1 = 1.0 / (c * units.mu0)
    coef2 = c * units.eps0
    f = np.zeros((4,) + grid.shape)
    scale = np.zeros((4,) + grid.shape)

    dA = [dpotentials_dt.A / c] + [None, None, None]
    dC = [dpotentials_dt.C / c] + [None, None, None]
    gradA = np.stack([spectral_gradient(potentials.A[nu], grid) for nu in range(4)])
    gradC = np.stack([spectral_gradient(potentials.C[nu], grid) for nu in range(4)])
    for axis in range(3):
        dA[1 + axis] = gradA[:, axis]
        dC[1 + axis] = gradC[:, axis]

    for mu in range(4):
        f[mu] = -coef1 * _lorentz_contract(dA[mu], potentials.C) + coef2 * _lorentz_contract(
            dC[mu], potentials.A
        )
        scale[mu] = coef1 * _abs_contract(dA[mu], potentials.C) + coef2 * _abs_contract(
            dC[mu], potentials.A
        )
    return f, scale


def spin_observable(
    E_perp: VectorField,
    B_perp: VectorField,
    A_perp: VectorField,
    C_perp: VectorField,
    units: UnitSystem,
) -> np.ndarray:
    """Field spin eps0 * integral(E_T x A_T + B_T x C_T); helicity is |S|.

    All four inputs must be transverse; a longitudinal fraction above 1e-10
    raises ``NotTransverseError`` (zero fields pass).
    """
    grid = E_perp.grid
    for name, field in (("E", E_perp), ("B", B_perp), ("A", A_perp), ("C", C_perp)):
        if field.grid != grid:
            raise GridMismatchError("spin inputs live on different grids")
        if longitudinal_fraction(field) > 1e-10:
            raise NotTransverseError(f"{name} has a longitudinal component")
    cross = np.cross(E_perp.data, A_perp.data, axis=0) + np.cross(
        B_perp.data, C_perp.data, axis=0
    )
    return units.eps0 * np.sum(cross, axis=(1, 2, 3)) * grid.cell_volume


def save_amplitudes(path, amp: ModeAmplitudeSet) -> None:
    """Write amplitudes as a text table, one row per (mode, polarization)."""
    two_field = amp.b is not None
    with open(path, "w") as fh:
        fh.write(f"# dk={amp.modes.dk[0]!r},{amp.modes.dk[1]!r},{amp.modes.dk[2]!r}")
        fh.write(f" kmax={amp.modes.kmax!r} two_field={int(two_field)}\n")
        fh.write("kx,ky,kz,lam,re_a,im_a" + (",re_b,im_b" if two_field else "") + "\n")
        for m in range(amp.modes.n_modes):
            for lam in range(4):
                row = [*amp.modes.kvecs[m], lam, amp.a[m, lam].real, amp.a[m, lam].imag]
                if two_field:
                    row += [amp.b[m, lam].real, amp.b[m, lam].imag]
                fh.write(",".join(repr(float(v)) if not isinstance(v, int) else str(v)
                                  for v in row) + "\n")


def load_amplitudes(path) -> ModeAmplitudeSet:
    """Read a table written by ``save_amplitudes``.

    Raises ``ValueError`` unless every mode has its four rows in ``lam``
    order 0-3, each with the columns the header's ``two_field`` flag names.
    """
    with open(path) as fh:
        meta = fh.readline().strip()
        if not meta.startswith("# dk="):
            raise ValueError("missing amplitude table metadata")
        parts = dict(item.split("=") for item in meta[2:].split())
        dk = tuple(float(v) for v in parts["dk"].split(","))
        kmax = None if parts["kmax"] == "None" else float(parts["kmax"])
        two_field = bool(int(parts["two_field"]))
        fh.readline()  # column header
        rows = [line.strip().split(",") for line in fh if line.strip()]
    n, partial = divmod(len(rows), 4)
    if partial:
        raise ValueError(f"{len(rows)} amplitude rows do not make whole modes of 4 rows")
    width = 8 if two_field else 6
    kvecs = np.zeros((n, 3))
    a = np.zeros((n, 4), dtype=complex)
    b = np.zeros((n, 4), dtype=complex) if two_field else None
    for i, row in enumerate(rows):
        m, lam = divmod(i, 4)
        if len(row) != width:
            raise ValueError(f"amplitude row {i} has {len(row)} columns, expected {width}")
        if int(row[3]) != lam:
            raise ValueError(f"amplitude row {i} has lam={row[3]}, expected {lam}")
        kvecs[m] = [float(v) for v in row[:3]]
        a[m, lam] = complex(float(row[4]), float(row[5]))
        if two_field:
            b[m, lam] = complex(float(row[6]), float(row[7]))
    ms = ModeSet(dk=dk, kmax=kmax, kvecs=kvecs)
    return ModeAmplitudeSet(ms, a, b)
