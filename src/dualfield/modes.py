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
(dkx dky dkz)`` and the per-mode normalization is ``N_k = sqrt(1 /
(2 eps0 omega_k V))`` with ``omega_k = c |k|`` (hbar = 1).  Both potentials
are built from one amplitude family ``a``: the A-potential with weight
``cos(theta)`` and the C-potential with weight ``c sin(theta)``, so the
subsidiary condition ``C cos = c A sin`` holds identically.  The two-field
model (independent A and C) appears only in ``two_field_energy`` and in the
noether-zero violating configuration, A of one synthesis with C = c A of another.
Charge pair energies contract ``q_i = (qe_i, c eps0 qm_i)`` with a 2x2 sector
matrix, ``u u^T`` for the one family and 1 for the two-field model, whose
electric-magnetic cross term is that contraction's off-diagonal block.

Synthesis and the mode observables
----------------------------------
``_synthesis_hat`` is the one synthesis: it scatters every mode and its
conjugate partner straight onto the half spectrum (kz >= 0) of ``X^mu`` and
``dX^mu/dt``, and ``_sector_potentials`` applies the weights ``(cos, c sin)``
to it on the grid or on the spectrum alike.  As with ``maxwell._evolve_spectra``
and ``step_symmetric_maxwell``, each observable is a spectral core with a
public grid function that adds the transforms:

- ``synthesize_potentials``: one inverse transform of the 8 components.
- ``spin_observable``: one forward transform of the spatial A, C, dA/dt and
  dC/dt, then ``_spin_hat``, which stays on the half spectrum (algebraic
  curls and transverse projection, and a Parseval sum in place of the grid
  integral), since the spin is diagonal in k.
- ``noether_dual_current``: ``spectral_gradient`` of A and of C (a forward
  and an inverse transform each), then ``_noether_current`` on the
  gradients.

The noether-zero and helicity-conservation scenarios call the cores on the
synthesis spectrum, so nothing returns to the spectrum once on the grid: a
noether-zero configuration makes two inverse transforms (the potentials,
and ``i k X`` for the gradients of both A and C) and no forward one, and a
helicity sample none.

Coulomb energy quadrature
-------------------------
The electrostatic energy is the k-integral of ``|rho(k)|^2 / (2 eps0 k^2)``.
On the mode lattice this package evaluates it as a cell quadrature with
weights ``w_n = integral of d^3k / k^2 over the cell centred on k_n``:
near the origin (including the k = 0 cell, whose weight is finite) the cell
integrals are computed by Gauss quadrature, far cells use the curvature-
corrected midpoint rule.  The near cells of the octant are one batched
tensor Gauss-Legendre sum per point count (16 points per axis next to the
origin, 8 further out); the k = 0 cell has its own radial face rule.  The
pair kernel is kept for the last pair geometry (the exact pair vectors and
smearing sums, dk, kmax and eps0), so a one-field and a two-field sum over
the same sources and lattice build it once.
Plain midpoint weights ``dk^3 / k_n^2`` would instead converge to the
*periodic* (image-summed) interaction, which at the documented cutoffs is
biased by roughly 2.8 * r * dk / (2 pi) (about 13%), far outside the
required agreement with the open-space Coulomb law.

The cell weights, the spherical cutoff and the Gaussian smearing factor are
all even in each lattice coordinate on its own, so in the pair sum of
``w cos(k.r) exp(-k^2 s^2 / 2)`` every sine term cancels and the product
``cos(kx rx) cos(ky ry) cos(kz rz)`` remains.  The sum therefore folds onto
the octant ``n_a >= 0`` with multiplicity 2 per nonzero coordinate and
separates by axis, with no cosine at any lattice point.  A far weight
depends only on the integer ``|n|^2``, so each pair's y-z factors are
binned once by shell ``n_y^2 + n_z^2`` (4,708 shells inside the cutoff at
nmax 133), each x-slice is one dot of those bins with the far weights, and
one contraction over the near block swaps in its exact weights: O(nmax^2 P)
for the bins and O(nmax S P) for the slices, with S the shell count.  A
weight rule that broke this evenness would need the full signed lattice
again.
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
from .errors import PreconditionError
from .fields import (
    Grid3,
    PointSource,
    _curl_hat,
    _kgrid,
    _parseval_weights,
    _to_grid,
    _to_spectrum,
    _transverse_hat,
    check_shared_ratio,
    spectral_gradient,
)

_NEAR = 6  # cells with |n|_inf <= _NEAR get exact Gauss-integrated weights


@dataclass(frozen=True, eq=False)
class ModeSet:
    """A set of wavevectors, either an explicit list or an implicit lattice.

    ``kvecs`` of shape (N, 3) lists explicit modes (k = 0 excluded); when it
    is None the set stands for the full cubic lattice of spacing ``dk``
    inside ``|k| <= kmax``; only the charge energy sums accept it, and they
    iterate it without listing its modes.
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
            raise ValueError("an implicit lattice has no mode list")
        return self.kvecs.shape[0]

    @property
    def mode_volume(self) -> float:
        return self.dk[0] * self.dk[1] * self.dk[2]

    @property
    def box_volume(self) -> float:
        """Periodic volume represented by the lattice: (2 pi)^3 / mode_volume."""
        return (2.0 * math.pi) ** 3 / self.mode_volume

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

    Raises ``PreconditionError`` naming the first pair at zero distance.
    """
    positions = np.asarray(positions, dtype=float)
    i, j = np.triu_indices(positions.shape[0], 1)
    diffs = positions[i] - positions[j]
    # one 1-D norm per pair: the axis=1 reduction rounds differently
    r = np.asarray([float(np.linalg.norm(d)) for d in diffs], dtype=float)
    # below the square root of the smallest normal float the norm's square underflows
    tiny = r < 1.5e-154
    r[tiny] = [math.hypot(*d) for d in diffs[tiny]]
    coincident = np.flatnonzero(r == 0.0)
    if coincident.size:
        p = coincident[0]
        raise PreconditionError(f"sources {i[p]} and {j[p]} coincide")
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


@lru_cache(maxsize=1)
def _near_weight_table() -> np.ndarray:
    """Dimensionless exact cell weights of the octant 0 <= n_a <= _NEAR, indexed n.

    The weights are even in each axis, so the octant stands for all signs.
    Every off-origin cell is one tensor Gauss-Legendre sum of 1/|u|^2 over
    its unit cube, all cells of a point count in one batch: 16 points per
    axis where max(n) <= 2, 8 elsewhere.
    """
    size = _NEAR + 1
    cells = np.indices((size,) * 3).reshape(3, -1)
    reach = cells.max(axis=0)
    table = np.empty(size**3)
    for points, rows in ((16, (reach > 0) & (reach <= 2)), (8, reach > 2)):
        x, w = np.polynomial.legendre.leggauss(points)
        X, Y, Z = (n[rows, None] + 0.5 * x for n in cells)
        r2 = X[:, :, None, None] ** 2 + Y[:, None, :, None] ** 2 + Z[:, None, None, :] ** 2
        weights = np.multiply.outer(np.outer(0.5 * w, 0.5 * w), 0.5 * w)
        table[rows] = np.sum(weights / r2, axis=(1, 2, 3))
    table[0] = _zero_cell_weight()
    return table.reshape((size,) * 3)


def _pair_kernel(rvecs: np.ndarray, s2: np.ndarray, dk: float, kmax: float,
                 eps0: float) -> np.ndarray:
    """Open-space Coulomb kernel sum_cells w cos(k.r) exp(-k^2 s2 / 2) per pair,
    normalized so a pair contributes Q_i Q_j * kernel to the energy.

    Summed over the octant (see the module docstring) with
    Fa[p, i] = mult_i cos(dk i r_a) exp(-(dk i)^2 s2 / 2), mult_i = 2 for
    i > 0 and 1 for i = 0.  A far weight depends only on |n|^2, so
    H[p, s] = sum of Fy[p, iy] Fz[p, iz] over the shell iy^2 + iz^2 = m_s
    (one bincount per pair), and the slice n_x = ix adds
    Fx[p, ix] * sum_s H[p, s] far[ix^2 + m_s] over the shells inside the
    cutoff.  One contraction over the near block then swaps its far weights
    for the exact ones.  Cost O(nmax^2 P) for the bins and O(nmax S P) for
    the slices, with S the shell count (4,708 at nmax 133).
    """
    nmax = int(math.floor(kmax / dk))
    n = np.arange(nmax + 1)
    n2 = n * n
    # far weights by integer |n|^2 up to top, the last inside the cutoff, then a
    # 0 for any |n|^2 past it; the origin's entry is replaced from the near table
    k2 = (dk * dk) * np.arange(3 * nmax * nmax + 1)
    top = int(np.count_nonzero(k2 <= kmax * kmax)) - 1
    k2 = k2[:top + 1]
    k2[0] = 1.0
    far = np.append((dk**3 / k2) * (1.0 + dk * dk / (12.0 * k2)), 0.0)
    edge = min(nmax, _NEAR) + 1
    near_n2 = np.minimum(n2[:edge, None, None] + n2[:edge, None] + n2[:edge], top + 1)
    near = np.where(near_n2 <= top, dk * _near_weight_table()[:edge, :edge, :edge], 0.0)

    kn = dk * n
    F = (np.where(n > 0, 2.0, 1.0) * np.cos(rvecs.T[:, :, None] * kn)
         * np.exp(-0.5 * np.multiply.outer(s2, kn * kn)))
    n_perp2 = (n2[:, None] + n2).ravel()
    kept = n_perp2 <= top
    bins = n_perp2[kept]
    m = np.flatnonzero(np.bincount(bins))  # the shells ny^2 + nz^2 <= top, ascending
    H = np.stack([np.bincount(bins, weights=np.outer(fy, fz).ravel()[kept])[m]
                  for fy, fz in zip(F[1], F[2])])
    totals = np.zeros(rvecs.shape[0])
    for ix, end in enumerate(np.searchsorted(m, top - n2, side="right")):
        totals += F[0][:, ix] * (H[:, :end] @ far[ix * ix + m[:end]])
    # the near block's exact weights in place of the far ones summed above
    totals += np.einsum("pi,pj,pk,ijk->p", *(Fa[:, :edge] for Fa in F), near - far[near_n2])
    return totals / ((2.0 * math.pi) ** 3 * eps0)


@lru_cache(maxsize=1)
def _lattice_kernel(rvecs: bytes, s2: bytes, dk: float, kmax: float, eps0: float) -> np.ndarray:
    """Read-only ``_pair_kernel`` of pair vectors and smearing sums given as
    float64 bytes, kept for the last pair geometry, so the one- and two-field
    sums over the same sources and lattice build it once."""
    kernels = _pair_kernel(np.frombuffer(rvecs).reshape(-1, 3), np.frombuffer(s2), dk, kmax, eps0)
    kernels.flags.writeable = False
    return kernels


def _sector_weights(theta) -> tuple[float, float]:
    """``(cos, sin)`` of the angle: the weights of A and C / c, and of qe and c eps0 qm."""
    t = _angle(theta)
    return math.cos(t), math.sin(t)


def _pair_energies(sources: list[PointSource], S: np.ndarray, ms: ModeSet, units: UnitSystem):
    """(ee, mm, em) blocks of sum_{i<j} q_i^T S q_j K_ij, with ``q_i = (qe_i, c eps0 qm_i)``,
    ``K`` the lattice kernel and ``S`` a 2x2 sector matrix in (A, C) amplitude space."""
    if len(sources) < 2:
        raise ValueError("need at least two sources")
    if not ms.is_lattice:
        raise ValueError("charge energy sums need an implicit lattice ModeSet")
    if not (ms.dk[0] == ms.dk[1] == ms.dk[2]):
        raise ValueError("charge energy sums need a cubic lattice")
    q = np.asarray([(s.charges.qe, s.charges.qm * units.c * units.eps0) for s in sources]).T
    positions = np.stack([s.position for s in sources])
    i, j, _ = _source_pairs(positions)
    sigma2 = np.asarray([s.sigma**2 for s in sources])
    kernels = _lattice_kernel((positions[i] - positions[j]).tobytes(),
                              (sigma2[i] + sigma2[j]).tobytes(), ms.dk[0], ms.kmax, units.eps0)
    blocks = np.sum(S[:, :, None] * q[:, None, i] * q[None, :, j] * kernels, axis=-1)
    return float(blocks[0, 0]), float(blocks[1, 1]), float(blocks[0, 1] + blocks[1, 0])


def _coulomb_pair_sum(positions: np.ndarray, Q: np.ndarray, eps0: float) -> float:
    """Open-space Coulomb energy sum_{i<j} Q_i Q_j / (4 pi eps0 r_ij)."""
    i, j, r = _source_pairs(positions)
    total = 0.0
    # summed in pair order; np.sum would reassociate the terms
    for term in Q[i] * Q[j] / (4.0 * math.pi * eps0 * r):
        total += term
    return total


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
    qe, qm = np.asarray([(s.charges.qe, s.charges.qm) for s in sources]).T
    Q = rotate_charge_components(qe, qm, asymmetrizing_angle(reference.charges, units), units)[0]
    return _coulomb_pair_sum(np.stack([s.position for s in sources]), Q, units.eps0)


def symmetric_charge_energy(
    sources: list[PointSource], theta, ms: ModeSet, units: UnitSystem
) -> float:
    """Mode-space pair energy of the combined density rho_e cos + c eps0 rho_m sin.

    Evaluates the pair (cross) part of the k-integral of
    |rho(k)|^2 / (2 eps0 k^2) with cell-integrated weights; source
    self-energies never enter.  The sector matrix is ``u u^T``, with ``u`` the
    weights ``synthesize_potentials`` puts on A and C, so at the shared
    asymmetrizing angle this reproduces ``coulomb_energy_real``.
    """
    u = np.asarray(_sector_weights(theta))
    return sum(_pair_energies(sources, np.outer(u, u), ms, units))


def two_field_energy(
    sources: list[PointSource], ms: ModeSet, units: UnitSystem
) -> tuple[float, float, float]:
    """(ee, mm, em) pair energies in the two-field model.

    Independent potentials give the sector matrix 1: ee is the Coulomb energy
    of the electric charges, mm that of the magnetic charges scaled by c eps0,
    and em the computed off-diagonal block.  The same contraction with the
    one-field matrix at theta = pi/4 gives the mixed pair (1, 0), (0, 1) an em
    of half the unit-pair energy, so a nonzero block would show.
    """
    return _pair_energies(sources, np.eye(2), ms, units)


# --- mode amplitudes and free evolution ----------------------------------------


@dataclass
class ModeAmplitudeSet:
    """Complex mode amplitudes ``a`` of shape (N, 4), indexed by polarization
    (0 scalar, 1-2 transverse, 3 longitudinal)."""

    modes: ModeSet
    a: np.ndarray

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=complex)
        expected = (self.modes.n_modes, 4)
        if self.a.shape != expected:
            raise ValueError(f"amplitudes must have shape {expected}, got {self.a.shape}")


def free_evolve_modes(amp: ModeAmplitudeSet, t: float, units: UnitSystem) -> ModeAmplitudeSet:
    """Free evolution: every amplitude picks up exp(-i omega_k t)."""
    phase = np.exp(-1j * amp.modes.omega(units) * t)[:, None]
    return ModeAmplitudeSet(amp.modes, amp.a * phase)


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
            raise PreconditionError(f"mode wavevectors do not sit on grid bins along axis {axis}")
        if np.any(np.abs(n_int) > grid.n[axis] // 2 - 1):
            raise PreconditionError(
                f"mode wavevectors exceed the grid Nyquist range on axis {axis}")
        bins[:, axis] = n_int % grid.n[axis]
    return bins


def _synthesis_hat(amp: ModeAmplitudeSet, grid: Grid3, units: UnitSystem) -> np.ndarray:
    """Half spectra of X^mu and dX^mu/dt, shape (8, nx, ny, nz // 2 + 1).

    X^mu = sum_k N_k [sum_lambda a eps^mu exp(ik.x) + c.c.] at t = 0, rows
    X^0..X^3 then dX^0/dt..dX^3/dt.  Every mode and its conjugate partner are
    scattered in one call each, keeping only the bins with kz >= 0; the
    ModeSet box volume must match the grid.
    """
    ms = amp.modes
    if ms.is_lattice:
        raise ValueError("synthesis needs an explicit ModeSet")
    if not math.isclose(ms.box_volume, grid.volume, rel_tol=1e-9):
        raise ValueError(f"mode lattice represents volume {ms.box_volume}, grid has {grid.volume}")
    bins = _grid_bins(ms, grid)
    partners = -bins % np.asarray(grid.n)
    omega = ms.omega(units)
    N_k = np.sqrt(1.0 / (2.0 * units.eps0 * omega * ms.box_volume))
    n_cells = grid.n[0] * grid.n[1] * grid.n[2]
    coeff = np.einsum("ml,mlu->mu", amp.a, _polarization_four_vectors(ms)) * N_k[:, None]
    rows = np.concatenate([coeff.T, (-1j * omega) * coeff.T])
    half = grid.n[2] // 2
    S = np.zeros((8,) + grid.shape[:2] + (half + 1,), dtype=complex)
    keep = bins[:, 2] <= half
    np.add.at(S, (slice(None), *bins[keep].T), n_cells * rows[:, keep])
    keep = partners[:, 2] <= half
    np.add.at(S, (slice(None), *partners[keep].T), n_cells * np.conj(rows[:, keep]))
    return S


def _sector_potentials(X: np.ndarray, theta, units: UnitSystem) -> tuple[np.ndarray, np.ndarray]:
    """The one family's potentials (A, C) = (cos(theta) X, c sin(theta) X), on
    grid samples or half spectra alike."""
    wa, wc = _sector_weights(theta)
    return wa * X, units.c * wc * X


def synthesize_potentials(
    amp: ModeAmplitudeSet,
    theta,
    grid: Grid3,
    units: UnitSystem,
) -> tuple[PotentialPair, PotentialPair]:
    """Real-space potential pair and its time derivative at t = 0.

    A^mu = cos(theta) X^mu and C^mu = c sin(theta) X^mu with X^mu the
    transform of ``_synthesis_hat``, so the subsidiary condition holds
    identically.  The ModeSet box volume must match the synthesis grid.
    """
    A, C = _sector_potentials(_to_grid(_synthesis_hat(amp, grid, units)), theta, units)
    return PotentialPair(A[:4], C[:4]), PotentialPair(A[4:], C[4:])


def _lorentz_contract(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^nu y_nu with the (+,-,-,-) metric, over the leading axis."""
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2] - x[3] * y[3]


def _abs_contract(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return sum(np.abs(x[nu] * y[nu]) for nu in range(4))


def _dual_density(
    dA: np.ndarray, dC: np.ndarray, potentials: PotentialPair, units: UnitSystem
) -> tuple[np.ndarray, np.ndarray]:
    """Component f_mu of ``noether_dual_current`` and its scale, for the one
    derivative direction of ``dA`` = d_mu A^nu and ``dC`` = d_mu C^nu."""
    coef1 = 1.0 / (units.c * units.mu0)
    coef2 = units.c * units.eps0
    f = (-coef1 * _lorentz_contract(dA, potentials.C)
         + coef2 * _lorentz_contract(dC, potentials.A))
    scale = coef1 * _abs_contract(dA, potentials.C) + coef2 * _abs_contract(dC, potentials.A)
    return f, scale


def noether_dual_charge(
    potentials: PotentialPair,
    dpotentials_dt: PotentialPair,
    grid: Grid3,
    units: UnitSystem,
) -> tuple[float, float]:
    """Conserved charge of the dual rotation and its magnitude scale.

    Returns (value, scale) with value the integral of f_0 / c, i.e.

        value = -eps0 * integral[ (d0 A^nu) C_nu - (d0 C^nu) A_nu ]

    and scale the integral of the density's scale field over c, suitable
    for forming a relative residual.  With the subsidiary condition
    satisfied the integrand cancels pointwise.
    """
    f0, scale0 = _dual_density(
        dpotentials_dt.A / units.c, dpotentials_dt.C / units.c, potentials, units
    )
    volume = grid.cell_volume / units.c
    return float(np.sum(f0)) * volume, float(np.sum(scale0)) * volume


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
    gradA = spectral_gradient(potentials.A, grid)  # (nu, axis, ...)
    gradC = spectral_gradient(potentials.C, grid)
    return _noether_current(gradA, gradC, potentials, dpotentials_dt, units)


def _noether_current(gradA: np.ndarray, gradC: np.ndarray, potentials: PotentialPair,
                     dpotentials_dt: PotentialPair, units: UnitSystem):
    """``noether_dual_current`` from the spatial gradients d_i A^nu and d_i C^nu,
    each of shape (4, 3, nx, ny, nz)."""
    c = units.c
    parts = [_dual_density(dpotentials_dt.A / c, dpotentials_dt.C / c, potentials, units)]
    parts += [_dual_density(gradA[:, axis], gradC[:, axis], potentials, units) for axis in range(3)]
    return np.stack([f for f, _ in parts]), np.stack([scale for _, scale in parts])


def spin_observable(
    potentials: PotentialPair,
    dpotentials_dt: PotentialPair,
    grid: Grid3,
    units: UnitSystem,
) -> np.ndarray:
    """Field spin eps0 * integral(E_T x A_T + B_T x C_T); helicity is |S|.

    One transform of the spatial A, C, dA/dt and dC/dt, then ``_spin_hat`` on
    their half spectra; nothing returns to the grid.
    """
    expected = (4,) + grid.shape
    for name, arr in (("potentials", potentials.A), ("dpotentials_dt", dpotentials_dt.A)):
        if arr.shape != expected:
            raise ValueError(f"{name} shape {arr.shape} does not match grid {expected}")
    return _spin_hat(*_to_spectrum(np.stack([potentials.A[1:], potentials.C[1:],
                                             dpotentials_dt.A[1:], dpotentials_dt.C[1:]])),
                     grid, units)


def _spin_hat(A: np.ndarray, C: np.ndarray, dA: np.ndarray, dC: np.ndarray, grid: Grid3,
              units: UnitSystem) -> np.ndarray:
    """``spin_observable`` from the half spectra of the spatial A, C, dA/dt and dC/dt.

    E = -(dA/dt + curl C) and B = curl A - (dC/dt) / c^2 up to gradients,
    which ``_transverse_hat`` drops with the longitudinal and gauge parts of A
    and C, so A0 and C0 never enter.  The integral is the half-spectrum
    Parseval sum of the ``fields`` spectral convention.
    """
    k = _kgrid(grid)
    E = -(dA + _curl_hat(k, C))
    B = _curl_hat(k, A) - dC / units.c**2
    E_T, B_T, A_T, C_T = _transverse_hat(np.stack([E, B, A, C]), grid)
    cross = np.cross(np.conj(E_T), A_T, axis=0) + np.cross(np.conj(B_T), C_T, axis=0)
    total = np.sum(_parseval_weights(grid) * cross.real, axis=(1, 2, 3))
    return units.eps0 * grid.cell_volume / math.prod(grid.n) * total
