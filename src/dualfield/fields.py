"""Periodic grids, smeared sources, spectral calculus and field construction.

All grid fields live on a uniform periodic box sampled at cell corners
``x_i = i * h``.  Derivatives are spectral (FFT), so smooth periodic data is
differentiated to near machine precision.

Spectral convention: every spectrum in the package is the real-input half
spectrum (``rfftn``, ``kz >= 0``) of the grid samples, unnormalized forward
and ``1/N`` inverse.  ``_to_spectrum`` and ``_to_grid`` are the only
transforms; both act on the last three axes and take any leading axes, so a
vector field of shape (3, nx, ny, nz) is transformed in one call.
Wavevectors come from ``_kgrid``, shape (3, nx, ny, nz // 2 + 1), with x and
y in ``np.fft.fftfreq`` order.  Spectra are Nyquist-free: the Nyquist mode
of an axis has no Hermitian partner, so on that axis's Nyquist plane
``_kgrid`` gives the axis's wavenumber component as zero (odd derivatives
along the axis vanish there), and source spectra are zero on the plane.
A grid sum of a product of two real fields is the Parseval sum
``sum w Re(conj(f) g) / N`` over the half spectrum, with ``w = 1`` on the
planes kz = 0 and kz = nz/2 and ``w = 2`` elsewhere, as ``_parseval_weights``
gives them.  ``_transverse_hat`` is the one transverse projector on half
spectra, ``_kdot`` the one k . v over the component axis and
``_inv_ksquared`` the one 1 / k^2 (0 where k is 0).

Sources are Gaussian-smeared point carriers.  Deposition synthesizes the
periodic image sum of the Gaussian directly from its analytic spectrum,
which makes the integrated charge exact and keeps deposition, spectral
solves and spectral source injection mutually consistent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dualcore import ChargePair, UnitSystem
from .errors import PreconditionError

_MAGIC = b"DFLD0001"


@dataclass(frozen=True)
class Grid3:
    """Uniform periodic grid: n cells per axis spanning a box of size L.

    Per axis, the smallest and largest wavenumbers 2 pi / L and pi n / L must
    have normal squares, and so must the sums of those squares over the axes,
    so no spectral formula of the package overflows or divides by zero.
    """

    n: tuple[int, int, int]
    L: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.n) != 3 or len(self.L) != 3:
            raise ValueError("Grid3 needs three cell counts and three box lengths")
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "L", tuple(float(v) for v in self.L))
        for v in self.n:
            if v < 4 or v % 2 != 0:
                raise ValueError(f"cell counts must be even and >= 4, got {self.n}")
        for v in self.L:
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"box lengths must be positive, got {self.L}")
        lo, hi = sys.float_info.min, sys.float_info.max
        for k in ([2.0 * math.pi / L for L in self.L],
                  [math.pi * n / L for n, L in zip(self.n, self.L)]):
            squares = [v * v for v in k]
            if not all(lo <= v <= hi for v in squares + [sum(squares)]):
                raise ValueError(f"box lengths {self.L} give wavenumbers {k} whose squares "
                                 "or square sums are not normal floats")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.n

    @property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(L / n for L, n in zip(self.L, self.n))

    @property
    def cell_volume(self) -> float:
        hx, hy, hz = self.spacing
        return hx * hy * hz

    @property
    def volume(self) -> float:
        return self.L[0] * self.L[1] * self.L[2]

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(h * np.arange(n) for h, n in zip(self.spacing, self.n))

    def kaxes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(
            2.0 * math.pi * np.fft.fftfreq(n, d=h) for n, h in zip(self.n, self.spacing)
        )


def _half_mesh(grid: Grid3, axes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Open mesh (``np.ix_``) of per-axis arrays in ``fftfreq`` order on the
    half spectrum: z cut to ``kz >= 0``, every Nyquist entry zero."""
    x, y, z = (a * (np.arange(n) != n // 2) for a, n in zip(axes, grid.n))
    return np.ix_(x, y, z[: grid.n[2] // 2 + 1])


@lru_cache(maxsize=16)
def _kgrid(grid: Grid3) -> np.ndarray:
    return np.stack(np.broadcast_arrays(*_half_mesh(grid, grid.kaxes())))


@lru_cache(maxsize=16)
def _ksquared(grid: Grid3) -> np.ndarray:
    return np.sum(_kgrid(grid) ** 2, axis=0)


@lru_cache(maxsize=16)
def _inv_ksquared(grid: Grid3) -> np.ndarray:
    """1 / k^2, and 0 wherever ``_kgrid`` is zero."""
    k2 = _ksquared(grid)
    return np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0.0)


def _parseval_weights(grid: Grid3) -> np.ndarray:
    """Parseval weights along kz of the half spectrum: 1 on the planes kz = 0
    and kz = nz/2, which have no mirror in it, and 2 elsewhere."""
    weights = np.full(grid.n[2] // 2 + 1, 2.0)
    weights[[0, -1]] = 1.0
    return weights


def _kdot(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """k . v over the component axis of half spectra (..., 3, nx, ny, nz') or a velocity."""
    if v.ndim == 1:
        v = v[:, None, None, None]
    return k[0] * v[..., 0, :, :, :] + k[1] * v[..., 1, :, :, :] + k[2] * v[..., 2, :, :, :]


def _to_spectrum(x: np.ndarray) -> np.ndarray:
    """Half spectrum over the last three axes (leading axes are batched)."""
    return np.fft.rfftn(x, axes=(-3, -2, -1))


def _to_grid(hat: np.ndarray) -> np.ndarray:
    """Real grid samples of a half spectrum over the last three axes (even nz)."""
    return np.fft.irfftn(hat, axes=(-3, -2, -1))


def _curl_hat(k: np.ndarray, hat: np.ndarray, out=None, scale: float = 1.0) -> np.ndarray:
    """Spectrum of the curl, i k x hat; given ``out``, ``scale`` times it is
    added to ``out`` in place instead, one component at a time."""
    terms = (k[a] * hat[b] - k[b] * hat[a] for a, b in ((1, 2), (2, 0), (0, 1)))
    if out is None:
        return 1j * np.stack(list(terms))
    for out_i, term in zip(out, terms):
        term *= 1j * scale
        out_i += term
    return out


@dataclass
class ScalarField:
    grid: Grid3
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.grid.shape:
            raise ValueError(
                f"scalar data shape {self.data.shape} does not match grid {self.grid.shape}"
            )

    def integral(self) -> float:
        return float(np.sum(self.data) * self.grid.cell_volume)

    def l2norm(self) -> float:
        return float(math.sqrt(np.sum(self.data**2) * self.grid.cell_volume))


@dataclass
class VectorField:
    grid: Grid3
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (3,) + self.grid.shape:
            raise ValueError(
                f"vector data shape {self.data.shape} does not match grid {self.grid.shape}"
            )

    def integral(self) -> np.ndarray:
        return np.sum(self.data, axis=(1, 2, 3)) * self.grid.cell_volume

    def l2norm(self) -> float:
        return float(math.sqrt(np.sum(self.data**2) * self.grid.cell_volume))


@dataclass(eq=False)
class PointSource:
    """Gaussian-smeared carrier with a two-charge pair and a drift velocity."""

    position: np.ndarray
    velocity: np.ndarray
    charges: ChargePair
    sigma: float

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=float).reshape(3)
        self.sigma = float(self.sigma)
        if not np.all(np.isfinite(self.position)) or not np.all(np.isfinite(self.velocity)):
            raise ValueError("source position and velocity must be finite")
        if not (self.sigma > 0 and sys.float_info.min <= self.sigma * self.sigma < math.inf):
            raise ValueError(f"sigma must be positive with a normal-float square, got {self.sigma}")

    def at_time(self, dt: float, box: tuple[float, float, float] | None = None) -> "PointSource":
        """Source moved ballistically by dt, optionally wrapped into the box."""
        pos = self.position + dt * self.velocity
        if box is not None:
            box = np.asarray(box)
            pos = np.mod(pos, box)
            pos[pos == box] = 0.0  # np.mod rounds a tiny negative up to L
        return replace(self, position=pos)


def _validate_source_geometry(source: PointSource, grid: Grid3) -> None:
    for axis in range(3):
        if not (0.0 <= source.position[axis] < grid.L[axis]):
            raise PreconditionError(
                f"source position {source.position} lies outside the box {grid.L} on axis {axis}"
            )
    h_max = max(grid.spacing)
    if source.sigma < 2.0 * h_max:
        raise PreconditionError(
            f"sigma={source.sigma} under-resolves the grid (needs >= {2.0 * h_max})"
        )
    if source.sigma > min(grid.L) / 8.0:
        raise PreconditionError(
            f"sigma={source.sigma} is too wide for the box (needs <= {min(grid.L) / 8.0})"
        )


def _gaussian_profile(source: PointSource, grid: Grid3) -> np.ndarray:
    """Half spectrum of one source's unit-charge Gaussian, divided by the cell volume."""
    half = 0.5 * source.sigma**2
    fx, fy, fz = _half_mesh(
        grid, [np.exp(-1j * k * x - half * k**2) for k, x in zip(grid.kaxes(), source.position)]
    )
    return (1.0 / grid.cell_volume) * fx * fy * fz


def check_shared_ratio(sources: list["PointSource"]) -> None:
    """Raise ``PreconditionError`` unless all charge pairs are parallel, to 1e-12.

    Zero charge pairs are compatible with any ratio.
    """
    qe = np.asarray([s.charges.qe for s in sources])
    qm = np.asarray([s.charges.qm for s in sources])
    i, j = np.triu_indices(len(sources), 1)
    cross = qe[i] * qm[j] - qe[j] * qm[i]
    scale = np.abs(qe[i] * qm[j]) + np.abs(qe[j] * qm[i])
    bad = np.flatnonzero((scale > 0.0) & (np.abs(cross) > 1e-12 * scale))
    if bad.size:
        p = bad[0]
        raise PreconditionError(f"sources {i[p]} and {j[p]} have different qm/qe ratios")


def current_spectra(
    sources: list[PointSource], grid: Grid3
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic spectra (j_e, j_m) of the moving sources, zero when none moves.

    Fourier-series coefficients divided by the cell volume on the Nyquist-free
    half spectrum, each (3, nx, ny, nz // 2 + 1), so ``_to_grid`` gives the
    real-space samples; geometry is not re-validated, so positions may sit
    outside the box (the spectra are periodic in them).
    """
    movers = [s for s in sources if np.any(s.velocity != 0.0)]
    j_e = np.zeros(_kgrid(grid).shape, dtype=complex)
    j_m = np.zeros(_kgrid(grid).shape, dtype=complex)
    for s in movers:
        profile = _gaussian_profile(s, grid)
        for axis in range(3):
            j_e[axis] += s.charges.qe * s.velocity[axis] * profile
            j_m[axis] += s.charges.qm * s.velocity[axis] * profile
    return j_e, j_m


def deposit_sources(
    sources: list[PointSource], grid: Grid3
) -> tuple[ScalarField, ScalarField, VectorField, VectorField]:
    """Deposit periodic Gaussian charge and current densities on the grid.

    The deposit is the periodic image sum of each Gaussian, synthesized from
    its analytic spectrum, so the integrated charge equals the source charge
    exactly and the current is charge times velocity per source.
    """
    rho_e = np.zeros(_kgrid(grid).shape[1:], dtype=complex)
    rho_m = np.zeros_like(rho_e)
    for s in sources:
        _validate_source_geometry(s, grid)
        profile = _gaussian_profile(s, grid)
        rho_e += s.charges.qe * profile
        rho_m += s.charges.qm * profile
    hats = (rho_e, rho_m, *current_spectra(sources, grid))
    rho_e, rho_m, j_e, j_m = (_to_grid(hat) for hat in hats)
    return (
        ScalarField(grid, rho_e),
        ScalarField(grid, rho_m),
        VectorField(grid, j_e),
        VectorField(grid, j_m),
    )


def _gradient_hat(hat: np.ndarray, grid: Grid3) -> np.ndarray:
    """Spectrum of the gradient, i k hat: (..., nx, ny, nz') in, (..., 3, nx, ny, nz') out."""
    return 1j * _kgrid(grid) * hat[..., None, :, :, :]


def spectral_gradient(data: np.ndarray, grid: Grid3) -> np.ndarray:
    """Gradient of real scalar grid arrays: (..., nx, ny, nz) in, (..., 3, nx, ny, nz) out."""
    return _to_grid(_gradient_hat(_to_spectrum(data), grid))


def spectral_divergence(data: np.ndarray, grid: Grid3) -> np.ndarray:
    """Divergence of a real vector grid array, shape (nx, ny, nz)."""
    return _to_grid(1j * _kdot(_kgrid(grid), _to_spectrum(data)))


def _transverse_hat(hat: np.ndarray, grid: Grid3) -> np.ndarray:
    """Transverse part of vector half spectra, shape (..., 3, nx, ny, nz // 2 + 1).

    The spatial mean (k = 0 component) is longitudinal and is dropped; the
    Nyquist corners, whose Nyquist-free wavevector is also zero, stay whole.
    """
    k = _kgrid(grid)
    proj = _kdot(k, hat) * _inv_ksquared(grid)
    trans = hat - k * proj[..., None, :, :, :]
    trans[..., 0, 0, 0] = 0.0
    return trans


def helmholtz_decompose(field: VectorField) -> tuple[VectorField, VectorField]:
    """Split a vector field into (transverse, longitudinal) parts by ``_transverse_hat``."""
    grid = field.grid
    hat = _to_spectrum(field.data)
    trans_hat = _transverse_hat(hat, grid)
    return VectorField(grid, _to_grid(trans_hat)), VectorField(grid, _to_grid(hat - trans_hat))


def coulomb_field_from_density(density: ScalarField, prefactor: float) -> VectorField:
    """Longitudinal field F with div F = prefactor * density.

    Solved spectrally; the k = 0 component of the density (mean charge) has
    no periodic solution and is dropped, which amounts to a uniform
    neutralizing background.
    """
    grid = density.grid
    phi = _to_spectrum(density.data) * _inv_ksquared(grid)
    return VectorField(grid, _to_grid(-1j * prefactor * _kgrid(grid) * phi))


def point_magnetic_field(qm: float, offset, units: UnitSystem) -> tuple[float, float, float]:
    """Radial field of a point magnetic charge at ``offset`` (three floats),
    as a float triple; div B = rho_m carries no eps0.

    Where the cube of the distance underflows, the division raises
    ``ZeroDivisionError`` (numpy would give an inf or nan field).
    """
    x, y, z = offset
    dist = math.sqrt(x * x + y * y + z * z)
    if dist == 0.0:
        raise ValueError("magnetic point field evaluated at the charge position")
    try:
        cube = dist**3
    except OverflowError:  # as a numpy float would: inf, so the field is zero
        cube = math.inf
    scale = 4.0 * math.pi * cube
    return (qm * x / scale, qm * y / scale, qm * z / scale)


def save_field(path, field: ScalarField | VectorField) -> None:
    """Write a grid field: 8-byte magic, int64 ncomp/n, float64 L, then data.

    Data is stored cell-major (row-major over nx, ny, nz with the component
    index fastest), 8-byte floats, matching the documented flat layout.
    """
    if isinstance(field, ScalarField):
        data = field.data[None]
    else:
        data = field.data
    ncomp = data.shape[0]
    grid = field.grid
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        np.asarray([ncomp, *grid.n], dtype=np.int64).tofile(fh)
        np.asarray(grid.L, dtype=np.float64).tofile(fh)
        np.ascontiguousarray(np.moveaxis(data, 0, -1)).tofile(fh)


def load_field(path) -> ScalarField | VectorField:
    """Read a grid field written by ``save_field``.

    A foreign or damaged file (short header, component count other than 1 or
    3, payload shorter or longer than the header implies) raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError(f"not a dualfield grid file: bad magic {magic!r}")
        header = fh.read(56)
        payload = fh.read()
    if len(header) != 56:
        raise ValueError(f"truncated grid file header: {len(header)} of 56 bytes")
    ncomp, nx, ny, nz = (int(v) for v in np.frombuffer(header, dtype="<i8", count=4))
    if ncomp not in (1, 3):
        raise ValueError(f"unsupported component count {ncomp}")
    grid = Grid3((nx, ny, nz), tuple(np.frombuffer(header, dtype="<f8", offset=32)))
    expected = 8 * ncomp * nx * ny * nz
    if len(payload) != expected:
        raise ValueError(
            f"grid file payload is {len(payload)} bytes, expected {expected} "
            f"for {ncomp} component(s) on {grid.n}"
        )
    data = np.frombuffer(payload, dtype="<f8").astype(float)
    data = np.moveaxis(data.reshape(nx, ny, nz, ncomp), -1, 0)
    if ncomp == 1:
        return ScalarField(grid, data[0])
    return VectorField(grid, data)
