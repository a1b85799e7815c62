"""Test-particle motion under the classical and quantum two-charge forces.

Both models are one force law, written once in its dual-invariant form

    F = qe E + c^2 eps0 qm B + v x (qe B_c - eps0 qm E_c)

that is, qe (E + v x B_c) + c eps0 qm (c B - v x E_c / c) regrouped.  The
classical model couples the full fields, (E_c, B_c) = (E, B); the quantum
model couples only their transverse parts (E_T, B_T).  Both combinations
are unchanged when the charges turn with ``rotate_charges`` and the fields
with ``inverse_rotate_fields``.

The pusher works on Python floats: positions, momenta, fields and every RK4
stage are float triples, and the force law is one componentwise kernel with
numpy's order of operations per component (the cross product as
``a1 b2 - a2 b1, ...``), so a step makes no numpy call.  The trajectory
arrays are built once, at the end.  ``quantum_lorentz_force`` and
``classical_lorentz_force`` are array wrappers over the same kernel.

``Trajectory.to_npy`` writes a path as one binary ``.npy`` table of named
little-endian float64 fields, so every value is stored exactly and
``np.load(path)["x"]`` reads a column back.

A sampler (``MonopoleSampler``, or any object with its two methods) gives
both the full and the transverse field sample at a point: ``sample(x, t)``
takes a float triple and returns ``(E, B), (E_T, B_T)`` as float triples;
``in_domain(x)`` bounds where the field is defined.  Each is an analytic
field that declares the split exactly.
The pusher is nonrelativistic, so particle speeds are guarded at a tenth of
c; the guard and the sampler domains compare squared norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dualcore import ChargePair, FieldVecPair, UnitSystem
from .fields import point_magnetic_field

SPEED_GUARD_FRACTION = 0.1


@dataclass
class ParticleState:
    """Position, velocity, charge pair and mass of one test particle."""

    position: np.ndarray
    velocity: np.ndarray
    charges: ChargePair
    mass: float

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=float).reshape(3)
        self.mass = float(self.mass)
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive, got {self.mass}")


def _force_law(charges: ChargePair, units: UnitSystem):
    """The force ``F(v, (E, B), (E_c, B_c))`` of one particle on float triples.

    Per component, ``(qe E + (c c eps0 qm) B) + v x (qe B_c - (eps0 qm) E_c)``
    in the order numpy evaluates the same array expression.
    """
    qe = charges.qe
    direct = units.c * units.c * units.eps0 * charges.qm
    cross = units.eps0 * charges.qm

    def force(v, full, coupled):
        (E0, E1, E2), (B0, B1, B2) = full
        (e0, e1, e2), (b0, b1, b2) = coupled
        w0 = qe * b0 - cross * e0
        w1 = qe * b1 - cross * e1
        w2 = qe * b2 - cross * e2
        v0, v1, v2 = v
        return (qe * E0 + direct * B0 + (v1 * w2 - v2 * w1),
                qe * E1 + direct * B1 + (v2 * w0 - v0 * w2),
                qe * E2 + direct * B2 + (v0 * w1 - v1 * w0))

    return force


def _floats(vector) -> tuple[float, float, float]:
    return tuple(np.asarray(vector, dtype=float).reshape(3).tolist())


def quantum_lorentz_force(
    velocity: np.ndarray,
    charges: ChargePair,
    full: FieldVecPair,
    coupled: FieldVecPair,
    units: UnitSystem,
) -> np.ndarray:
    """Two-charge force; the velocity cross product sees ``coupled`` fields only.

    The quantum model passes transverse parts, on trust: transversality is nonlocal.
    """
    force = _force_law(charges, units)
    return np.array(force(_floats(velocity), (_floats(full.E), _floats(full.B)),
                          (_floats(coupled.E), _floats(coupled.B))))


def classical_lorentz_force(
    velocity: np.ndarray, charges: ChargePair, fields: FieldVecPair, units: UnitSystem
) -> np.ndarray:
    """Classical force: the same law with the full fields in every term."""
    return quantum_lorentz_force(velocity, charges, fields, fields, units)


class MonopoleSampler:
    """Static point magnetic charge: a radial B field.

    The radial field is a pure gradient, hence exactly longitudinal; the
    declared transverse parts vanish identically.  The singular point is
    excluded from the domain by ``r_min``.
    """

    def __init__(self, qm: float, center, units: UnitSystem, r_min: float = 1e-6):
        self.qm = float(qm)
        self.center = _floats(center)
        self.units = units
        self.r_min = float(r_min)

    def sample(self, x, t: float):
        c0, c1, c2 = self.center
        B = point_magnetic_field(self.qm, (x[0] - c0, x[1] - c1, x[2] - c2), self.units)
        zero = (0.0, 0.0, 0.0)
        return (zero, B), (zero, zero)

    def in_domain(self, x) -> bool:
        c0, c1, c2 = self.center
        d0, d1, d2 = x[0] - c0, x[1] - c1, x[2] - c2
        return d0 * d0 + d1 * d1 + d2 * d2 > self.r_min * self.r_min


# the .npy record of one trajectory node; out_of_plane_displacement is the
# signed distance from the initial orbit plane
_TABLE = np.dtype([(name, "<f8") for name in (
    "t", "x", "y", "z", "vx", "vy", "vz", "Fx", "Fy", "Fz", "out_of_plane_displacement")])


@dataclass
class Trajectory:
    """Recorded particle path: times, states and node forces.

    ``termination`` is None for a completed run, otherwise a short reason
    string; the arrays then cover the steps actually taken.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    force: np.ndarray
    termination: str | None = None

    def __len__(self) -> int:
        return len(self.t)

    def to_npy(self, path, out_of_plane: np.ndarray) -> None:
        """Write one ``.npy`` row per node, the ``_TABLE`` fields in order."""
        table = np.column_stack([self.t, self.x, self.v, self.force, out_of_plane])
        np.save(path, table.astype("<f8", copy=False).view(_TABLE).reshape(len(table)))


_FORCE_MODELS = ("classical", "quantum")


def _over(a, m: float):
    """a / m on a float triple."""
    return (a[0] / m, a[1] / m, a[2] / m)


def _axpy(a, s: float, b):
    """a + s b on float triples."""
    return (a[0] + s * b[0], a[1] + s * b[1], a[2] + s * b[2])


def _rk4(a, s: float, k1, k2, k3, k4):
    """a + s (k1 + 2 k2 + 2 k3 + k4) on float triples."""
    return (a[0] + s * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            a[1] + s * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            a[2] + s * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]))


def push_particle(
    particle: ParticleState,
    sampler,
    model: str,
    dt: float,
    steps: int,
    units: UnitSystem,
) -> Trajectory:
    """Integrate the particle with RK4 under the chosen force model.

    The particle must start inside the sampler domain.  Truncates (with a
    recorded reason) if the time, position or momentum stops being finite,
    if the particle leaves the sampler domain, or if it exceeds the
    nonrelativistic speed guard of 0.1 c; the state that trips a check is
    not recorded.
    """
    if model not in _FORCE_MODELS:
        raise ValueError(f"unknown force model {model!r}; expected one of {_FORCE_MODELS}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    x = _floats(particle.position)
    if not sampler.in_domain(x):
        raise ValueError(f"the particle starts at {x}, outside the sampler domain")

    coupled = _FORCE_MODELS.index(model)  # sample() returns (full, transverse)
    law = _force_law(particle.charges, units)
    sample = sampler.sample

    def force(x, v, t):
        try:
            fields = sample(x, t)
        except ZeroDivisionError:  # a field numpy would make inf or nan: the state turns nan
            return (math.nan, math.nan, math.nan)
        return law(v, fields[0], fields[coupled])

    m = particle.mass
    guard = SPEED_GUARD_FRACTION * units.c
    guard2 = guard * guard
    half, sixth = 0.5 * dt, dt / 6.0
    v = _floats(particle.velocity)
    times, xs, vs, forces = [0.0], [x], [v], [force(x, v, 0.0)]
    termination = None

    p = (m * v[0], m * v[1], m * v[2])
    k1x = _over(p, m)  # m v / m can round away from the recorded v
    k1p = force(x, k1x, 0.0)
    t = 0.0
    for _ in range(steps):
        k2x = _over(_axpy(p, half, k1p), m)
        k2p = force(_axpy(x, half, k1x), k2x, t + half)
        k3x = _over(_axpy(p, half, k2p), m)
        k3p = force(_axpy(x, half, k2x), k3x, t + half)
        k4x = _over(_axpy(p, dt, k3p), m)
        k4p = force(_axpy(x, dt, k3x), k4x, t + dt)
        x = _rk4(x, sixth, k1x, k2x, k3x, k4x)
        p = _rk4(p, sixth, k1p, k2p, k3p, k4p)
        t += dt
        v = _over(p, m)
        speed2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
        if not (math.isfinite(speed2) and math.isfinite(t) and all(map(math.isfinite, x))):
            termination = "non-finite state"
            break
        if not sampler.in_domain(x):
            termination = "left sampler domain"
            break
        if speed2 > guard2:
            termination = "exceeded nonrelativistic speed guard"
            break
        k1x, k1p = v, force(x, v, t)  # the next step's first stage
        times.append(t)
        xs.append(x)
        vs.append(v)
        forces.append(k1p)

    return Trajectory(
        t=np.array(times),
        x=np.array(xs),
        v=np.array(vs),
        force=np.array(forces),
        termination=termination,
    )


def plane_normal(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unit normal of the plane spanned by r and v; error if degenerate."""
    r = np.asarray(r, dtype=float).reshape(3)
    v = np.asarray(v, dtype=float).reshape(3)
    n = np.cross(r, v)
    scale = float(np.linalg.norm(r) * np.linalg.norm(v))
    norm = float(np.linalg.norm(n))
    if scale == 0.0 or norm <= 1e-12 * scale:
        raise ValueError("r and v do not span a plane")
    return n / norm


def _unit_normal(normal: np.ndarray) -> np.ndarray:
    n = np.asarray(normal, dtype=float).reshape(3)
    length = float(np.linalg.norm(n))
    if length == 0.0:
        raise ValueError("plane normal must be nonzero")
    return n / length


def out_of_plane_component(
    trajectory: Trajectory, normal: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Displacement (from the initial point) and force along the plane normal."""
    n = _unit_normal(normal)
    displacement = (trajectory.x - trajectory.x[0]) @ n
    force = trajectory.force @ n
    return displacement, force


def in_plane_span(trajectory: Trajectory, normal: np.ndarray) -> float:
    """Largest in-plane displacement from the initial point along the path,
    inf when its square overflows."""
    n = _unit_normal(normal)
    rel = trajectory.x - trajectory.x[0]
    in_plane = rel - np.outer(rel @ n, n)
    with np.errstate(over="ignore"):  # inf for a path too long to measure
        return float(np.max(np.linalg.norm(in_plane, axis=1)))
