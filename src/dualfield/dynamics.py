"""Test-particle motion under the classical and quantum two-charge forces.

Both models are one force law, written once in its dual-invariant form

    F = qe E + c^2 eps0 qm B + v x (qe B_c - eps0 qm E_c)

that is, qe (E + v x B_c) + c eps0 qm (c B - v x E_c / c) regrouped.  The
classical model couples the full fields, (E_c, B_c) = (E, B); the quantum
model couples only their transverse parts (E_T, B_T).  Both combinations
are unchanged when the charges turn with ``rotate_charges`` and the fields
with ``inverse_rotate_fields``.

Samplers provide both the full and the transverse field sample at a point;
each is an analytic field that declares the split exactly.  The pusher is
nonrelativistic, so particle speeds are guarded at a tenth of c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dualcore import ChargePair, FieldVecPair, UnitSystem
from .errors import DegeneratePlaneError
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
    qe, qm, eps0 = charges.qe, charges.qm, units.eps0
    direct = qe * full.E + (units.c * units.c * eps0 * qm) * full.B
    return direct + np.cross(velocity, qe * coupled.B - (eps0 * qm) * coupled.E)


def classical_lorentz_force(
    velocity: np.ndarray, charges: ChargePair, fields: FieldVecPair, units: UnitSystem
) -> np.ndarray:
    """Classical force: the same law with the full fields in every term."""
    return quantum_lorentz_force(velocity, charges, fields, fields, units)


class UniformFieldSampler:
    """Spatially uniform fields, declared either fully transverse or not.

    A uniform field is a k = 0 mode, which the grid decomposition assigns to
    the longitudinal part; physical setups that realize a locally uniform
    transverse wave are modeled by declaring ``transverse=True``.
    """

    def __init__(self, E: np.ndarray, B: np.ndarray, *, transverse: bool = True) -> None:
        self._full = FieldVecPair(np.asarray(E, float).copy(), np.asarray(B, float).copy())
        if transverse:
            self._trans = FieldVecPair(self._full.E.copy(), self._full.B.copy())
        else:
            self._trans = FieldVecPair(np.zeros(3), np.zeros(3))

    def sample(self, x: np.ndarray, t: float) -> tuple[FieldVecPair, FieldVecPair]:
        return self._full, self._trans

    def in_domain(self, x: np.ndarray) -> bool:
        return True


class MonopoleSampler:
    """Static point magnetic charge: a radial B field.

    The radial field is a pure gradient, hence exactly longitudinal; the
    declared transverse parts vanish identically.  The singular point is
    excluded from the domain by ``r_min``.
    """

    def __init__(self, qm: float, center: np.ndarray, units: UnitSystem, r_min: float = 1e-6):
        self.qm = float(qm)
        self.center = np.asarray(center, dtype=float).reshape(3)
        self.units = units
        self.r_min = float(r_min)

    def sample(self, x: np.ndarray, t: float) -> tuple[FieldVecPair, FieldVecPair]:
        B = point_magnetic_field(self.qm, x - self.center, self.units)
        full = FieldVecPair(np.zeros(3), B)
        trans = FieldVecPair(np.zeros(3), np.zeros(3))
        return full, trans

    def in_domain(self, x: np.ndarray) -> bool:
        return float(np.linalg.norm(np.asarray(x, float) - self.center)) > self.r_min


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

    def to_csv(self, path, plane_normal: np.ndarray) -> None:
        """Write t,x,y,z,vx,vy,vz,Fx,Fy,Fz,out_of_plane_displacement rows."""
        out_of_plane, _ = out_of_plane_component(self, plane_normal)
        with open(path, "w") as fh:
            fh.write("t,x,y,z,vx,vy,vz,Fx,Fy,Fz,out_of_plane_displacement\n")
            for i in range(len(self.t)):
                row = [self.t[i], *self.x[i], *self.v[i], *self.force[i], out_of_plane[i]]
                fh.write(",".join(repr(float(value)) for value in row) + "\n")


_FORCE_MODELS = ("classical", "quantum")


def push_particle(
    particle: ParticleState,
    sampler,
    model: str,
    dt: float,
    steps: int,
    units: UnitSystem,
) -> Trajectory:
    """Integrate the particle with RK4 under the chosen force model.

    Truncates (with a recorded reason) if the time, position or momentum
    stops being finite, if the particle leaves the sampler domain, or if it
    exceeds the nonrelativistic speed guard of 0.1 c; the state that trips a
    check is not recorded.
    """
    if model not in _FORCE_MODELS:
        raise ValueError(f"unknown force model {model!r}; expected one of {_FORCE_MODELS}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")

    coupled = _FORCE_MODELS.index(model)  # sample() returns (full, transverse)

    def force(x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
        fields = sampler.sample(x, t)
        return quantum_lorentz_force(v, particle.charges, fields[0], fields[coupled], units)

    m = particle.mass
    guard = SPEED_GUARD_FRACTION * units.c
    times = [0.0]
    xs = [particle.position.copy()]
    vs = [particle.velocity.copy()]
    forces = [force(particle.position, particle.velocity, 0.0)]
    termination = None

    x = particle.position.copy()
    p = m * particle.velocity
    t = 0.0
    # an overflowing step ends the run as a non-finite state, not in a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            k1x, k1p = p / m, force(x, p / m, t)
            k2x = (p + 0.5 * dt * k1p) / m
            k2p = force(x + 0.5 * dt * k1x, k2x, t + 0.5 * dt)
            k3x = (p + 0.5 * dt * k2p) / m
            k3p = force(x + 0.5 * dt * k2x, k3x, t + 0.5 * dt)
            k4x = (p + dt * k3p) / m
            k4p = force(x + dt * k3x, k4x, t + dt)
            x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            t += dt
            v = p / m
            speed = float(np.linalg.norm(v))
            if not (math.isfinite(speed) and math.isfinite(t) and all(map(math.isfinite, x))):
                termination = "non-finite state"
                break
            if not sampler.in_domain(x):
                termination = "left sampler domain"
                break
            if speed > guard:
                termination = "exceeded nonrelativistic speed guard"
                break
            times.append(t)
            xs.append(x.copy())
            vs.append(v.copy())
            forces.append(force(x, v, t))

    return Trajectory(
        t=np.asarray(times),
        x=np.asarray(xs),
        v=np.asarray(vs),
        force=np.asarray(forces),
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
        raise DegeneratePlaneError("r and v do not span a plane")
    return n / norm


def _unit_normal(normal: np.ndarray) -> np.ndarray:
    n = np.asarray(normal, dtype=float).reshape(3)
    length = float(np.linalg.norm(n))
    if length == 0.0:
        raise DegeneratePlaneError("plane normal must be nonzero")
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
