"""Exception hierarchy shared across the package.

``ConfigError`` marks malformed user input (CLI exit code 1).
``PreconditionError`` and its subclasses mark structurally valid input that
violates a documented precondition of an operation (CLI exit code 2).
"""

from __future__ import annotations


class DualfieldError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteInputError(DualfieldError, ValueError):
    """An input array or scalar contains NaN or infinity."""


class ZeroChargeNormError(DualfieldError, ValueError):
    """The asymmetrizing angle of a zero charge pair is undefined."""


class DegeneratePlaneError(DualfieldError, ValueError):
    """A motion plane cannot be defined from (nearly) parallel vectors."""


class GridMismatchError(DualfieldError, ValueError):
    """Array shapes do not match the grid they are claimed to live on."""


class SingularFieldPointError(DualfieldError, ValueError):
    """A point field was evaluated at the location of its own source."""


class ConfigError(DualfieldError, ValueError):
    """A scenario configuration is malformed or incomplete."""


class PreconditionError(DualfieldError):
    """A documented precondition of an operation is violated."""


class CFLViolationError(PreconditionError):
    """The requested time step exceeds the advective stability bound."""


class SuperluminalSourceError(PreconditionError):
    """A source moves at or above the vacuum light speed."""


class SmearingError(PreconditionError):
    """A source smearing width is unresolvable or too wide for the box."""


class SourcePlacementError(PreconditionError):
    """A source position lies outside the periodic box."""


class SharedRatioError(PreconditionError):
    """Sources do not share a single magnetic-to-electric charge ratio."""


class CoincidentSourcesError(PreconditionError):
    """Two sources coincide, so their pair interaction diverges."""


class AliasingError(PreconditionError):
    """A mode does not fit on the synthesis grid without aliasing."""

