"""The two errors the command line tells apart.

``ConfigError`` marks malformed user input (CLI exit code 1).
``PreconditionError`` marks structurally valid input that violates a
documented precondition of an operation (CLI exit code 2).  Every other
invalid argument raises ``ValueError``, which the command line reports as
exit code 1 when a scenario's inputs cause it.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """A scenario configuration is malformed or incomplete."""


class PreconditionError(Exception):
    """A documented precondition of an operation is violated."""
