"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: configuration and data/format problems
exit 2, numeric invariant violations exit 3 (usage errors are handled by the
argument parser itself and exit 1).
"""

import math


class GraphKDError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(GraphKDError):
    """Operands have incompatible shapes."""


class NumericError(GraphKDError):
    """A numeric invariant was violated (non-finite values, broken symmetry...)."""


class DeterminismError(GraphKDError):
    """A function that must be deterministic returned different values."""


class FormatError(GraphKDError):
    """A file does not conform to its declared on-disk format."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DataError(GraphKDError):
    """Invalid input data: bad manifest lines, unknown ids, degenerate vectors."""


class ConfigError(GraphKDError):
    """Inconsistent or invalid run configuration."""


def check_finite(config, *names: str) -> None:
    """Raise ``ConfigError`` unless each field ``names`` of ``config`` is
    None or a finite number: NaN slips past checks such as ``value < 0``,
    and an infinity fails only mid-run."""
    for name in names:
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value}")
