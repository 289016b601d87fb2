"""Exception and warning types of the package, and the one integer rule."""

import numpy as np


class CcdScoreError(Exception):
    """Base class for all errors raised by this package."""


class DataIOError(CcdScoreError):
    """A data file could not be opened or read."""


class ParseError(CcdScoreError):
    """A cell in an input file could not be parsed.

    Carries the 1-based row and column of the offending cell.
    """

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        if row is not None:
            message = f"{message} (row {row}, column {col})"
        super().__init__(message)
        self.row = row
        self.col = col


class LabelError(CcdScoreError):
    """A label column is missing or holds a value outside the known vocabulary."""


class DegenerateDataError(CcdScoreError):
    """The data admits no meaningful answer (e.g. all points coincide)."""


class BadKError(CcdScoreError):
    """A neighbor count k is out of range for the data size."""


class ConfigError(CcdScoreError):
    """A configuration value is invalid or jointly infeasible."""


class DegenerateLabelsError(CcdScoreError):
    """Evaluation needs at least one positive and one negative label."""


class CcdScoreWarning(UserWarning):
    """A degenerate input the package handles, such as a zero-MADN column."""


def check_int(value, name: str, minimum: int) -> None:
    """Raise ConfigError unless value is an integer, not a bool, of at
    least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
