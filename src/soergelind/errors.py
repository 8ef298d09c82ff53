"""Exception types shared across the package.

The command line tool maps these onto exit codes: usage problems exit
with 2, verification mismatches with 1, broken internal invariants
with 3.
"""

__all__ = [
    'ConfigurationError',
    'IncompatibilityError',
    'CalibrationError',
    'InternalCheckError',
]


class ConfigurationError(ValueError):
    """An unsupported Cartan type, rank, or parameter combination."""


class IncompatibilityError(ValueError):
    """Operands belong to different groups, algebras, or gradings."""


class CalibrationError(RuntimeError):
    """No (or more than one) grading calibration survived the grid search."""


class InternalCheckError(AssertionError):
    """A structural invariant that should never fail did fail."""
