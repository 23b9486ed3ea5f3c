"""Exception types shared across the package, and its one rule for numeric arguments.

The CLI maps these onto exit codes: anything descending from
``InputError`` is a usage/data problem (exit 2), everything else under
``LrdKendallError`` is a statistical precondition failure (exit 3).
Each numeric parameter a caller chooses enters through :func:`real` or
:func:`integral`; its owner keeps the range check.
"""

import math

import numpy as np


class LrdKendallError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LrdKendallError, ValueError):
    """Invalid data or parameters: non-finite values, bad shapes, parse errors."""


class InsufficientData(InputError):
    """Fewer observations than the operation can work with."""


class NoUsableData(InputError):
    """A grouped dataset has no complete groups left after exclusions."""


class InvalidMoments(LrdKendallError):
    """A population moment set violates its defining constraints."""


class AnalyticUnavailable(LrdKendallError):
    """The normal-approximation path does not cover this configuration.

    Raised for one-directional difference rules, whose score sum has no
    derived variance. Callers should switch to the permutation test.
    """


class DegenerateRegime(LrdKendallError):
    """All comparisons are ties in distribution; the test statistic is degenerate."""


def real(value, name: str) -> float:
    """A finite int, float or numpy number as a float; a bool is not one."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise InputError(f"{name} must be a finite number, got {value!r}")


def integral(value, name: str) -> int:
    """An int, numpy integer or integral float (2.0) as an int; a bool is not one."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise InputError(f"{name} must be an integer, got {value!r}")
