"""Exception types shared across the package, and its one rule for numeric arguments.

The CLI maps these onto exit codes: anything descending from
``InputError`` is a usage/data problem (exit 2), everything else under
``LrdKendallError`` is a statistical precondition failure (exit 3).
Each numeric parameter a caller chooses enters through :func:`real` or
:func:`integral`, or through :func:`extended_real` where +/-inf is meaningful
and :func:`real_array` where an array is; its owner keeps the range check.
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


def _shown(value) -> str:
    """repr(value), or a short description where repr refuses: an int past
    the int-to-str digit limit, or a container holding one."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an int of {abs(value).bit_length()} bits"
        return f"a {type(value).__name__} too long to print"


def _as_float(value) -> float:
    """An int, float or numpy number as a float, else NaN; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        return math.inf if value > 0 else -math.inf


def real(value, name: str) -> float:
    """A finite int, float or numpy number as a float; a bool is not one."""
    x = _as_float(value)
    if not math.isfinite(x):
        raise InputError(f"{name} must be a finite number, got {_shown(value)}")
    return x


def extended_real(value, name: str) -> float:
    """As real, but +/-inf passes too; NaN does not."""
    x = _as_float(value)
    if math.isnan(x):
        raise InputError(f"{name} must be a finite or infinite number, got {_shown(value)}")
    return x


def real_array(value, name: str) -> np.ndarray:
    """A number or array of numbers as a float array; bools, strings and None are not.

    Finiteness and range are left to the caller.
    """
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise InputError(f"{name} must be a number or an array of numbers, got {_shown(value)}")
    return array.astype(float, copy=False)


def integral(value, name: str) -> int:
    """An int, numpy integer or integral float (2.0) as an int; a bool is not one.

    Its magnitude must fit in 64 bits, which keeps every closed form in n
    inside the float range.
    """
    if isinstance(value, (float, np.floating)) and float(value).is_integer() or (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    ):
        bits = abs(int(value)).bit_length()
        if bits > 64:
            raise InputError(f"{name} must be an integer of at most 64 bits, got {bits} bits")
        return int(value)
    raise InputError(f"{name} must be an integer, got {_shown(value)}")
