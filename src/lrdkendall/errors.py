"""Exception types shared across the package.

The CLI maps these onto exit codes: anything descending from
``InputError`` is a usage/data problem (exit 2), everything else under
``LrdKendallError`` is a statistical precondition failure (exit 3).
"""


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
