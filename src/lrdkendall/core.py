"""Pairwise comparison with a relevant-difference threshold.

The central idea: two observations closer than a threshold ``d`` (the
"level of relevant difference", LRD) are treated as tied, even though
their numerical values differ. This module defines the comparison rule,
the trend score built from it, and the per-observation exceedance counts
that drive every downstream variance formula.

The package's only pairwise array code is one kernel over an (m, n)
matrix of series, :func:`pair_counts`. It walks the pairs a block of time
lags at a time, so it holds O(mn) memory, and returns the score, the scoring
pairs and the u/v exceedance counts together. Series longer than
:data:`MAX_SERIES_N` are refused. :func:`pair_score` is the scalar reference
it is tested against.

Conventions
-----------
All comparisons are exact IEEE comparisons on the pairwise difference,
with no epsilon slack: the threshold itself is the tolerance mechanism,
so adding another layer of fuzz would double-count uncertainty. The two
boundary modes differ in where a difference of exactly ``d`` lands:

* ``boundary="leq"`` (default): a pair is tied when ``|xi - xj| <= d``,
  so only differences strictly above ``d`` count.
* ``boundary="lt"``: tied only when ``|xi - xj| < d``; a difference of
  exactly ``d`` counts. Under this mode at ``d = 0``, a pair of exactly
  equal values scores 0 but is counted as an exceedance from both sides
  in the u/v counts of :func:`pair_counts`. See that function's note
  before relying on the counts of heavily duplicated data.

On decimal data the comparison is exact for the binary values, not for
the decimals they stand for, so rounding decides which pairs "exactly d"
apart count. 95.8 - 95.2 evaluates to 0.5999999999999943, below 0.6, so
on the series of the :func:`pair_counts` example "lt" and "leq" at
d = 0.6 both give S = 14. On three random walks of n = 2000 on a 0.1
grid, "lt" at d = 0.1 counted 0.2%, 7% and 19% of the pairs whose decimal
difference is exactly 0.1; the share depends on the values' magnitudes.
Data scaled to integers, such as tenths counted as whole numbers, with d
scaled alike, compare exactly.

A zero difference is a tie under every rule, including the
one-directional ones: the score carries a sign factor, and sign(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AnalyticUnavailable, InputError, InsufficientData, real

BOUNDARIES = ("leq", "lt")
DIRECTIONS = ("symmetric", "positive_only", "negative_only")

#: longest series a pairwise-kernel call accepts: it bounds one call to about
#: 0.25 s, and it keeps n below 2**15, which the int16 counters of pair_counts need
MAX_SERIES_N = 11_239


@dataclass(frozen=True)
class LrdRule:
    """A relevant-difference policy: threshold, boundary mode, direction mode.

    Args:
        d: Nonnegative threshold in the units of the observed values.
            Pairs with differences at or below it (per ``boundary``) are ties.
        boundary: "leq" ties pairs with ``|diff| <= d``; "lt" ties only
            ``|diff| < d``.
        direction: "symmetric" thresholds both upward and downward moves.
            "positive_only" requires an upward move to exceed ``d`` while
            any downward move scores -1; "negative_only" is the mirror.
            One-directional rules have no analytic variance and route to
            the permutation test.
    """

    d: float
    boundary: str = "leq"
    direction: str = "symmetric"

    def __post_init__(self) -> None:
        # + 0.0 stores a -0.0, such as 0 times a negative group mean, as 0.0
        object.__setattr__(self, "d", real(self.d, "threshold d") + 0.0)
        if self.d < 0:
            raise InputError(f"threshold d must be finite and >= 0, got {self.d!r}")
        if self.boundary not in BOUNDARIES:
            raise InputError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.direction not in DIRECTIONS:
            raise InputError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")


@dataclass(frozen=True)
class Series:
    """One region's time-ordered observations.

    Timestamps are order metadata only: the test uses time ranks, so
    unequal spacing is accepted and ignored. Duplicate timestamps are
    rejected because they make the ordering ambiguous.

    Args:
        times: Strictly increasing timestamps (any real or integer scale).
        values: Finite observed values, same length as ``times``.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1:
            raise InputError("times and values must be one-dimensional")
        if len(times) != len(values):
            raise InputError(
                f"length mismatch: {len(times)} times vs {len(values)} values"
            )
        if len(values) < 2:
            raise InsufficientData("a series needs at least 2 observations")
        if not np.all(np.isfinite(times)):
            raise InputError("times contain NaN or infinity")
        if not np.all(np.isfinite(values)):
            raise InputError("values contain NaN or infinity")
        if np.any(np.diff(times) <= 0):
            raise InputError("times must be strictly increasing (duplicates rejected)")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, values) -> "Series":
        """Build a series on the implicit time grid 0, 1, 2, ..."""
        values = np.asarray(values, dtype=float)
        return cls(times=np.arange(len(values), dtype=float), values=values)

    def __len__(self) -> int:
        return len(self.values)


def _exceeds(diff, d: float, boundary: str):
    """True where ``diff`` is a relevant exceedance (diff > d or >= d)."""
    if boundary == "leq":
        return diff > d
    return diff >= d


def pair_score(xi: float, xj: float, rule: LrdRule) -> int:
    """Score one time-ordered pair: +1, -1, or 0 (tie).

    ``xi`` is the earlier observation, ``xj`` the later one. A +1 means
    the later value relevantly exceeds the earlier one.

    Args:
        xi: Earlier value.
        xj: Later value.
        rule: Comparison policy.

    Returns:
        +1, -1, or 0.

    Examples:
        >>> pair_score(94.9, 95.8, LrdRule(d=0.6))
        1
        >>> pair_score(94.9, 95.2, LrdRule(d=0.6))
        0
    """
    if not (np.isfinite(xi) and np.isfinite(xj)):
        raise InputError("pair_score requires finite inputs")
    delta = xj - xi
    if delta == 0:
        return 0
    if rule.direction == "symmetric":
        hit = _exceeds(abs(delta), rule.d, rule.boundary)
        return int(np.sign(delta)) if hit else 0
    if rule.direction == "positive_only":
        if delta > 0:
            return 1 if _exceeds(delta, rule.d, rule.boundary) else 0
        return -1
    # negative_only: downward moves must exceed d, any upward move counts
    if delta < 0:
        return -1 if _exceeds(-delta, rule.d, rule.boundary) else 0
    return 1


def _check_length(n: int) -> None:
    if n > MAX_SERIES_N:
        raise InputError(f"a series of n = {n} is longer than the limit of {MAX_SERIES_N}")


def _symmetric_only(rule: LrdRule, what: str) -> None:
    """Refuse a one-directional rule where only the symmetric theory exists."""
    if rule.direction != "symmetric":
        raise AnalyticUnavailable(f"{what} is defined for the symmetric rule only; use "
                                  f"the permutation test for direction={rule.direction!r}")


def pair_counts(rows: np.ndarray, rule: LrdRule):
    """Score, scoring pairs and exceedance counts of each row of an (m, n) matrix.

    Each row is one series in time order. Over its n(n-1)/2 pairs i < j,
    ``up`` counts the pairs that :func:`pair_score` scores +1 and ``down``
    those it scores -1, so ``s = up - down`` and ``scoring = up + down``.
    Works under every direction; a zero difference never scores.

    ``u[k, i]`` counts the observations of row k that value i relevantly
    exceeds; ``v[k, i]`` counts those it relevantly falls below. Every
    relevantly different pair lands once in some u entry and once in
    some v entry, so the row totals match. The variance formulas built
    on these counts hold for the symmetric rule only; under the others
    u and v are computed but mean nothing.

    Note:
        Under boundary "lt" at ``d = 0``, a pair of exactly equal values
        satisfies "exceeds by at least 0" from both sides and therefore
        contributes to u and v twice (once per side), though it never
        scores. That inflates the totals relative to the exact-tie
        bookkeeping of the classical test, and it is intentional: it
        matches how published regional benchmark values were computed.
        The default "leq" boundary has no such quirk, and an observation
        is never compared with itself.

        Under every symmetric rule but that one, the plug-in variance
        (sum((u - v)^2) + sum(u)) / 3 is exactly the variance of s over
        all n! orderings of the row, whose mean is 0. Under "lt" at
        ``d = 0`` it exceeds that variance by sum_g w_g (w_g - 1) / 3,
        over the groups of equal values, of size w_g.

    Args:
        rows: Matrix of shape (m, n), one series per row, n at most
            :data:`MAX_SERIES_N` (InputError beyond it).
        rule: Comparison policy.

    Returns:
        (s, scoring, u, v): two integer arrays of length m, then two of
        shape (m, n).

    Examples:
        >>> dbp = [90.9, 95.2, 98.6, 95.8, 100.7, 94.9, 92.8, 101.5, 99.0, 98.7]
        >>> s, scoring, u, v = pair_counts(np.array([dbp]), LrdRule(d=0.6))
        >>> int(s[0]), int(scoring[0]), int(u[0].sum())
        (14, 40, 40)
    """
    _check_length(rows.shape[1])
    m, n = rows.shape
    # lags per step: about 2**15 differences, so a long series costs few numpy
    # calls per lag (8 lags at n = 4000) while a step stays cache-sized
    block = max(1, min(n - 1, 2**15 // max(1, n * m)))
    # the rows as columns, then NaN rows that no comparison counts
    pad = np.full((n + block, m), np.nan)
    pad[:n] = rows.T
    later = sliding_window_view(pad, block, axis=0)  # later[i, k, b] = pad[i + b, k]
    # rise/fall count the pairs where a value is the later one and went up/down,
    # sink/lift those where it is the earlier one, one row per lag of a block;
    # a cell gains at most 1 per block and MAX_SERIES_N keeps n below 2**15
    rise, fall, sink, lift = counts = np.zeros((4, block, n + block, m), dtype=np.int16)
    s0, s1, s2 = rise.strides
    equal = np.zeros(m, dtype=np.int64)
    # a one-directional rule counts every move in its unthresholded direction
    d_up = 0.0 if rule.direction == "negative_only" else rule.d
    d_down = 0.0 if rule.direction == "positive_only" else rule.d
    lt = rule.boundary == "lt"
    with np.errstate(over="ignore"):  # an infinite difference exceeds every d
        for lag in range(1, n, block):
            t = n - lag
            # delta[b, i] is pair (i, i + lag + b), later minus earlier
            delta = later[lag:n].transpose(2, 0, 1) - pad[:t]
            # under lt a thresholded move of exactly d counts; at d = 0 that
            # includes 0, so equal values exceed each other but never score
            up = delta >= d_up if lt and d_up == rule.d else delta > d_up
            down = delta <= -d_down if lt and d_down == rule.d else delta < -d_down
            if lt and rule.d == 0:
                equal += np.count_nonzero(up & down, axis=(0, 1))
            for counter, hits in ((rise, up), (fall, down)):  # [b, i] is counter[b, lag + i + b]
                at_later = np.ndarray((block, t, m), np.int16, counter, lag * s1, (s0 + s1, s1, s2))
                at_later += hits
            sink[:, :t] += up
            lift[:, :t] += down
    rise, fall, sink, lift = (c.sum(axis=0, dtype=np.int16)[:n] for c in counts)  # all below n
    n_up = rise.sum(axis=0, dtype=np.int64) - equal
    n_down = fall.sum(axis=0, dtype=np.int64) - equal
    u, v = np.add(rise, lift, dtype=np.int64), np.add(fall, sink, dtype=np.int64)
    return n_up - n_down, n_up + n_down, u.T, v.T


def s_extended(series: Series, rule: LrdRule) -> int:
    """Trend score: signed count of relevantly different time-ordered pairs.

    Sum of :func:`pair_score` over all n(n-1)/2 pairs. With ``d = 0`` and
    boundary "lt" this is exactly the classical signed concordance count.

    Args:
        series: Observations in time order.
        rule: Comparison policy.

    Returns:
        Integer in [-n(n-1)/2, n(n-1)/2].
    """
    return int(pair_counts(series.values[None, :], rule)[0][0])


def uv_counts(series: Series, rule: LrdRule) -> tuple[np.ndarray, np.ndarray]:
    """Per-observation exceedance counts (u, v) of one series: the m = 1
    case of :func:`pair_counts`, two integer arrays of length n.
    Symmetric rules only; others raise AnalyticUnavailable."""
    _symmetric_only(rule, "the analytic variance (u/v counts)")
    _, _, u, v = pair_counts(series.values[None, :], rule)
    return u[0], v[0]


def tie_proportion(series: Series, rule: LrdRule) -> float:
    """Fraction of pairs that are ties under the rule, in [0, 1].

    Computed as (number of zero-score pairs) / (n(n-1)/2). For the
    default boundary this equals (maxS - sum(u)) / maxS with
    maxS = n(n-1)/2; the count-based form is used directly because the
    u-based expression can leave [0, 1] in the boundary="lt", d=0,
    duplicated-values corner described in :func:`pair_counts`.

    Args:
        series: Observations in time order.
        rule: Comparison policy (symmetric only).

    Returns:
        0.0 when every pair is relevantly different, 1.0 when all tied.
    """
    _symmetric_only(rule, "tie_proportion")
    scoring = pair_counts(series.values[None, :], rule)[1]
    return float(tie_fraction(scoring[0], len(series)))


def tie_fraction(scoring, n: int):
    """Fraction of the n(n-1)/2 pairs that do not score: the ties under the rule."""
    pairs = n * (n - 1) // 2
    return (pairs - scoring) / pairs
