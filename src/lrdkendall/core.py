"""Pairwise comparison with a relevant-difference threshold.

The central idea: two observations closer than a threshold ``d`` (the
"level of relevant difference", LRD) are treated as tied, even though
their numerical values differ. This module defines the comparison rule,
the trend score built from it, and the per-observation exceedance counts
that drive every downstream variance formula.

The package's only pairwise array code is two kernels over an (m, n)
matrix of series: :func:`pair_counts` (score and scoring pairs, any
direction) and :func:`exceedance_counts` (u/v, symmetric only).
:func:`pair_score` is the scalar reference they are tested against.

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
  in :func:`exceedance_counts`. See that function's note before relying
  on the counts of heavily duplicated data.

A zero difference is a tie under every rule, including the
one-directional ones: the score carries a sign factor, and sign(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalyticUnavailable, InputError, InsufficientData

BOUNDARIES = ("leq", "lt")
DIRECTIONS = ("symmetric", "positive_only", "negative_only")

#: bytes one pairwise-kernel call may allocate, reached near n = 11 000
#: for one series (n = 4000 needs 0.3 GB); beyond it the call raises
PAIR_BYTES_BUDGET = 2**31


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
        if not np.isfinite(self.d) or self.d < 0:
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
        label: Optional identifier; neither the tests nor the reports read it.
    """

    times: np.ndarray
    values: np.ndarray
    label: str | None = None

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
    def from_values(cls, values, label: str | None = None) -> "Series":
        """Build a series on the implicit time grid 0, 1, 2, ..."""
        values = np.asarray(values, dtype=float)
        return cls(times=np.arange(len(values), dtype=float), values=values, label=label)

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


def _check_budget(rows: np.ndarray) -> None:
    # (8 + 9m) n^2 bytes covers both kernels: pair_counts' index arrays, deltas
    # and masks, and exceedance_counts' n x n diff and mask; one series fails from n = 11 240
    m, n = rows.shape
    need = (8 + 9 * m) * n * n
    if need > PAIR_BYTES_BUDGET:
        raise InputError(
            f"{m} series of n = {n} needs about {need} "
            f"bytes of pairwise arrays, over the budget of {PAIR_BYTES_BUDGET}"
        )


def _symmetric_only(rule: LrdRule, what: str) -> None:
    """Refuse a one-directional rule where only the symmetric theory exists."""
    if rule.direction != "symmetric":
        raise AnalyticUnavailable(f"{what} is defined for the symmetric rule only; use "
                                  f"the permutation test for direction={rule.direction!r}")


def pair_counts(rows: np.ndarray, rule: LrdRule) -> tuple[np.ndarray, np.ndarray]:
    """Trend score and scoring-pair count of each row of an (m, n) matrix.

    Each row is one series in time order. Over its n(n-1)/2 pairs i < j,
    ``up`` counts the pairs that :func:`pair_score` scores +1 and ``down``
    those it scores -1, so ``s = up - down`` and ``scoring = up + down``.
    Works under every direction; a zero difference never scores.

    Args:
        rows: Matrix of shape (m, n), one series per row.
        rule: Comparison policy.

    Returns:
        Pair of integer arrays of length m: (s, scoring).

    Examples:
        >>> dbp = [90.9, 95.2, 98.6, 95.8, 100.7, 94.9, 92.8, 101.5, 99.0, 98.7]
        >>> s, scoring = pair_counts(np.array([dbp]), LrdRule(d=0.6))
        >>> int(s[0]), int(scoring[0])
        (14, 40)
    """
    _check_budget(rows)
    i, j = np.triu_indices(rows.shape[1], k=1)
    deltas = rows[:, j]
    deltas -= rows[:, i]  # later minus earlier; in place, the largest array here
    # a one-directional rule counts every move in its unthresholded direction
    d_up = 0.0 if rule.direction == "negative_only" else rule.d
    d_down = 0.0 if rule.direction == "positive_only" else rule.d
    # a zero difference never scores, so "lt" at d = 0 compares like "leq"
    lt = rule.boundary == "lt"
    up = deltas >= d_up if lt and d_up > 0 else deltas > d_up
    down = deltas <= -d_down if lt and d_down > 0 else deltas < -d_down
    n_up = np.count_nonzero(up, axis=1)
    n_down = np.count_nonzero(down, axis=1)
    return n_up - n_down, n_up + n_down


def exceedance_counts(rows: np.ndarray, rule: LrdRule) -> tuple[np.ndarray, np.ndarray]:
    """Per-observation exceedance counts (u, v) of each row of an (m, n) matrix.

    ``u[k, i]`` counts the observations of row k that value i relevantly
    exceeds; ``v[k, i]`` counts those it relevantly falls below. Every
    relevantly different pair lands once in some u entry and once in
    some v entry, so the row totals match.

    Only defined for the symmetric rule: the variance formulas built on
    these counts have no one-directional counterpart, so those rules
    must use the permutation test instead.

    Note:
        Under boundary "lt" at ``d = 0``, a pair of exactly equal values
        satisfies "exceeds by at least 0" from both sides and therefore
        contributes to u and v twice (once per side). That inflates the
        totals relative to the exact-tie bookkeeping of the classical
        test, and it is intentional: it matches how published regional
        benchmark values were computed. The default "leq" boundary has
        no such quirk, and an observation is never compared with itself.

    Args:
        rows: Matrix of shape (m, n), one series per row.
        rule: Comparison policy (symmetric only).

    Returns:
        Pair of integer arrays of shape (m, n).
    """
    _symmetric_only(rule, "the analytic variance (u/v counts)")
    _check_budget(rows)
    diff = rows[:, :, None] - rows[:, None, :]
    hit = _exceeds(diff, rule.d, rule.boundary)
    diagonal = np.arange(rows.shape[1])
    hit[:, diagonal, diagonal] = False
    return hit.sum(axis=2, dtype=np.int64), hit.sum(axis=1, dtype=np.int64)


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
    s, _ = pair_counts(series.values[None, :], rule)
    return int(s[0])


def uv_counts(series: Series, rule: LrdRule) -> tuple[np.ndarray, np.ndarray]:
    """Per-observation exceedance counts (u, v) of one series: the m = 1
    case of :func:`exceedance_counts`, two integer arrays of length n."""
    u, v = exceedance_counts(series.values[None, :], rule)
    return u[0], v[0]


def tie_proportion(series: Series, rule: LrdRule) -> float:
    """Fraction of pairs that are ties under the rule, in [0, 1].

    Computed as (number of zero-score pairs) / (n(n-1)/2). For the
    default boundary this equals (maxS - sum(u)) / maxS with
    maxS = n(n-1)/2; the count-based form is used directly because the
    u-based expression can leave [0, 1] in the boundary="lt", d=0,
    duplicated-values corner described in :func:`exceedance_counts`.

    Args:
        series: Observations in time order.
        rule: Comparison policy (symmetric only).

    Returns:
        0.0 when every pair is relevantly different, 1.0 when all tied.
    """
    _symmetric_only(rule, "tie_proportion")
    _, scoring = pair_counts(series.values[None, :], rule)
    return float(tie_fraction(scoring[0], len(series)))


def tie_fraction(scoring, n: int):
    """Fraction of the n(n-1)/2 pairs that do not score: the ties under the rule."""
    pairs = n * (n - 1) // 2
    return (pairs - scoring) / pairs
