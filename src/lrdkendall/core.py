"""Pairwise comparison with a relevant-difference threshold.

The central idea: two observations closer than a threshold ``d`` (the
"level of relevant difference", LRD) are treated as tied, even though
their numerical values differ. This module defines the comparison rule,
the trend score built from it, and the per-observation exceedance counts
that drive every downstream variance formula.

The package's pairwise array code is :func:`pair_counts`, which returns the
score, the scoring pairs and the u/v exceedance counts of each row of an
(m, n) matrix of finite series, in O(mn) memory, by one of two routes:

* The lag kernel walks the n(n-1)/2 pairs a block of time lags at a time.
  It serves the simulation chunks, whose many short rows share each numpy
  call, which no per-row sort can match, and every other batched call
  (m > 1), as well as single series shorter than a measured crossover.
  :func:`_lag_block` sizes its blocks so that every call takes fewer than
  256 steps, and its per-position counters are bytes.
* The sort route takes one longer series under every rule, such as the
  ``run_test`` of a long record. It counts u and v by the ranks of its
  distinct values, and the score and scoring pairs by :func:`_rank_scores`
  of those ranks as one row.

Both give the same score and scoring pairs. They give the same u and v
under a symmetric rule, the only rule those counts are defined for. Series
longer than :data:`MAX_SERIES_N` are refused. :func:`pair_score` is the
scalar reference they are tested against.

The module also owns :func:`_rank_bounds`, the pair rule restated over the
ranks of a series' distinct values, by one threshold search: for each rank,
the bounds below which the ranks it scores +1 and -1 against lie. The sort
route takes its bounds from it, and so do the permutation nulls, which
permute one fixed set of values, so the bounds never change between draws.
The sort route and every null, sampled, regional or exhaustive, score rows
of ranks by :func:`_rank_scores`, which alone chooses from the row length,
however many rows, between merging time blocks (Knight 1966) and comparing
bytes in a lag loop.
For a table of bounds that no rank reaches its own, the pairs whose earlier
rank is below the later value's bound, plus those whose later rank is below
the earlier value's, make a total that the values fix, in O(n). Every rule's
-1 pairs are the second kind for one table, so either route counts only the
first kind, under one table or, for a one-directional rule at d > 0, two,
and reads the -1 pairs as that table's total less its count. At n = 4000
``run_test`` under a symmetric rule takes about 1.6 ms, and ``s_extended``
under a one-directional rule about 2.1 ms (shared 2-core Xeon, Python 3.11,
numpy 2.4).

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

from .errors import AnalyticUnavailable, InputError, InsufficientData, real

BOUNDARIES = ("leq", "lt")
DIRECTIONS = ("symmetric", "positive_only", "negative_only")

#: longest series a pairwise-kernel call accepts. It keeps n below 2**15, which the
#: lag kernel's int16 sums over the block axis need, and _merged_pairs' keys
#: block * (n + 1) + rank below 2**31. pair_counts of a single series at the cap
#: takes about 3.5 ms under a symmetric rule, which merges one table of bounds.
MAX_SERIES_N = 11_239

#: a single series at least this long takes the sort route of pair_counts: by the
#: tables of scripts/route_crossovers.py, fresh heap and warm, the first n at which
#: it beats the lag kernel under leq at 0.6, positive_only at 0.6 and lt at 0
_SORT_MIN_N = 144

#: rows of ranks at least this long are merged by _rank_scores, one row or many. By
#: those tables a full permutation chunk merges faster from n = 1400-1500 (symmetric)
#: or 1250 (positive_only), a lone row from 1200-1250 or below 1000; here neither side
#: takes over 1.12 times the faster route's time for a chunk, or 1.3 for a lone row
_MERGE_MIN_N = 1300


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
        # neighbours are compared, not subtracted: a difference could overflow
        out_of_order = np.flatnonzero(times[1:] <= times[:-1])
        if out_of_order.size:
            i = out_of_order[0]
            raise InputError(
                "times must be strictly increasing (duplicates rejected), got "
                f"{float(times[i])!r} then {float(times[i + 1])!r}"
            )
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


def _lag_block(n: int, m: int) -> int:
    """Lags per step of a lag loop over m rows of n values.

    About 2**15 compares per step, so a long series costs few numpy calls
    per lag (8 lags at n = 4000) while a step stays cache-sized, but always
    enough lags for fewer than 256 steps: a per-position counter gains at
    most 1 per step, so a byte cannot wrap. At least 1, for n <= 1 or m = 0.
    """
    return max(1, -(-(n - 1) // 255), min(n - 1, 2**15 // max(1, n * m)))


def pair_counts(rows: np.ndarray, rule: LrdRule):
    """Score, scoring pairs and exceedance counts of each row of an (m, n) matrix.

    Each row is one series of finite values in time order. Over its
    n(n-1)/2 pairs i < j, ``up`` counts the pairs that :func:`pair_score`
    scores +1 and ``down`` those it scores -1, so ``s = up - down`` and
    ``scoring = up + down``. Works under every direction; a zero difference
    never scores. One series (m = 1) of at least ``_SORT_MIN_N`` values is
    counted by its ranks (:func:`_series_counts`), in O(n log^2 n) time once
    it is long enough to be merged; every other call takes the lag kernel.

    ``u[k, i]`` counts the observations of row k that value i relevantly
    exceeds; ``v[k, i]`` counts those it relevantly falls below. Every
    relevantly different pair lands once in some u entry and once in
    some v entry, so the row totals match. Both routes give the same u and
    v under a symmetric rule, the only rule they and the variance formulas
    built on them are defined for. Under a one-directional rule they mean
    nothing: the sort route counts them without time order, the lag kernel
    with it, so the two differ. They are returned there all the same, as the
    batched kernel has one return shape for every rule, and the callers that
    would read them, ``inference.score_rows``, :func:`uv_counts` and
    :func:`tie_proportion`, refuse such rules.

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
        rows: Matrix of shape (m, n) of finite values, one series per row,
            n at most :data:`MAX_SERIES_N`; InputError otherwise.
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
    if not np.isfinite(rows).all():
        raise InputError("pair_counts requires finite values")
    m, n = rows.shape
    if m == 1 and n >= _SORT_MIN_N:
        return _series_counts(rows[0].astype(float, copy=False), rule)
    block = _lag_block(n, m)
    # the rows as columns, then NaN rows that no comparison counts
    pad = np.full((n + block, m), np.nan)
    pad[:n] = rows.T
    p0, p1 = pad.strides
    # rise/fall count the pairs where a value is the later one and went up/down,
    # sink/lift those where it is the earlier one, one row per lag of a block
    rise, fall, sink, lift = counts = np.zeros((4, block, n + block, m), dtype=np.uint8)
    s0, s1, s2 = rise.strides
    # a one-directional rule counts every move in its unthresholded direction
    d_up = 0.0 if rule.direction == "negative_only" else rule.d
    d_down = 0.0 if rule.direction == "positive_only" else rule.d
    lt = rule.boundary == "lt"
    with np.errstate(over="ignore"):  # an infinite difference exceeds every d
        for lag in range(1, n, block):
            t = n - lag
            # later[b, i] is pad[lag + b + i], so delta[b, i] is pair (i, i + lag + b),
            # later minus earlier
            later = np.ndarray((block, t, m), pad.dtype, pad, lag * p0, (p0, p0, p1))
            delta = later - pad[:t]
            # under lt a thresholded move of exactly d counts; at d = 0 that
            # includes 0, so equal values exceed each other but never score
            up = delta >= d_up if lt and d_up == rule.d else delta > d_up
            down = delta <= -d_down if lt and d_down == rule.d else delta < -d_down
            up, down = up.view(np.uint8), down.view(np.uint8)  # byte counters add these uncast
            for counter, hits in ((rise, up), (fall, down)):  # [b, i] is counter[b, lag + i + b]
                at_later = np.ndarray((block, t, m), np.uint8, counter, lag * s1, (s0 + s1, s1, s2))
                at_later += hits
            sink[:, :t] += up
            lift[:, :t] += down
    # each total is below n < 2**15; one lag per step needs no sum over the block axis
    rise, fall, sink, lift = (c[0, :n] if block == 1 else c.sum(axis=0, dtype=np.int16)[:n]
                              for c in counts)
    n_up, n_down = rise.sum(axis=0, dtype=np.int64), fall.sum(axis=0, dtype=np.int64)
    if lt and rule.d == 0:
        # a finite difference is >= 0 or <= 0, and an overflow is +/-inf, never NaN,
        # so every pair was counted once, and each pair of equal values twice
        equal = n_up + n_down - n * (n - 1) // 2
        n_up, n_down = n_up - equal, n_down - equal
    u, v = np.add(rise, lift, dtype=np.int64), np.add(fall, sink, dtype=np.int64)
    return n_up - n_down, n_up + n_down, u.T, v.T


def _prefix_end(guess, holds, top: int):
    """Per entry, the end of the prefix of 0 .. top - 1 on which ``holds`` is True.

    ``holds(k)`` tests each entry at index ``k`` and must be True on a prefix
    of the indices. ``guess`` comes from a searchsorted on a rounded bound,
    so it misses by the values within rounding of that bound, which on real
    data is none or one: 0.7 - 0.1 > 0.6 is False in floats. Each step
    moves every entry still off by one place.
    """
    k = guess
    while (step := (k < top) & holds(np.minimum(k, top - 1))).any():
        k = k + step
    while (step := (k > 0) & ~holds(np.maximum(k - 1, 0))).any():
        k = k - step
    return k


def _rank_bounds(x: np.ndarray, rule: LrdRule):
    """(rank, below, up, down, total): each observation's rank among the distinct
    values of ``x``, the number of observations below each rank, the bound tables
    of the pairs that score +1 and -1, and the total of the -1 table.

    By the lag kernel's own predicate, under every direction and boundary, a
    pair of an earlier rank k and a later rank r scores +1 when k < ``up[r]``,
    -1 when r < ``down[k]``, and 0 otherwise. The tables depend only on the
    values, so a permutation null finds them once and scores every draw by
    comparing ranks.

    One threshold search gives ``bound``: rank r relevantly exceeds the ranks
    below ``bound[r]``. A symmetric rule takes it for both tables. A
    one-directional rule scores every nonzero move in its other direction, so
    that side's table is the ranks. At d = 0 ``bound`` is the ranks, as a value
    never scores against its equals, so there every rule has one table, and
    ``up`` is ``down``.

    No rank is below its own bound, so ``total`` = sum_q below[down[rank_q]]
    counts each pair once for each order of its two values that scores -1,
    whatever the ordering of ``x``.
    """
    values, rank = np.unique(x, return_inverse=True)
    bound = ranks = np.arange(len(values))
    if rule.d > 0:
        with np.errstate(over="ignore"):  # an infinite difference exceeds every d
            bound = _prefix_end(np.searchsorted(values, values - rule.d),
                                lambda k: _exceeds(values - values[k], rule.d, rule.boundary),
                                len(values))
    up = ranks if rule.direction == "negative_only" else bound
    down = ranks if rule.direction == "positive_only" else bound
    count = np.bincount(rank, minlength=len(values))
    below = np.concatenate(([0], np.cumsum(count)))
    return rank, below, up, down, int(count @ below[down])


def _series_counts(x: np.ndarray, rule: LrdRule):
    """:func:`pair_counts` of one series, by ranks.

    Value q relevantly exceeds the observations of rank below ``up[q]`` and
    falls below those of rank ``high[q]`` or more, the ranks k with
    ``down[k] > q``, so u and v need no time order; under a one-directional
    rule they differ from the lag kernel's, which are time-ordered, but
    neither is defined there. The score and the scoring pairs come from
    :func:`_rank_scores` of the ranks as one row.
    """
    n = len(x)
    rank, below, up, down, total = _rank_bounds(x, rule)
    high = np.searchsorted(down, np.arange(len(down)), side="right")
    if rule.boundary == "lt" and rule.d == 0:
        # every value exceeds itself and its equals by 0 there, though equal values never score
        u, v = below[high] - 1, n - 1 - below[up]
    else:
        u, v = below[up], n - below[high]
    n_up, n_down = _rank_scores(rank[None, :], up, down, total)
    return n_up - n_down, n_up + n_down, u[rank][None, :], v[rank][None, :]


def _merged_pairs(rank, *lows) -> tuple[int, ...]:
    """Per table ``low`` of ``lows``, the pairs i < j with rank[i] < low[j].

    One pass per power of two w: in each block of 2w time steps, every
    later-half observation counts its earlier-half partners by binary search
    over their sorted keys block * (n + 1) + rank. Every pair meets in
    exactly one pass. MAX_SERIES_N keeps the keys below 2**31.
    """
    n = len(rank)
    span = n + 1  # above every rank, so the keys keep the blocks apart
    t = np.arange(n, dtype=np.int32)
    counts = [0] * len(lows)
    level = 0
    while (width := 1 << level) < n:
        block = t >> (level + 1)
        late = (t & width).astype(bool)
        early = ~late
        keys = np.sort(block[early] * span + rank[early])
        block = block[late]
        base = block * span
        # blocks before this one are full, so their earlier halves hold block * width keys;
        # a sum ignores the order of its queries, and sorted ones are searched faster
        full = width * block.sum()
        counts = [count + int(np.searchsorted(keys, np.sort(base + low[late])).sum() - full)
                  for count, low in zip(counts, lows)]
        level += 1
    return tuple(counts)


def _rank_scores(rows: np.ndarray, up: np.ndarray, down: np.ndarray, total: int):
    """(up, down): the pairs of each row of an (m, n) matrix of ranks that score
    +1 and -1, as two int64 arrays of length m.

    The rows are orderings of one set of ranks, and ``up``, ``down`` and
    ``total`` are their :func:`_rank_bounds`. Only pairs whose earlier rank is
    below the later value's bound are counted: under ``up``, the +1 pairs, and
    under ``down``, whose -1 pairs are ``total`` less that count; one table when
    ``up`` is ``down``. Rows of ``_MERGE_MIN_N`` ranks or more, however many, are
    merged over int32 ranks (:func:`_merged_pairs`), one by one. Shorter rows
    share a lag loop, :func:`_lag_block` lags per step, that compares the
    earlier ranks with the later bounds into per-position byte counters.
    """
    m, n = rows.shape
    lows = (up,) if up is down else (up, down)
    if n >= _MERGE_MIN_N:
        rows, lows = rows.astype(np.int32), [low.astype(np.int32) for low in lows]
        counted = np.array([_merged_pairs(r, *(low[r] for low in lows)) for r in rows],
                           dtype=np.int64).T
    else:
        block = _lag_block(n, m)
        kind = np.uint8 if len(up) <= 256 else np.uint16  # every bound is below len(up)
        rank = rows.T.astype(kind, order="C")
        counts = np.zeros((len(lows), block, n, m), dtype=np.uint8)
        # per table, its counter and the later bounds, then rows of 0 that no rank falls below
        sides = []
        for counter, low in zip(counts, lows):
            later = np.zeros((n + block, m), dtype=kind)
            np.take(low.astype(kind), rank, out=later[:n])
            sides.append((counter, later))
        p0, p1 = later.strides
        for lag in range(1, n, block):
            t = n - lag
            for counter, later in sides:
                # at[b, i] is later[lag + b + i], so [b, i] is pair (i, i + lag + b)
                at = np.ndarray((block, t, m), kind, later, lag * p0, (p0, p0, p1))
                counter[:, :t] += np.less(rank[:t], at).view(np.uint8)
        # a row has fewer than n * n / 2 pairs, far below 2**31; int32 sums bytes faster
        counted = counts.sum(axis=(1, 2), dtype=np.int32).astype(np.int64)
    return counted[0], total - counted[-1]


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
