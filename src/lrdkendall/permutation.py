"""Permutation inference for the thresholded trend score.

This is the fallback path recommended whenever the normal approximation
is doubtful (small n, heavy ties) and the only path for one-directional
rules, whose analytic variance is not derived.

Both nulls permute one fixed set of values, so they score in rank space:
core._rank_bounds finds once, per series or group, which ranks each value
scores +1 and -1 against, by the pair rule of core.pair_counts. The
observed score is read from the same bounds: the identity ordering in the
exhaustive null, one row of the unpermuted ranks in the sampled one.

Sampled draws follow the seeding contract, which the :mod:`lrdkendall.seeds`
docstring states with this module's row cost, cap and keys. Each chunk
permutes int64 rows of the ranks, which takes the same draws as permuting
the values. core._rank_scores, which also scores the observed row, counts
each row's pairs that score +1 and -1, S being their difference, by byte
compares or, for long rows, by merging. Under a symmetric rule it counts the
+1 side only, since every ordering of one set of values has the same scoring
pairs (core._symmetric_scoring), found once per group. At n = 30 a call of
10 000 draws takes about 7 ms under a symmetric rule and 8 ms under a
one-directional one, against about 15 ms when each chunk was scored as rows
of values by pair_counts, which also counted the u/v tallies the null
discards; about half of what is left is the permuting itself.

For n <= 8 the test scores all n! orderings instead and the p-value
is exact, with no randomness at all. It builds no n!-by-n matrix of
orderings: a table of the n(n - 1) ordered pair scores, read off the rank
bounds, is expanded one place at a time, each prefix carrying its score
and what each unused position would add (:func:`_ordering_scores`). A call
at n = 8 takes about 6 ms, against about 29 ms for building the 40 320
orderings and scoring them in one pair_counts call. (Timings: shared
2-core Xeon, Python 3.11, numpy 2.4.)

The grouped variant (permute within each group independently, recombine
the summed score) is this package's extension; treat its p-values as a
sensible default rather than a published procedure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (LrdRule, Series, _check_length, _rank_bounds, _rank_scores,
                   _symmetric_scoring)
from .errors import InputError, integral
from .inference import SIDEDNESS
from .regional import LrdPolicy, RegionalDataset, _group_rules
from .seeds import check_replicates, chunks

#: largest n scored exhaustively: 8! = 40 320 orderings take about 10 ms by prefix
#: expansion; 9! would take about ten times that and hold ten times the memory
EXHAUSTIVE_MAX_N = 8


@dataclass(frozen=True)
class PermutationResult:
    """Permutation p-value and the null-distribution summary behind it.

    ``draws`` is n! in exhaustive mode, the replicate count otherwise.
    ``exceed_count`` is how many draws met the tail criterion; the
    sampled p is (1 + exceed_count)/(draws + 1) so that it can never be
    exactly zero, the exhaustive p is exceed_count/draws exactly.
    """

    p: float
    s_observed: int
    sidedness: str
    method: str
    draws: int
    exceed_count: int
    null_mean: float
    null_sd: float
    seed: int | None = None


def _check_args(sidedness: str, replicates, seed) -> tuple[int, int]:
    """(replicates, seed) as ints, by the rules Scenario applies to them."""
    if sidedness not in SIDEDNESS:
        raise InputError(f"sidedness must be one of {SIDEDNESS}, got {sidedness!r}")
    return check_replicates(replicates), integral(seed, "seed")


def _sampled_null(groups, replicates: int, seed: int) -> tuple[int, np.ndarray]:
    """(observed, null): the summed score of equal-length groups as given,
    and the summed scores of ``replicates`` sampled draws.

    ``groups`` holds (key, values, rule) triples. Each group's values are
    permuted independently, in the chunks of the stream keyed ``key``.
    Groups longer than core.MAX_SERIES_N are refused.
    """
    n = len(groups[0][1])
    _check_length(n)
    observed = 0
    total = np.zeros(replicates, dtype=np.int64)
    for key, values, rule in groups:
        rank, low, high = _rank_bounds(values, rule)
        scoring = _symmetric_scoring(rank, low, rule)
        observed += int(np.subtract(*_rank_scores(rank[None, :], low, high, scoring))[0])
        scores = []
        for rng, m in chunks(seed, key, replicates, n * (n - 1), 4096):
            rows = np.tile(rank, (m, 1))
            rng.permuted(rows, axis=1, out=rows)
            scores.append(np.subtract(*_rank_scores(rows, low, high, scoring)))
        total += np.concatenate(scores)
    return observed, total


def _ordering_scores(values: np.ndarray, rule: LrdRule) -> np.ndarray:
    """S of every ordering of ``values``, in itertools.permutations order.

    ``table[i, k]`` is the score of value i placed before value k, read off
    the rank bounds of the values. The orderings then grow one place at a
    time: each prefix carries its score and, for every position, what
    appending that position would add to it. A prefix's children take its
    unused positions in ascending order, which is the order of
    itertools.permutations, so the identity ordering comes first.
    """
    n = len(values)
    rank, low, high = _rank_bounds(values, rule)
    table = (rank[:, None] < low[rank]).astype(np.int64) - (rank[:, None] >= high[rank])
    score = np.zeros(1, dtype=np.int64)
    gain = np.zeros((1, n), dtype=np.int64)
    free = np.ones((1, n), dtype=bool)
    for _ in range(n - 2):
        parent, nxt = np.nonzero(free)  # row by row, so each prefix's positions ascend
        score = score[parent] + gain[parent, nxt]
        gain = gain[parent] + table[nxt]
        free = free[parent]
        free[np.arange(len(nxt)), nxt] = False
    # the last two places at once: a prefix with a < b left ends a, b then b, a
    a, b = np.nonzero(free)[1].reshape(-1, 2).T
    prefix = np.arange(len(a))
    base = score + gain[prefix, a] + gain[prefix, b]
    return np.column_stack((base + table[a, b], base + table[b, a])).ravel()


def _result(
    null_s: np.ndarray, s_obs: int, sidedness: str, method: str, seed: int
) -> PermutationResult:
    if sidedness == "two_sided":
        hits = int(np.sum(np.abs(null_s) >= abs(s_obs)))
    elif sidedness == "greater":
        hits = int(np.sum(null_s >= s_obs))
    else:
        hits = int(np.sum(null_s <= s_obs))
    draws = len(null_s)
    exhaustive = method == "exhaustive"
    p = hits / draws if exhaustive else (1 + hits) / (draws + 1)
    return PermutationResult(
        p=float(p),
        s_observed=int(s_obs),
        sidedness=sidedness,
        method=method,
        draws=draws,
        exceed_count=hits,
        null_mean=float(null_s.mean()),
        null_sd=float(null_s.std(ddof=0)),
        seed=None if exhaustive else seed,
    )


def permutation_test(
    series: Series,
    rule: LrdRule | None = None,
    replicates: int = 10000,
    seed: int = 0,
    sidedness: str = "two_sided",
    method: str = "auto",
) -> PermutationResult:
    """Permutation test of no trend, resampling time order.

    Args:
        series: Observations in time order.
        rule: Comparison policy (any direction); default d = 0.
        replicates: Number of sampled permutations (ignored in
            exhaustive mode); from 1 to seeds.MAX_REPLICATES.
        seed: Base seed for the chunked draw streams. Like replicates, an
            integer, or an integral float such as 5.0 that reads as 5.
        sidedness: "two_sided", "greater", or "less".
        method: "auto" enumerates all orderings for n <= 8 and samples
            otherwise; "exhaustive" and "sampled" force the choice
            (exhaustive refuses n > 8).

    Returns:
        PermutationResult. The sampled estimator adds one to numerator
        and denominator, so p is in (0, 1]; the exhaustive p is exact.
    """
    if rule is None:
        rule = LrdRule(d=0.0)
    replicates, seed = _check_args(sidedness, replicates, seed)
    if method not in ("auto", "exhaustive", "sampled"):
        raise InputError(f"unknown method {method!r}")

    n = len(series)
    if method == "auto":
        method = "exhaustive" if n <= EXHAUSTIVE_MAX_N else "sampled"
    if method == "sampled":
        s_obs, null_s = _sampled_null([(("perm",), series.values, rule)], replicates, seed)
    elif n > EXHAUSTIVE_MAX_N:
        raise InputError(
            f"exhaustive enumeration supports n <= {EXHAUSTIVE_MAX_N}, got {n}"
        )
    else:
        null_s = _ordering_scores(series.values, rule)
        s_obs = null_s[0]  # the identity ordering
    return _result(null_s, s_obs, sidedness, method, seed)


def regional_permutation_test(
    data: RegionalDataset,
    policy: LrdPolicy | None = None,
    replicates: int = 10000,
    seed: int = 0,
    sidedness: str = "two_sided",
) -> PermutationResult:
    """Permutation test for the aggregate score across groups.

    Each group's values are permuted against its own time grid,
    independently of the others; the per-group scores are summed to give
    each null draw. This grouped scheme is this package's extension (see
    the module docstring).
    """
    if policy is None:
        policy = LrdPolicy()
    replicates, seed = _check_args(sidedness, replicates, seed)

    groups = [(("regional", label), data.groups[label].values, rule)
              for label, rule in _group_rules(data, policy).items()]
    s_obs, null_s = _sampled_null(groups, replicates, seed)
    return _result(null_s, s_obs, sidedness, "sampled", seed)
