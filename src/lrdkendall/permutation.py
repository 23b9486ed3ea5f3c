"""Permutation inference for the thresholded trend score.

This is the fallback path recommended whenever the normal approximation
is doubtful (small n, heavy ties) and the only path for one-directional
rules, whose analytic variance is not derived.

Every null permutes one fixed set of values, so it scores in rank space:
core._rank_bounds finds once, per series or group, which ranks each value
scores +1 and -1 against, by the pair rule of core.pair_counts. One helper,
:func:`_null`, then scores the observed series, as one row of the unpermuted
ranks, and every draw, as chunks of rows of permuted ranks, whatever made
them: sampled, regional or exhaustive.

Sampled draws follow the seeding contract, which the :mod:`lrdkendall.seeds`
docstring states with this module's row cost, cap and keys. Each chunk
permutes int64 rows of the ranks, which takes the same draws as permuting
the values. core._rank_scores, which also scores the observed row, counts
each row's pairs that score +1 and -1, S being their difference, by byte
compares or, for long rows, by merging. It compares each earlier rank with
the later value's bound alone, and reads the -1 pairs off a total that every
ordering of one set of values shares, which core._rank_bounds finds once per
group with the bounds. At n = 30 a call of
10 000 draws takes about 7 ms under a symmetric rule and 8 ms under a
one-directional one, against about 15 ms when each chunk was scored as rows
of values by pair_counts, which also counted the u/v tallies the null
discards; about half of what is left is the permuting itself.

For n <= 8 the test scores all n! orderings instead and the p-value
is exact, with no randomness at all. The orderings are one chunk of byte
rows of the ranks, in itertools.permutations order (:func:`_orderings`),
scored by core._rank_scores like any sampled chunk. At n = 8 a call takes
about 1.8 ms under a symmetric rule and 2.4 ms under a one-directional one,
with a tracemalloc peak of 4.0 and 4.7 MiB. (Timings: shared 2-core Xeon,
Python 3.11, numpy 2.4.)

The grouped variant (permute within each group independently, recombine
the summed score) is this package's extension; treat its p-values as a
sensible default rather than a published procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import LrdRule, Series, _check_length, _rank_bounds, _rank_scores
from .errors import InputError, integral
from .inference import SIDEDNESS
from .regional import LrdPolicy, RegionalDataset, _group_rules
from .seeds import check_replicates, chunks

#: largest n scored exhaustively: the 8! = 40 320 orderings take about 2 ms as
#: one chunk of byte rows; 9! would take about ten times that and hold ten times
#: the memory
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


def _null(groups) -> tuple[int, np.ndarray]:
    """(observed, null): the summed score of equal-length groups as given, and
    the summed scores of their draws.

    ``groups`` holds (values, rule, draw) triples. ``draw(rank)`` yields the
    group's draws as chunks of rows, each an ordering of its ranks ``rank``;
    the j-th rows of the groups make up the j-th draw. Groups longer than
    core.MAX_SERIES_N are refused.
    """
    _check_length(len(groups[0][0]))
    observed, null = 0, 0
    for values, rule, draw in groups:
        rank, _, *bounds = _rank_bounds(values, rule)
        observed += int(np.subtract(*_rank_scores(rank[None, :], *bounds))[0])
        null = null + np.concatenate([np.subtract(*_rank_scores(rows, *bounds))
                                      for rows in draw(rank)])
    return observed, null


def _shuffles(replicates: int, seed: int, key: tuple, rank: np.ndarray):
    """``replicates`` sampled orderings of ``rank``, in the chunks of the stream keyed ``key``."""
    n = len(rank)
    for rng, m in chunks(seed, key, replicates, n * (n - 1), 4096):
        rows = np.tile(rank, (m, 1))
        rng.permuted(rows, axis=1, out=rows)
        yield rows


def _orderings(rank: np.ndarray):
    """Every ordering of ``rank``, as one chunk of n! rows in itertools.permutations
    order, so the identity comes first; n <= 8 ranks fit in a byte."""
    n = len(rank)
    rows = rank.astype(np.int8)[None, :]
    for j in range(n - 1):
        # place j takes each value from j on in turn; the values it passes move up one
        grown = np.repeat(rows[:, None], n - j, axis=1)
        for f in range(1, n - j):
            grown[:, f, j] = rows[:, j + f]
            grown[:, f, j + 1:j + f + 1] = rows[:, j:j + f]
        rows = grown.reshape(-1, n)
    yield rows


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
        draw = partial(_shuffles, replicates, seed, ("perm",))
    elif n > EXHAUSTIVE_MAX_N:
        raise InputError(
            f"exhaustive enumeration supports n <= {EXHAUSTIVE_MAX_N}, got {n}"
        )
    else:
        draw = _orderings
    s_obs, null_s = _null([(series.values, rule, draw)])
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

    groups = [(data.groups[label].values, rule,
               partial(_shuffles, replicates, seed, ("regional", label)))
              for label, rule in _group_rules(data, policy).items()]
    s_obs, null_s = _null(groups)
    return _result(null_s, s_obs, sidedness, "sampled", seed)
