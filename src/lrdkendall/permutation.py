"""Permutation inference for the thresholded trend score.

This is the fallback path recommended whenever the normal approximation
is doubtful (small n, heavy ties) and the only path for one-directional
rules, whose analytic variance is not derived.

Sampled draws follow the seeding contract in :mod:`lrdkendall.seeds`.
For n <= 8 the test enumerates all n! orderings instead and the p-value
is exact, with no randomness at all.

The grouped variant (permute within each group independently, recombine
the summed score) is this package's extension; treat its p-values as a
sensible default rather than a published procedure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import LrdRule, Series, pair_counts, s_extended
from .errors import InputError, integral
from .inference import SIDEDNESS
from .regional import LrdPolicy, RegionalDataset, _group_rules
from .seeds import check_replicates, chunks

EXHAUSTIVE_MAX_N = 8          # 8! = 40320 orderings; 9! starts to drag
_CHUNK_ELEMENTS = 4_000_000   # sets the rows per chunk, part of the seeding contract


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


def _rows_per_chunk(n: int) -> int:
    pairs = n * (n - 1) // 2
    return max(1, min(4096, _CHUNK_ELEMENTS // pairs))


def _check_args(sidedness: str, replicates, seed) -> tuple[int, int]:
    """(replicates, seed) as ints, by the rules Scenario applies to them."""
    if sidedness not in SIDEDNESS:
        raise InputError(f"sidedness must be one of {SIDEDNESS}, got {sidedness!r}")
    return check_replicates(replicates), integral(seed, "seed")


def _sampled_null(groups, replicates: int, seed: int) -> np.ndarray:
    """Summed scores of ``replicates`` sampled draws over equal-length groups.

    ``groups`` holds (key, values, rule) triples. Each group's values are
    permuted independently, in the chunks of the stream keyed ``key``.
    """
    size = _rows_per_chunk(len(groups[0][1]))
    total = np.zeros(replicates, dtype=np.int64)
    for key, values, rule in groups:
        total += np.concatenate([
            pair_counts(rng.permuted(np.tile(values, (m, 1)), axis=1), rule)[0]
            for rng, m in chunks(seed, key, replicates, size)
        ])
    return total


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
    s_obs = s_extended(series, rule)
    if method == "auto":
        method = "exhaustive" if n <= EXHAUSTIVE_MAX_N else "sampled"
    if method == "exhaustive" and n > EXHAUSTIVE_MAX_N:
        raise InputError(
            f"exhaustive enumeration supports n <= {EXHAUSTIVE_MAX_N}, got {n}"
        )

    if method == "exhaustive":
        rows = np.array(list(itertools.permutations(series.values)))
        null_s = pair_counts(rows, rule)[0]
    else:
        null_s = _sampled_null([(("perm",), series.values, rule)], replicates, seed)
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

    rules = _group_rules(data, policy)
    s_obs = sum(s_extended(data.groups[label], rule) for label, rule in rules.items())
    groups = [(("regional", label), data.groups[label].values, rule)
              for label, rule in rules.items()]
    null_s = _sampled_null(groups, replicates, seed)
    return _result(null_s, s_obs, sidedness, "sampled", seed)
