"""Pair scoring, the extended statistic, and exceedance counts."""

import numpy as np
import pytest

from lrdkendall import (
    AnalyticUnavailable,
    InputError,
    InsufficientData,
    LrdRule,
    Series,
    pair_score,
    permutation_test,
    run_test,
    s_extended,
    tie_proportion,
    uv_counts,
)
from lrdkendall.core import _check_budget

# Ten blood-pressure readings reused across the suite.  Brute-force pair
# enumeration (the loop in oracle_s below) gives S=15 at d=0 and, with
# d=0.6, S=14 with 5 of the 45 pairs tied.
DBP = (90.9, 95.2, 98.6, 95.8, 100.7, 94.9, 92.8, 101.5, 99.0, 98.7)


def oracle_s(values, d=0.0, boundary="leq"):
    """Independent O(n^2) double loop, kept deliberately dumb."""
    s = 0
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            diff = values[j] - values[i]
            if boundary == "leq":
                active = abs(diff) > d
            else:
                active = abs(diff) >= d and diff != 0
            if active:
                s += 1 if diff > 0 else -1
    return s


#: the shortest series the pairwise memory bound refuses: (8 + 9m) n^2
#: bytes at m = 1 first exceeds PAIR_BYTES_BUDGET (2 GiB) here
OVER_BUDGET_N = 11_240


def over_budget() -> Series:
    """The shortest series every single-series entry point refuses."""
    return Series.from_values(np.arange(OVER_BUDGET_N, dtype=float))


class TestPairScore:
    def test_partial_tie_triple(self):
        # tie, tie, but not transitive: the outer pair still scores
        rule = LrdRule(d=0.6)
        assert pair_score(94.9, 95.2, rule) == 0
        assert pair_score(95.2, 95.8, rule) == 0
        assert pair_score(94.9, 95.8, rule) == 1

    def test_boundary_modes_at_exact_threshold(self):
        # 1.5 - 1.0 is exactly representable, so |diff| == d exactly
        assert pair_score(1.0, 1.5, LrdRule(d=0.5, boundary="leq")) == 0
        assert pair_score(1.0, 1.5, LrdRule(d=0.5, boundary="lt")) == 1

    def test_zero_difference_ties_under_every_rule(self):
        for boundary in ("leq", "lt"):
            for direction in ("symmetric", "positive_only", "negative_only"):
                rule = LrdRule(d=0.0, boundary=boundary, direction=direction)
                assert pair_score(2.0, 2.0, rule) == 0

    def test_antisymmetry(self):
        rule = LrdRule(d=0.3)
        for a, b in [(1.0, 2.0), (2.0, 1.0), (1.0, 1.2), (5.5, 5.5)]:
            assert pair_score(a, b, rule) == -pair_score(b, a, rule)

    def test_one_directional_scoring(self):
        up_gated = LrdRule(d=1.5, direction="positive_only")
        assert pair_score(1.0, 2.0, up_gated) == 0     # rise below threshold
        assert pair_score(1.0, 3.0, up_gated) == 1     # rise above it
        assert pair_score(2.0, 1.0, up_gated) == -1    # any fall counts
        down_gated = LrdRule(d=1.5, direction="negative_only")
        assert pair_score(2.0, 1.0, down_gated) == 0
        assert pair_score(3.0, 1.0, down_gated) == -1
        assert pair_score(1.0, 2.0, down_gated) == 1

    def test_rule_validation(self):
        with pytest.raises(InputError):
            LrdRule(d=-0.1)
        with pytest.raises(InputError):
            LrdRule(d=float("nan"))
        with pytest.raises(InputError):
            LrdRule(d=0.0, boundary="lte")
        with pytest.raises(InputError):
            LrdRule(d=0.0, direction="both")


class TestSeries:
    def test_from_values_grid(self):
        s = Series.from_values([3.0, 1.0, 2.0], label="x")
        assert list(s.times) == [0.0, 1.0, 2.0]
        assert len(s) == 3

    def test_rejects_bad_input(self):
        with pytest.raises(InsufficientData):
            Series.from_values([1.0])
        with pytest.raises(InputError):
            Series.from_values([1.0, float("nan")])
        with pytest.raises(InputError):
            Series(times=[0.0, 0.0], values=[1.0, 2.0])
        with pytest.raises(InputError):
            Series(times=[1.0, 0.0], values=[1.0, 2.0])
        with pytest.raises(InputError):
            Series(times=[0.0, 1.0, 2.0], values=[1.0, 2.0])

    def test_values_are_read_only(self):
        s = Series.from_values([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0


class TestSExtended:
    def test_dbp_matches_brute_force(self):
        series = Series.from_values(DBP)
        assert s_extended(series, LrdRule(d=0.0)) == oracle_s(DBP) == 15
        assert s_extended(series, LrdRule(d=0.6)) == oracle_s(DBP, d=0.6) == 14

    def test_monotone_series_is_fully_concordant(self):
        series = Series.from_values([1.0, 3.0, 5.0, 7.0, 9.0])
        assert s_extended(series, LrdRule(d=0.5)) == 10  # n(n-1)/2

    def test_time_reversal_negates(self):
        series = Series.from_values(DBP)
        reverse = Series.from_values(DBP[::-1])
        for d in (0.0, 0.6, 2.0):
            rule = LrdRule(d=d)
            assert s_extended(reverse, rule) == -s_extended(series, rule)

    def test_translation_and_scale_invariance(self):
        values = [4.0, 1.0, 7.0, 3.0, 3.0, 9.0]
        rule = LrdRule(d=1.0)
        base = s_extended(Series.from_values(values), rule)
        shifted = [x + 100.0 for x in values]
        assert s_extended(Series.from_values(shifted), rule) == base
        doubled = [2.0 * x for x in values]
        assert s_extended(Series.from_values(doubled), LrdRule(d=2.0)) == base


class TestUvCounts:
    def test_rank_arithmetic_case(self):
        series = Series.from_values([10.0, 20.0, 30.0, 40.0])
        u, v = uv_counts(series, LrdRule(d=0.0))
        assert list(u) == [0, 1, 2, 3]
        assert list(v) == [3, 2, 1, 0]

    def test_dbp_sums(self):
        u, v = uv_counts(Series.from_values(DBP), LrdRule(d=0.6))
        assert u.sum() == v.sum() == 40  # 45 pairs minus the 5 ties
        assert np.all(u + v <= len(DBP) - 1)

    def test_constant_series_all_zero(self):
        u, v = uv_counts(Series.from_values([5.0] * 6), LrdRule(d=0.0))
        assert not u.any() and not v.any()

    def test_lt_at_zero_double_counts_duplicates(self):
        # under the strict boundary a pair of exact duplicates exceeds from
        # both sides, so sum(u) overshoots the pair count; this pins the
        # documented behaviour rather than endorsing it
        u, v = uv_counts(Series.from_values([1.0, 1.0, 2.0]), LrdRule(d=0.0, boundary="lt"))
        assert u.sum() == v.sum() == 4  # 3 pairs, duplicate pair counted twice

    def test_one_directional_has_no_counts(self):
        series = Series.from_values(DBP)
        with pytest.raises(AnalyticUnavailable):
            uv_counts(series, LrdRule(d=0.6, direction="positive_only"))

    def test_over_memory_budget_rejected(self):
        series = over_budget()
        with pytest.raises(InputError, match=f"n = {len(series)}"):
            uv_counts(series, LrdRule(d=0.0))


class TestTieProportion:
    def test_distinct_values_no_ties(self):
        assert tie_proportion(Series.from_values([1.0, 2.0, 4.0]), LrdRule(d=0.0)) == 0.0

    def test_constant_series_fully_tied(self):
        assert tie_proportion(Series.from_values([3.0] * 5), LrdRule(d=0.0)) == 1.0

    def test_dbp_fraction(self):
        got = tie_proportion(Series.from_values(DBP), LrdRule(d=0.6))
        assert got == pytest.approx(5 / 45)

    def test_nondecreasing_in_threshold(self):
        series = Series.from_values(DBP)
        fractions = [tie_proportion(series, LrdRule(d=d)) for d in (0.0, 0.3, 0.6, 1.2, 3.0)]
        assert fractions == sorted(fractions)


class TestMemoryBound:
    def test_every_single_series_entry_point_refuses(self):
        # one bound for both kernels: uv_counts used to accept this series
        _check_budget(np.empty((1, OVER_BUDGET_N - 1)))  # one shorter passes
        series = over_budget()
        rule = LrdRule(d=0.0)
        for call in (
            s_extended,
            tie_proportion,
            uv_counts,
            run_test,
            lambda s, r: permutation_test(s, r, replicates=10, method="sampled"),
        ):
            with pytest.raises(InputError, match=f"n = {OVER_BUDGET_N} needs about"):
                call(series, rule)
