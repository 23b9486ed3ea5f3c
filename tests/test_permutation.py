"""Permutation inference: exhaustive, sampled, and the grouped variant."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrdkendall import (
    InputError,
    LrdPolicy,
    LrdRule,
    RegionalDataset,
    Series,
    permutation_test,
    platelet_donations,
    regional_permutation_test,
    regional_test,
    run_test,
    s_extended,
)

from lrdkendall import core
from lrdkendall.core import BOUNDARIES, DIRECTIONS, pair_counts
from lrdkendall.permutation import _null, _orderings
from lrdkendall.seeds import MAX_REPLICATES

from test_core import DBP, too_long


#: the values of the sampled pins: a 0.1 grid with duplicates and a weak trend
PIN_VALUES = ((np.arange(30) * 7 % 11) + np.arange(30) // 12) / 10


def traced_peak(call) -> int:
    """tracemalloc's peak over a second call, after one that warms numpy's caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExhaustive:
    def test_small_monotone_series(self):
        # 24 orderings of 4 distinct values, two reach |S| >= 6
        result = permutation_test(Series.from_values([1.0, 2.0, 3.0, 4.0]))
        assert result.method == "exhaustive"
        assert result.draws == 24
        assert result.exceed_count == 2
        assert result.p == pytest.approx(2 / 24)

    def test_constant_series(self):
        result = permutation_test(Series.from_values([2.0] * 5))
        assert result.p == 1.0

    def test_exact_p_has_no_add_one(self):
        # exhaustive p is a plain ratio, so exact small values survive
        result = permutation_test(Series.from_values([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        assert result.method == "exhaustive"
        assert result.p == pytest.approx(result.exceed_count / result.draws)

    def test_one_sided_tails(self):
        series = Series.from_values([1.0, 2.0, 3.0, 4.0])
        up = permutation_test(series, sidedness="greater")
        down = permutation_test(series, sidedness="less")
        assert up.p == pytest.approx(1 / 24)
        assert down.p == pytest.approx(1.0)

    def test_explicit_request_over_size_limit(self):
        series = Series.from_values(np.arange(9.0))
        with pytest.raises(InputError):
            permutation_test(series, method="exhaustive")

    @pytest.mark.parametrize("values, rule, pin", [
        # criterion 08's series
        ([3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0], LrdRule(d=0.0),
         (1922, 0.3813492063492063, "0x0.0p+0", "0x1.aa220c42b9ff5p+2")),
        ([95.2, 98.6, 95.8, 100.7, 94.9, 92.8, 101.5, 99.0], LrdRule(d=0.6, boundary="lt"),
         (32508, 0.80625, "0x0.0p+0", "0x1.f6947b8ca450ap+2")),
        ([1.0, 1.2, 1.0, 0.9, 1.5, 1.2, 1.4, 1.0], LrdRule(d=0.2, direction="positive_only"),
         (35352, 0.8767857142857143, "-0x1.8000000000000p+2", "0x1.a2dca8c4d8b99p+2")),
    ])
    def test_pinned(self, values, rule, pin):
        # recorded from the n!-row enumeration; the null moments to the bit
        result = permutation_test(Series.from_values(values), rule)
        assert result.method == "exhaustive" and result.draws == {7: 5040, 8: 40320}[len(values)]
        assert (result.exceed_count, result.p, result.null_mean.hex(), result.null_sd.hex()) == pin

    def test_memory_bound(self):
        # the n!-row enumeration peaked at 17.8 MB on this call, prefix expansion of a
        # pair-score table at 3.4 MB, one chunk of the orderings as byte rows at 4.0 MiB
        series = Series.from_values([95.2, 98.6, 95.8, 100.7, 94.9, 92.8, 101.5, 99.0])
        permutation_test(series, LrdRule(d=0.6))  # warm numpy's first-call caches
        tracemalloc.start()
        try:
            permutation_test(series, LrdRule(d=0.6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


# 0.1-grid values, so duplicates and differences of exactly d are common,
# plus values whose differences overflow to infinity
ordering_values = st.lists(
    st.one_of(st.integers(-15, 15).map(lambda k: k / 10), st.sampled_from([1e308, -1e308])),
    min_size=2, max_size=8,
)


@settings(max_examples=60, deadline=None)
@example(values=[1e308, 0.1, 0.1, -1e308, 0.3, 0.0, 1e308, 0.2], d=0.1, boundary="lt",
         direction="symmetric")
@example(values=[0.5, 0.5, -0.2, 0.5, 1.1, -0.2, 0.0, 0.7], d=0.0, boundary="lt",
         direction="positive_only")
@given(
    values=ordering_values,
    d=st.integers(0, 6).map(lambda k: k / 10),
    boundary=st.sampled_from(BOUNDARIES),
    direction=st.sampled_from(DIRECTIONS),
)
def test_exhaustive_null_is_the_enumeration(values, d, boundary, direction):
    values = np.array(values)
    rule = LrdRule(d=d, boundary=boundary, direction=direction)
    want = pair_counts(np.array(list(itertools.permutations(values))), rule)[0]
    observed, got = _null([(values, rule, _orderings)])
    # element for element, in itertools.permutations order, so the first is the observed S
    assert got.dtype == np.int64 and np.array_equal(got, want) and observed == want[0]
    result = permutation_test(Series.from_values(values), rule)
    assert result.s_observed == want[0] and result.draws == len(want)


@pytest.mark.parametrize("n", range(1, 9))
def test_orderings_are_itertools_permutations(n):
    [rows] = _orderings(np.arange(n))
    assert rows.dtype == np.int8
    assert rows.tolist() == [list(p) for p in itertools.permutations(range(n))]


class TestSampled:
    def test_replicate_cap(self):
        # checked before any draw: 10**12 used to fail allocating 7.28 TiB
        series = Series.from_values(DBP)
        for count in (MAX_REPLICATES + 1, 10**12):
            with pytest.raises(InputError):
                permutation_test(series, replicates=count)
            with pytest.raises(InputError):
                regional_permutation_test(platelet_donations(), replicates=count)

    def test_add_one_keeps_p_positive(self):
        series = Series.from_values(np.arange(20.0))  # extreme trend
        result = permutation_test(series, replicates=500, seed=3)
        assert result.method == "sampled"
        assert result.draws == 500
        assert 0.0 < result.p <= 1.0
        assert result.p == pytest.approx((1 + result.exceed_count) / 501)

    def test_same_seed_same_answer(self):
        series = Series.from_values(DBP)
        rule = LrdRule(d=0.6)
        a = permutation_test(series, rule, replicates=2000, seed=11)
        b = permutation_test(series, rule, replicates=2000, seed=11)
        assert a == b

    def test_different_seed_different_draws(self):
        series = Series.from_values(DBP)
        a = permutation_test(series, replicates=2000, seed=1)
        b = permutation_test(series, replicates=2000, seed=2)
        assert a.null_sd != b.null_sd

    def test_observed_score_matches_analytic_path(self):
        series = Series.from_values(DBP)
        rule = LrdRule(d=0.6)
        result = permutation_test(series, rule, replicates=200, seed=0)
        assert result.s_observed == run_test(series, rule).s_extended

    @pytest.mark.parametrize("n", [30, 300, 1500])
    def test_observed_score_is_s_extended_under_every_rule(self, n):
        # read from the null's rank bounds as one row: merged at 1500, the lag loop below
        rng = np.random.default_rng(n)
        values = np.round(np.cumsum(rng.normal(size=n)), 1)
        values[rng.random(n) < 0.1] = 1e308
        values[rng.random(n) < 0.1] = -1e308
        series = Series.from_values(values)
        for rule in (LrdRule(d=d, boundary=boundary, direction=direction)
                     for d in (0.0, 0.5) for boundary in BOUNDARIES for direction in DIRECTIONS):
            result = permutation_test(series, rule, replicates=1, seed=0, method="sampled")
            assert result.s_observed == s_extended(series, rule)

    def test_observed_row_at_1499_is_merged_once(self):
        # a lone row is merged from core._ROW_MERGE_MIN_N on, while the 3 draws of
        # the one chunk at n = 1499 share the lag loop
        rng = np.random.default_rng(1499)
        series = Series.from_values(np.round(np.cumsum(rng.normal(size=1499)), 1))
        rule = LrdRule(d=0.6)
        with mock.patch.object(core, "_merged_pairs", wraps=core._merged_pairs) as merge:
            result = permutation_test(series, rule, replicates=3, seed=0)
        assert merge.call_count == 1
        assert result.s_observed == s_extended(series, rule)

    def test_one_directional_rule_accepted(self):
        # the analytic path refuses these; permutation is the fallback
        rule = LrdRule(d=0.6, direction="positive_only")
        result = permutation_test(Series.from_values(DBP), rule, replicates=500, seed=5)
        assert 0.0 < result.p <= 1.0

    def test_agrees_with_normal_approximation(self):
        rng = np.random.default_rng(42)
        values = np.round(rng.normal(10.0, 1.0, size=20), 1)
        series = Series.from_values(values)
        rule = LrdRule(d=0.3)
        analytic = run_test(series, rule)
        sampled = permutation_test(series, rule, replicates=20000, seed=9)
        assert sampled.p == pytest.approx(analytic.p, abs=0.02)

    def test_null_moments_are_sane(self):
        result = permutation_test(Series.from_values(DBP), replicates=5000, seed=4)
        # permutation null is centred on zero with sd near sqrt(Var)
        assert abs(result.null_mean) < 3 * result.null_sd / np.sqrt(result.draws)
        assert result.null_sd == pytest.approx(np.sqrt(125.0), rel=0.05)

    def test_exceed_count_pinned(self):
        # integer outcome of the seeded stream over two chunks: changing
        # chunk sizes or stream keys moves it, and must be recorded
        values = (np.arange(30) * 7 % 11) / 10
        result = permutation_test(Series.from_values(values), LrdRule(d=0.3), seed=0)
        assert result.exceed_count == 8312

    def test_exceed_count_pinned_where_the_budget_sets_the_chunks(self):
        # at n = 60 the cell budget, not the row cap, sizes the chunks:
        # 3000 draws are chunks of 2259 and 741 rows. The summed null score
        # moves even when a chunk grows or shrinks by a row or two.
        values = (np.arange(60) * 7 % 11) / 10 + np.arange(60) / 400
        result = permutation_test(
            Series.from_values(values), LrdRule(d=0.3), replicates=3000, seed=0
        )
        assert (result.exceed_count, round(result.null_mean * result.draws)) == (646, 5866)

    @pytest.mark.parametrize("rule, replicates, pin", [
        (LrdRule(d=0.3, direction="positive_only"), 4097,
         (3830, "-0x1.3a86d79286d79p+6", "0x1.9f1f2b6215b50p+5")),
        (LrdRule(d=0.3, direction="positive_only"), 10000,
         (9350, "-0x1.3a7126e978d50p+6", "0x1.9b73fea2cb026p+5")),
        (LrdRule(d=0.3, direction="negative_only"), 4097,
         (454, "0x1.3979286d79287p+6", "0x1.9f1f2b6215b50p+5")),
        (LrdRule(d=0.3, direction="negative_only"), 10000,
         (1072, "0x1.398ed916872b0p+6", "0x1.9b73fea2cb026p+5")),
        (LrdRule(d=0.0, boundary="lt"), 4097,
         (918, "0x1.c7e381c7e381cp-5", "0x1.c31a092af64acp+5")),
        (LrdRule(d=0.0, boundary="lt"), 10000,
         (2187, "-0x1.2f1a9fbe76c8bp-5", "0x1.be6db8f4c409dp+5")),
    ])
    def test_null_pinned(self, rule, replicates, pin):
        # recorded when every draw was scored as a row of values by pair_counts;
        # 4097 draws are chunks of 4096 and 1, 10000 draws three chunks
        result = permutation_test(Series.from_values(PIN_VALUES), rule,
                                  replicates=replicates, seed=0)
        assert (result.exceed_count, result.null_mean.hex(), result.null_sd.hex()) == pin

    def test_memory_bound(self):
        # scoring each chunk as float rows through pair_counts peaked at 4.64 MiB
        # on this call; rank rows scored in bytes peak at 2.34 MiB
        series = Series.from_values(PIN_VALUES)
        peak = traced_peak(lambda: permutation_test(series, LrdRule(d=0.3), seed=0))
        assert peak < 3 * 2**20

    def test_integral_floats_read_as_ints(self):
        # seed=5.0 used to key the streams "5.0|perm|c" and report seed=5.0
        series, data = Series.from_values(DBP), platelet_donations()
        for call, arg in ((permutation_test, series), (regional_permutation_test, data)):
            want = call(arg, replicates=50, seed=5)
            got = call(arg, replicates=50.0, seed=np.float64(5.0))
            assert got == want and type(got.seed) is int

    def test_non_integral_seeds_and_counts_refused(self):
        # replicates of True, "20" or 50.0 used to end in a TypeError
        # traceback, or to run; seed="a" and seed=None were accepted
        series, data = Series.from_values(DBP), platelet_donations()
        for bad in ({"seed": "a"}, {"seed": None}, {"seed": True}, {"seed": 0.5},
                    {"replicates": True}, {"replicates": "20"}, {"replicates": 50.5}):
            with pytest.raises(InputError, match="must be an integer"):
                permutation_test(series, **bad)
            with pytest.raises(InputError, match="must be an integer"):
                regional_permutation_test(data, **bad)

    def test_replicates_validated(self):
        with pytest.raises(InputError):
            permutation_test(Series.from_values(DBP), replicates=0)
        with pytest.raises(InputError):
            permutation_test(Series.from_values(DBP), method="guess")
        with pytest.raises(InputError, match="sidedness must be one of"):
            permutation_test(Series.from_values(DBP), sidedness="sideways")

    def test_over_memory_budget_rejected(self):
        series = too_long()
        with pytest.raises(InputError, match=f"n = {len(series)} is longer than"):
            permutation_test(series, replicates=10, method="sampled")


class TestRegionalPermutation:
    def setup_method(self):
        times = np.arange(5.0)
        self.data = RegionalDataset(groups={
            "a": Series(times, [1.0, 3.0, 2.0, 5.0, 4.0]),
            "b": Series(times, [2.0, 2.5, 3.0, 2.8, 3.5]),
        })

    def test_exceed_count_pinned(self):
        # 10000 draws are chunks of 4096, 4096 and 1808 for five periods
        policy = LrdPolicy(value=0.2, boundary="lt")
        result = regional_permutation_test(platelet_donations(), policy, seed=0)
        assert result.exceed_count == 66

    @pytest.mark.parametrize("policy, replicates, pin", [
        (LrdPolicy(value=0.0, boundary="lt"), 4097,
         (89, "-0x1.216de9216de92p-3", "0x1.199805b9369fcp+4")),
        (LrdPolicy(value=0.0, boundary="lt"), 10000,
         (244, "0x1.563886594af4fp-2", "0x1.193f8f9c2b749p+4")),
        (LrdPolicy(kind="fraction_of_group_mean", value=0.05, boundary="lt"), 4097,
         (8, "-0x1.85e7a185e7a18p-5", "0x1.eb5f5f6c4d65dp+3")),
        (LrdPolicy(kind="fraction_of_group_mean", value=0.05, boundary="lt"), 10000,
         (21, "0x1.48e8a71de69adp-2", "0x1.ec74794d07c55p+3")),
        (LrdPolicy(value=0.2), 4097, (25, "0x1.bee411bee411cp-4", "0x1.da0cbe5b29601p+3")),
        (LrdPolicy(value=0.2), 10000, (66, "0x1.6147ae147ae14p-2", "0x1.dad7d54a3b98dp+3")),
    ])
    def test_null_pinned(self, policy, replicates, pin):
        # recorded when every draw was scored as a row of values by pair_counts
        result = regional_permutation_test(platelet_donations(), policy,
                                           replicates=replicates, seed=0)
        assert (result.exceed_count, result.null_mean.hex(), result.null_sd.hex()) == pin

    def test_memory_bound(self):
        # scoring each group's chunks as float rows through pair_counts peaked at
        # 1.13 MiB on this call; rank rows scored in bytes peak at 0.49 MiB
        data, policy = platelet_donations(), LrdPolicy("fraction_of_group_mean", 0.05, "lt")
        peak = traced_peak(lambda: regional_permutation_test(data, policy, seed=0))
        assert peak < 0.8 * 2**20

    def test_deterministic(self):
        a = regional_permutation_test(self.data, replicates=1000, seed=7)
        b = regional_permutation_test(self.data, replicates=1000, seed=7)
        assert a == b

    def test_observed_matches_regional_score(self):
        from lrdkendall import regional_test

        policy = LrdPolicy(value=0.5)
        result = regional_permutation_test(self.data, policy, replicates=500, seed=0)
        assert result.s_observed == regional_test(self.data, policy).s_regional

    @pytest.mark.parametrize("policy", [
        LrdPolicy(value=0.2), LrdPolicy(value=0.0, boundary="lt"),
        LrdPolicy(kind="fraction_of_group_mean", value=0.05, boundary="lt"),
    ])
    def test_observed_is_the_regional_score_of_the_panel(self, policy):
        data = platelet_donations()
        result = regional_permutation_test(data, policy, replicates=10, seed=0)
        assert result.s_observed == regional_test(data, policy).s_regional

    def test_mirrored_groups_give_p_one(self):
        times = np.arange(4.0)
        up = [1.0, 2.0, 3.0, 4.0]
        data = RegionalDataset(groups={
            "up": Series(times, up),
            "down": Series(times, up[::-1]),
        })
        result = regional_permutation_test(data, replicates=300, seed=1)
        assert result.s_observed == 0
        assert result.p == 1.0

    def test_add_one_bounds(self):
        result = regional_permutation_test(self.data, replicates=400, seed=2)
        assert 0.0 < result.p <= 1.0
