"""Pair scoring, the extended statistic, and exceedance counts."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from lrdkendall import (
    AnalyticUnavailable,
    InputError,
    InsufficientData,
    LrdRule,
    RegionalDataset,
    Series,
    pair_score,
    permutation_test,
    regional_permutation_test,
    run_test,
    s_extended,
    tie_proportion,
    uv_counts,
)
from lrdkendall import core
from lrdkendall.core import BOUNDARIES, DIRECTIONS, MAX_SERIES_N, _check_length, pair_counts

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


#: the shortest series the length cap (MAX_SERIES_N) refuses
TOO_LONG_N = 11_240


def too_long() -> Series:
    """The shortest series every single-series entry point refuses."""
    return Series.from_values(np.arange(TOO_LONG_N, dtype=float))


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

    def test_non_finite_pair_refused(self):
        for xi, xj in ((float("nan"), 1.0), (1.0, float("inf"))):
            with pytest.raises(InputError, match="finite inputs"):
                pair_score(xi, xj, LrdRule(d=0.0))

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
        s = Series.from_values([3.0, 1.0, 2.0])
        assert list(s.times) == [0.0, 1.0, 2.0]
        assert len(s) == 3

    def test_rejects_bad_input(self):
        with pytest.raises(InsufficientData):
            Series.from_values([1.0])
        with pytest.raises(InputError):
            Series.from_values([1.0, float("nan")])
        with pytest.raises(InputError, match=r"rejected\), got 1\.0 then 1\.0$"):
            Series(times=[0.0, 1.0, 1.0], values=[1.0, 2.0, 3.0])
        with pytest.raises(InputError, match=r"rejected\), got 1\.0 then 0\.0$"):
            Series(times=[1.0, 0.0], values=[1.0, 2.0])
        with pytest.raises(InputError):
            Series(times=[0.0, 1.0, 2.0], values=[1.0, 2.0])
        with pytest.raises(InputError, match="one-dimensional"):
            Series(times=[[0.0, 1.0]], values=[[1.0, 2.0]])

    def test_times_beyond_the_float_range(self):
        # their difference overflows; a RuntimeWarning fails the test
        s = Series(times=[-1e308, 1e308], values=[1.0, 2.0])
        assert list(s.times) == [-1e308, 1e308]

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


class TestPairCounts:
    def test_extreme_values_score_without_warnings(self):
        # differences of +/-1e308 overflow to inf, which exceeds every finite d;
        # the subtraction used to leak two numpy overflow RuntimeWarnings
        values = [1e308, -1e308, 1e308, -1e308, 5.0]
        rule = LrdRule(d=0.5)
        want = sum(pair_score(values[i], values[j], rule)
                   for i in range(len(values)) for j in range(i + 1, len(values)))
        assert run_test(Series.from_values(values), rule).s_extended == want == -2

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (0, 5), (1, 0)])
    def test_degenerate_shapes_count_nothing(self, shape):
        m, n = shape
        for rule in (LrdRule(d=0.0), LrdRule(d=0.0, boundary="lt")):
            got = pair_counts(np.zeros(shape), rule)
            assert [(a.shape, a.dtype) for a in got] == [((m,), np.int64)] * 2 + [((m, n), np.int64)] * 2
            assert not any(a.any() for a in got)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(1, 10), (1, 300), (4, 10)])
    def test_non_finite_values_refused(self, bad, shape):
        # a single row below and above the sort route's crossover, and a batch
        rows = np.zeros(shape)
        rows[-1, 3] = bad
        for rule in (LrdRule(d=0.5), LrdRule(d=0.0, boundary="lt", direction="positive_only")):
            with pytest.raises(InputError, match="finite"):
                pair_counts(rows, rule)

    def test_several_lag_blocks_match_brute_force(self):
        # two rows of n = 400 take 40 lags per block, so the pairs span ten blocks;
        # half-unit values put many differences exactly on d
        rows = np.round(np.random.default_rng(1).normal(size=(2, 400)) * 3) / 2
        for d in (0.0, 0.5, 1.0):
            for boundary in ("leq", "lt"):
                s, scoring, u, v = pair_counts(rows, LrdRule(d=d, boundary=boundary))
                for k, x in enumerate(rows):
                    diff = x[None, :] - x[:, None]  # diff[i, j] = x[j] - x[i]
                    hit = (diff > d if boundary == "leq" else diff >= d) & ~np.eye(400, dtype=bool)
                    up = np.triu(hit & (diff > 0), 1).sum()
                    down = np.triu(hit.T & (diff < 0), 1).sum()
                    assert (s[k], scoring[k]) == (up - down, up + down)
                    assert np.array_equal(u[k], hit.sum(axis=0))
                    assert np.array_equal(v[k], hit.sum(axis=1))

    def test_single_series_holds_no_n_squared_array(self):
        # the sort route, up to the length cap, under symmetric and one-directional rules
        for n, rule in ((3000, LrdRule(d=0.5)), (MAX_SERIES_N, LrdRule(d=0.5)),
                        (MAX_SERIES_N, LrdRule(d=0.0, boundary="lt")),
                        (3000, LrdRule(d=0.5, direction="positive_only"))):
            rows = np.random.default_rng(0).normal(size=(1, n))
            tracemalloc.start()
            try:
                pair_counts(rows, rule)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20  # an n x n float array alone would be 72 MB at n = 3000

    def test_batched_chunks_hold_no_pair_tensor(self):
        # the chunk shapes of the simulation (2500 rows) and permutation (4096 rows) engines
        for m, n in ((2500, 30), (4096, 30)):
            rows = np.random.default_rng(0).normal(size=(m, n))
            for rule in (LrdRule(d=0.5), LrdRule(d=0.0, boundary="lt")):
                tracemalloc.start()
                try:
                    pair_counts(rows, rule)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < m * n * n * 8 / 4  # one (m, n, n) float tensor is 18 MB at (2500, 30)


def oracle_counts(values, rule):
    """(s, scoring, u, v) of one series under a symmetric rule, by a plain double loop."""
    n = len(values)
    up = down = 0
    u, v = [0] * n, [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            diff = values[j] - values[i]
            rises = diff > rule.d if rule.boundary == "leq" else diff >= rule.d
            falls = -diff > rule.d if rule.boundary == "leq" else -diff >= rule.d
            if rises:
                up += diff > 0
                u[j] += 1
                v[i] += 1
            if falls:
                down += diff < 0
                u[i] += 1
                v[j] += 1
    return up - down, up + down, u, v


class TestCounterWidth:
    """The lag kernel's counters are bytes at every shape: a cell gains at most 1
    per step, and core._lag_block takes enough lags per step to keep the steps
    below 256, where a byte would wrap silently."""

    RULES = (LrdRule(d=0.0), LrdRule(d=1.0, boundary="lt"), LrdRule(d=0.0, boundary="lt"))

    def assert_oracle(self, distinct, pick):
        """pair_counts of the rows distinct[pick] against the double loop, row by row."""
        for rule in self.RULES:
            got = pair_counts(distinct[pick], rule)
            assert all(a.dtype == np.int64 for a in got)
            want = [oracle_counts(x.tolist(), rule) for x in distinct]  # floats overflow to inf quietly
            for k, row in enumerate(pick):
                s, scoring, u, v = want[row]
                assert (got[0][k], got[1][k]) == (s, scoring)
                assert got[2][k].tolist() == u and got[3][k].tolist() == v

    @pytest.mark.parametrize("n", [256, 257, 300])
    def test_batched_rows_on_both_sides_of_the_switch(self, n):
        # 128 rows take one lag per step at n = 256, so 255 steps, where the last
        # value of a monotone row counts 255; at 257 and 300 they take two lags
        # per step, since one would need 256 or more steps
        assert core._lag_block(n, 128) == (1 if n == 256 else 2)
        distinct = np.array([np.arange(n), -np.arange(n),
                             np.random.default_rng(n).integers(0, 20, n)], dtype=float)
        pick = np.arange(128) % 3
        assert pair_counts(distinct[pick], LrdRule(d=0.0))[2].max() == n - 1
        self.assert_oracle(distinct, pick)

    @pytest.mark.parametrize("n", [30, 257])
    def test_batched_duplicates_with_overflowing_differences(self, n):
        # lt at 0 finds its equal pairs from the totals; +/-1e308 among a few
        # duplicated values make differences that overflow to +/-inf, not NaN
        rng = np.random.default_rng(n)
        distinct = rng.integers(0, 4, (3, n)).astype(float)
        distinct[rng.random((3, n)) < 0.2] = 1e308
        distinct[rng.random((3, n)) < 0.2] = -1e308
        self.assert_oracle(distinct, np.arange(64) % 3)

    def test_single_series_of_duplicates_under_lt_at_zero(self):
        # below the sort route's crossover, 128 lags per step; each value of the
        # run of 9s at the end exceeds all 254 others under lt at 0
        x = np.concatenate([np.random.default_rng(6).integers(0, 4, 200), np.full(55, 9)])
        self.assert_oracle(x[None, :].astype(float), [0])


class TestSortRoute:
    def assert_same(self, x, rules):
        """pair_counts of x alone, which must take the sort route, equals row 0
        of pair_counts of [x, x], which always takes the lag kernel: s and
        scoring under every rule, u and v under symmetric rules, where alone
        they are defined."""
        for rule in rules:
            with mock.patch.object(core, "_series_counts", wraps=core._series_counts) as sort:
                routed = pair_counts(x[None, :], rule)
            assert sort.call_count == 1
            compared = 4 if rule.direction == "symmetric" else 2
            for got, want in zip(routed[:compared], pair_counts(np.vstack([x, x]), rule)):
                assert got.dtype == want.dtype and np.array_equal(got, want[:1])

    def test_long_walk_matches_the_lag_kernel(self):
        x = np.round(np.cumsum(np.random.default_rng(3).normal(size=3000)), 1) + 95
        self.assert_same(x, [LrdRule(d=d, boundary=boundary)
                             for d in (0.0, 0.1, 0.6) for boundary in ("leq", "lt")])

    @pytest.mark.parametrize("direction", ["positive_only", "negative_only"])
    def test_one_directional_rules_take_the_sort_route(self, direction):
        rng = np.random.default_rng(4)
        walk = np.round(np.cumsum(rng.normal(size=3000)), 1) + 95
        extremes = np.round(rng.normal(size=600), 1)
        extremes[rng.random(600) < 0.1] = 1e308
        extremes[rng.random(600) < 0.1] = -1e308
        near_1e16 = 1e16 + 2.0 * rng.integers(0, 300, 600)
        for x in (walk, extremes, near_1e16):
            self.assert_same(x, [LrdRule(d=d, boundary=boundary, direction=direction)
                                 for d in (0.0, 0.6, 3.0) for boundary in BOUNDARIES])

    def test_overflowing_differences_exceed_every_d(self):
        # +/-1e308 among small values: differences overflow to +/-inf, and a
        # RuntimeWarning fails the test
        rng = np.random.default_rng(4)
        x = np.round(rng.normal(size=600), 1)
        x[rng.random(600) < 0.1] = 1e308
        x[rng.random(600) < 0.1] = -1e308
        self.assert_same(x, [LrdRule(d=d, boundary=boundary)
                             for d in (0.0, 0.5, 1e308) for boundary in ("leq", "lt")])

    def test_guesses_are_corrected_in_a_few_steps_where_one_ulp_exceeds_d(self):
        # near 1e16 one ulp is 2, so x - d rounds onto another value for most d
        x = 1e16 + 2.0 * np.random.default_rng(5).integers(0, 300, 600)
        for d in (0.0, 0.5, 1.0, 2.0, 3.0):
            for boundary in ("leq", "lt"):
                rule = LrdRule(d=d, boundary=boundary)
                self.assert_same(x, [rule])
                with mock.patch.object(core, "_exceeds", wraps=core._exceeds) as tests:
                    core._series_counts(x, rule)
                # four checks that find each guess right, and at most a step or two
                assert tests.call_count <= 6


def lag_kernel_counts(rows, rule):
    """(s, scoring) of each row of a matrix of values, by pair_counts of the rows
    and a copy of the first, so that even a single row takes the lag kernel."""
    s, scoring, _, _ = pair_counts(np.vstack([rows, rows[:1]]), rule)
    return s[:-1], scoring[:-1]


class TestRankScores:
    """Rows scored in rank space, by _rank_scores over _rank_bounds, against the
    lag kernel of pair_counts over the same rows of values."""

    def assert_counts(self, values, orders, rule, merges):
        """_rank_scores of values[orders] gives the lag kernel's s as up - down and
        its scoring pairs as up + down, in int64, after ``merges`` merged rows;
        counting both sides and, under a symmetric rule, the +1 side alone."""
        rank, low, high = core._rank_bounds(values, rule)
        s, scoring = lag_kernel_counts(values[orders], rule)
        for given in {None, core._symmetric_scoring(rank, low, rule)}:
            with mock.patch.object(core, "_merged_pairs", wraps=core._merged_pairs) as merge:
                up, down = core._rank_scores(rank[orders], low, high, given)
            assert merge.call_count == merges
            assert up.dtype == down.dtype == np.int64
            assert np.array_equal(up - down, s) and np.array_equal(up + down, scoring)

    @pytest.mark.parametrize("n", [core._MERGE_MIN_N - 1, core._MERGE_MIN_N])
    @pytest.mark.parametrize("kind", ["walk", "extremes", "near 1e16"])
    def test_rows_on_both_sides_of_the_crossover(self, n, kind):
        # from _MERGE_MIN_N on, each row of a batch is merged; the lag loop takes shorter ones
        rng = np.random.default_rng(n)
        values = np.round(np.cumsum(rng.normal(size=n)), 1)
        if kind == "extremes":  # differences overflow to +/-inf
            values[rng.random(n) < 0.1] = 1e308
            values[rng.random(n) < 0.1] = -1e308
        elif kind == "near 1e16":  # one ulp is 2, more than every d below
            values = 1e16 + 2.0 * rng.integers(0, 300, n)
        orders = rng.permuted(np.tile(np.arange(n), (2, 1)), axis=1)
        for rule in (LrdRule(d=d, boundary=boundary, direction=direction)
                     for d in (0.0, 1.0) for boundary in BOUNDARIES for direction in DIRECTIONS):
            self.assert_counts(values, orders, rule, 2 if n >= core._MERGE_MIN_N else 0)

    @pytest.mark.parametrize("n", [core._ROW_MERGE_MIN_N - 1, core._ROW_MERGE_MIN_N,
                                   core._MERGE_MIN_N - 1, core._MERGE_MIN_N])
    @pytest.mark.parametrize("m", [1, 2])
    def test_one_predicate_routes_lone_rows_and_batches(self, n, m):
        # a lone row is merged from _ROW_MERGE_MIN_N on, the rows of a batch from _MERGE_MIN_N
        rng = np.random.default_rng(n)
        values = np.round(np.cumsum(rng.normal(size=n)), 1)
        orders = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
        merged = n >= (core._ROW_MERGE_MIN_N if m == 1 else core._MERGE_MIN_N)
        for rule in (LrdRule(d=0.6), LrdRule(d=0.0, boundary="lt"),
                     LrdRule(d=0.6, direction="positive_only")):
            self.assert_counts(values, orders, rule, m if merged else 0)

    @pytest.mark.parametrize("n", [core._SORT_MIN_N, core._ROW_MERGE_MIN_N - 1,
                                   core._ROW_MERGE_MIN_N])
    def test_a_single_series_is_merged_by_the_same_predicate(self, n):
        # pair_counts of one series reaches _rank_scores as one row
        x = np.round(np.cumsum(np.random.default_rng(n).normal(size=n)), 1)
        rule = LrdRule(d=0.6)
        with mock.patch.object(core, "_merged_pairs", wraps=core._merged_pairs) as merge:
            s, scoring, _, _ = pair_counts(x[None, :], rule)
        assert merge.call_count == (1 if n >= core._ROW_MERGE_MIN_N else 0)
        want_s, want_scoring = lag_kernel_counts(x[None, :], rule)
        assert np.array_equal(s, want_s) and np.array_equal(scoring, want_scoring)

    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_byte_counters_on_both_sides_of_their_switch(self, n):
        # 128 rows take one lag per step up to n = 256, where the first cell of a
        # monotone row counts 255 pairs, and two lags per step from 257 on. The
        # ranks are bytes up to 255 distinct values; from 256 the top bound is 256.
        values = np.arange(n, dtype=float)
        distinct = np.array([np.arange(n), np.arange(n)[::-1],
                             np.random.default_rng(n).permutation(n)])
        want = [oracle_s(list(values[order])) for order in distinct]
        assert want[:2] == [n * (n - 1) // 2, -n * (n - 1) // 2]
        pick = np.arange(128) % 3
        rank, low, high = core._rank_bounds(values, LrdRule(d=0.0))
        up, down = core._rank_scores(rank[distinct[pick]], low, high)
        assert (up - down).tolist() == [want[k] for k in pick]
        assert (up + down == n * (n - 1) // 2).all()  # distinct values, d = 0: every pair scores

    @pytest.mark.parametrize("n", [999, 1000, 1499, 1500])
    @pytest.mark.parametrize("m", [1, 2])
    def test_symmetric_rules_count_one_side(self, n, m):
        # under a symmetric rule the scoring pairs are fixed by the values, so
        # the merge takes no high bound and the byte loop no >= compare; a
        # one-directional rule counts both sides on either route
        rng = np.random.default_rng(n)
        values = np.round(np.cumsum(rng.normal(size=n)), 1)
        orders = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
        merged = n >= (core._ROW_MERGE_MIN_N if m == 1 else core._MERGE_MIN_N)
        for rule, sides in ((LrdRule(d=0.6), 1), (LrdRule(d=0.0, boundary="lt"), 1),
                            (LrdRule(d=0.6, direction="positive_only"), 2),
                            (LrdRule(d=0.6, direction="negative_only"), 2)):
            rank, low, high = core._rank_bounds(values, rule)
            scoring = core._symmetric_scoring(rank, low, rule)
            assert (scoring is None) == (sides == 2)
            with mock.patch.object(core, "_merged_pairs", wraps=core._merged_pairs) as merge, \
                    mock.patch.object(np, "greater_equal", wraps=np.greater_equal) as compare:
                up, down = core._rank_scores(rank[orders], low, high, scoring)
            assert merge.call_count == (m if merged else 0)
            assert all(len(call.args) == 1 + sides for call in merge.call_args_list)
            assert (compare.call_count > 0) == (sides == 2 and not merged)
            assert up.dtype == down.dtype == np.int64
            s, want_scoring = lag_kernel_counts(values[orders], rule)
            assert np.array_equal(up - down, s) and np.array_equal(up + down, want_scoring)

    def test_callers_pass_the_symmetric_scoring(self):
        # a single series and both permutation scorings of one row at n = 1000 are
        # merged, one side under a symmetric rule and both under a one-directional one
        x = np.round(np.cumsum(np.random.default_rng(7).normal(size=1000)), 1)
        for rule, sides in ((LrdRule(d=0.6), 1), (LrdRule(d=0.6, direction="positive_only"), 2)):
            with mock.patch.object(core, "_merged_pairs", wraps=core._merged_pairs) as merge:
                s = pair_counts(x[None, :], rule)[0]
                result = permutation_test(Series.from_values(x), rule, replicates=1, seed=0)
            assert result.s_observed == s[0]
            assert [len(call.args) for call in merge.call_args_list] == [1 + sides] * 3


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
        series = too_long()
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
        _check_length(TOO_LONG_N - 1)  # one shorter passes
        series = too_long()
        rule = LrdRule(d=0.0)
        for call in (
            s_extended,
            tie_proportion,
            uv_counts,
            run_test,
            lambda s, r: permutation_test(s, r, replicates=10, method="sampled"),
        ):
            with pytest.raises(InputError, match=f"n = {TOO_LONG_N} is longer than"):
                call(series, rule)

    def test_regional_permutation_test_refuses_long_groups(self):
        series = too_long()
        data = RegionalDataset(groups={"a": series, "b": Series(series.times, -series.values)})
        with pytest.raises(InputError, match=f"n = {TOO_LONG_N} is longer than"):
            regional_permutation_test(data, replicates=10)
