"""Permutation inference: exhaustive, sampled, and the grouped variant."""

import numpy as np
import pytest

from lrdkendall import (
    InputError,
    LrdPolicy,
    LrdRule,
    RegionalDataset,
    Series,
    permutation_test,
    platelet_donations,
    regional_permutation_test,
    run_test,
)

from lrdkendall.permutation import MAX_REPLICATES

from test_core import DBP, over_budget


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

    def test_replicates_validated(self):
        with pytest.raises(InputError):
            permutation_test(Series.from_values(DBP), replicates=0)
        with pytest.raises(InputError):
            permutation_test(Series.from_values(DBP), method="guess")

    def test_over_memory_budget_rejected(self):
        series = over_budget()
        with pytest.raises(InputError, match=f"n = {len(series)} needs about"):
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

    def test_deterministic(self):
        a = regional_permutation_test(self.data, replicates=1000, seed=7)
        b = regional_permutation_test(self.data, replicates=1000, seed=7)
        assert a == b

    def test_observed_matches_regional_score(self):
        from lrdkendall import regional_test

        policy = LrdPolicy(value=0.5)
        result = regional_permutation_test(self.data, policy, replicates=500, seed=0)
        assert result.s_observed == regional_test(self.data, policy).s_regional

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
