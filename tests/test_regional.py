"""Aggregation of per-group scores into one regional statistic."""

import math

import numpy as np
import pytest

from lrdkendall import (
    InputError,
    LrdPolicy,
    LrdRule,
    NoUsableData,
    RegionalDataset,
    Series,
    platelet_donations,
    regional_permutation_test,
    regional_test,
    run_test,
)

# (policy, S_r, Var, p) rows reproduced from the reference analysis of
# the bundled donation rates; the thresholded rows need boundary="lt"
GOLDEN_ROWS = [
    (LrdPolicy(kind="absolute", value=0.0, boundary="lt"), 41, 315.67, 0.0244),
    (LrdPolicy(kind="absolute", value=0.05, boundary="lt"), 45, 295.67, 0.0105),
    (LrdPolicy(kind="absolute", value=0.20, boundary="lt"), 41, 223.67, 0.0075),
    (LrdPolicy(kind="fraction_of_group_mean", value=0.05, boundary="lt"), 49, 239.67, 0.0019),
    (LrdPolicy(kind="fraction_of_group_mean", value=0.10, boundary="lt"), 41, 175.00, 0.0025),
]


def tiny_dataset():
    times = np.arange(4.0)
    return RegionalDataset(groups={
        "a": Series(times, [1.0, 2.0, 3.0, 4.0]),
        "b": Series(times, [2.0, 1.0, 4.0, 3.0]),
    })


class TestRegionalDataset:
    def test_requires_common_grid(self):
        with pytest.raises(InputError):
            RegionalDataset(groups={
                "a": Series([0.0, 1.0], [1.0, 2.0]),
                "b": Series([0.0, 2.0], [1.0, 2.0]),
            })

    def test_requires_groups(self):
        with pytest.raises(NoUsableData):
            RegionalDataset(groups={})

    def test_from_columns_basic(self):
        data = RegionalDataset.from_columns(
            labels=["a", "a", "b", "b"],
            times=[0.0, 1.0, 0.0, 1.0],
            values=[1.0, 2.0, 3.0, 4.0],
        )
        assert sorted(data.groups) == ["a", "b"]
        assert data.periods == 2
        assert data.excluded == ()

    def test_from_columns_excludes_incomplete(self):
        data = RegionalDataset.from_columns(
            labels=["a", "a", "b"],
            times=[0.0, 1.0, 0.0],
            values=[1.0, 2.0, 3.0],
        )
        assert list(data.groups) == ["a"]
        assert data.excluded == ("b",)

    def test_from_columns_excludes_missing_values(self):
        data = RegionalDataset.from_columns(
            labels=["a", "a", "b", "b"],
            times=[0.0, 1.0, 0.0, 1.0],
            values=[1.0, 2.0, np.nan, 4.0],
        )
        assert list(data.groups) == ["a"]
        assert data.excluded == ("b",)

    def test_from_columns_duplicate_cell_rejected(self):
        with pytest.raises(InputError):
            RegionalDataset.from_columns(
                labels=["a", "a"], times=[0.0, 0.0], values=[1.0, 2.0],
            )

    def test_from_columns_refuses_unequal_or_empty_columns(self):
        with pytest.raises(InputError, match="equal length"):
            RegionalDataset.from_columns(labels=["a", "a"], times=[0.0], values=[1.0, 2.0])
        with pytest.raises(NoUsableData, match="empty input"):
            RegionalDataset.from_columns(labels=[], times=[], values=[])

    def test_from_columns_grid_is_sorted_distinct_times(self):
        times = [3.5, -1.0, 0.0, 2.25, 2.25, 0.0, -1.0, 3.5]
        data = RegionalDataset.from_columns(
            labels=list("aaaabbbb"), times=times, values=range(8),
        )
        np.testing.assert_array_equal(data.groups["a"].times, np.unique(times))

    def test_from_columns_nan_time_rejected(self):
        with pytest.raises(InputError, match="NaN"):
            RegionalDataset.from_columns(
                labels=["a", "a", "b", "b"],
                times=[0.0, np.nan, 0.0, np.nan],
                values=[1.0, 2.0, 3.0, 4.0],
            )

    def test_all_excluded_is_an_error(self):
        with pytest.raises(NoUsableData):
            RegionalDataset.from_columns(
                labels=["a", "b"], times=[0.0, 1.0], values=[1.0, 2.0],
            )


class TestLrdPolicy:
    def test_absolute_rule(self):
        policy = LrdPolicy(kind="absolute", value=0.2)
        rule = policy.rule_for(Series.from_values([1.0, 2.0]))
        assert rule == LrdRule(d=0.2)

    def test_fraction_of_group_mean(self):
        policy = LrdPolicy(kind="fraction_of_group_mean", value=0.1)
        rule = policy.rule_for(Series.from_values([2.0, 4.0]))
        assert rule.d == pytest.approx(0.3)  # 10% of mean 3.0

    def test_fraction_of_mean_with_an_overflowing_sum(self):
        # the sum overflows: np.mean warned and gave inf, so d was refused
        series = Series.from_values([9e307, 1e308] * 5)
        for value, want in ((0.0, 0.0), (0.1, pytest.approx(0.1 * 9.5e307))):
            policy = LrdPolicy(kind="fraction_of_group_mean", value=value)
            assert policy.rule_for(series).d == want
            data = RegionalDataset(groups={"a": series, "b": series})
            assert regional_test(data, policy).per_group["a"].rule.d == want

    def test_fraction_of_mean_is_np_mean_where_that_is_finite(self):
        policy = LrdPolicy(kind="fraction_of_group_mean", value=0.05)
        for series in platelet_donations().groups.values():
            assert policy.rule_for(series).d == 0.05 * float(np.mean(series.values))

    def test_validation(self):
        with pytest.raises(InputError):
            LrdPolicy(kind="relative", value=0.1)
        with pytest.raises(InputError):
            LrdPolicy(value=-0.1)
        # refused where the policy is built, not blamed on the first group
        for kind in ("absolute", "fraction_of_group_mean"):
            with pytest.raises(InputError, match=r"^boundary must be one of \('leq', 'lt'\), got 'x'$"):
                LrdPolicy(kind=kind, value=0.05, boundary="x")


def negative_mean_dataset():
    """Group "a" has mean -1.5; group "b" a positive mean."""
    times = np.arange(5.0)
    return RegionalDataset(groups={
        "a": Series(times, [-1.0, -2.0, -1.5, -1.2, -1.8]),
        "b": Series(times, [1.0, 2.0, 3.0, 2.5, 4.0]),
    })


class TestGroupRules:
    @pytest.mark.parametrize("test", [regional_test, regional_permutation_test])
    def test_negative_fraction_of_mean_names_the_group(self, test):
        policy = LrdPolicy(kind="fraction_of_group_mean", value=0.1)
        with pytest.raises(InputError, match=r"^group 'a' with mean -1\.5: threshold d"):
            test(negative_mean_dataset(), policy)

    def test_negative_fraction_of_mean_names_the_series_mean(self):
        policy = LrdPolicy(kind="fraction_of_group_mean", value=0.1)
        with pytest.raises(InputError, match=r"^series with mean -1\.5: threshold d"):
            policy.rule_for(negative_mean_dataset().groups["a"])

    def test_zero_fraction_of_a_negative_mean_is_positive_zero(self):
        policy = LrdPolicy(kind="fraction_of_group_mean", value=0.0)
        for test in (regional_test, regional_permutation_test):
            result = test(negative_mean_dataset(), policy)
            assert result.p > 0
        d = regional_test(negative_mean_dataset(), policy).per_group["a"].rule.d
        assert d == 0.0 and math.copysign(1.0, d) == 1.0
        assert math.copysign(1.0, LrdRule(d=-0.0).d) == 1.0


class TestRegionalTest:
    def test_golden_rows(self):
        data = platelet_donations()
        for policy, s_r, var, p in GOLDEN_ROWS:
            result = regional_test(data, policy)
            assert result.s_regional == s_r
            assert result.variance == pytest.approx(var, abs=0.01)
            assert result.p == pytest.approx(p, abs=0.0005)

    def test_default_boundary_differs_at_zero(self):
        # with the default inclusive boundary the d=0 aggregate variance
        # drops by 2/3 per duplicate pair relative to the strict one
        result = regional_test(platelet_donations())
        assert result.s_regional == 41
        assert result.variance == pytest.approx(313.67, abs=0.01)

    def test_additivity(self):
        data = platelet_donations()
        result = regional_test(data)
        parts = [run_test(series) for series in data.groups.values()]
        assert result.s_regional == sum(r.s_extended for r in parts)
        assert result.variance == pytest.approx(sum(r.variance for r in parts))
        assert result.n_groups == 19
        assert result.periods == 5

    def test_single_group_matches_run_test(self):
        series = Series(np.arange(6.0), [3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        data = RegionalDataset(groups={"only": series})
        lone = regional_test(data, LrdPolicy(value=0.5))
        direct = run_test(series, LrdRule(d=0.5))
        assert lone.s_regional == direct.s_extended
        assert lone.variance == pytest.approx(direct.variance)
        assert lone.z == pytest.approx(direct.z)
        assert lone.p == pytest.approx(direct.p)

    def test_mirrored_groups_cancel(self):
        times = np.arange(5.0)
        up = [1.0, 2.0, 3.0, 4.0, 5.0]
        data = RegionalDataset(groups={
            "up": Series(times, up),
            "down": Series(times, up[::-1]),
        })
        result = regional_test(data)
        assert result.s_regional == 0
        assert result.z == 0.0
        assert result.p == 1.0

    def test_group_order_irrelevant(self):
        data = platelet_donations()
        reordered = RegionalDataset(
            groups=dict(sorted(data.groups.items(), reverse=True)),
            excluded=data.excluded,
        )
        a = regional_test(data)
        b = regional_test(reordered)
        assert a.s_regional == b.s_regional
        assert a.variance == pytest.approx(b.variance)
        assert a.p == pytest.approx(b.p)

    def test_small_product_warning(self):
        result = regional_test(tiny_dataset())
        assert "regional_small_product" in result.warnings  # 2 groups x 4 periods
        full = regional_test(platelet_donations())
        assert "regional_small_product" not in full.warnings  # 19 x 5 = 95

    def test_per_group_audit_trail(self):
        policy = LrdPolicy(kind="fraction_of_group_mean", value=0.05, boundary="lt")
        result = regional_test(platelet_donations(), policy)
        greece = result.per_group["Greece"]
        assert greece.rule.d == pytest.approx(0.05 * 13.596)
        assert set(result.per_group) == set(platelet_donations().groups)

    def test_sidedness(self):
        data = platelet_donations()
        up = regional_test(data, sidedness="greater")
        down = regional_test(data, sidedness="less")
        assert up.p + down.p == pytest.approx(1.0)
        assert up.p < 0.05  # donations trend upward overall

    def test_excluded_groups_reported(self):
        data = RegionalDataset.from_columns(
            labels=["a", "a", "a", "b", "b", "b", "c"],
            times=[0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0],
            values=[1.0, 2.0, 3.0, 3.0, 2.0, 1.0, 9.0],
        )
        result = regional_test(data)
        assert result.excluded_groups == ("c",)
