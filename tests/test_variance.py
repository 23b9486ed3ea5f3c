"""Variance estimators: classical, exceedance-based, moment-assembled."""

import numpy as np
import pytest

from lrdkendall import (
    InputError,
    InvalidMoments,
    LrdRule,
    MomentSet,
    Series,
    moment_estimates,
    tie_groups,
    uv_counts,
    validate_moments,
    var_classical,
    var_extended_from_moments,
    var_extended_hat,
    var_theoretical,
)

from lrdkendall.core import pair_counts

from test_core import DBP

NULL_MOMENTS = MomentSet(1 / 3, 1 / 3, 1 / 6, 1 / 2)


class TestTieGroups:
    def test_no_ties(self):
        assert tie_groups([1.0, 2.0, 3.0]) == ()

    def test_extents_sorted(self):
        assert tie_groups([2.0, 1.0, 2.0, 5.0, 5.0, 5.0]) == (2, 3)

    def test_same_tuple_of_ints_as_a_loop_over_the_counts(self):
        # a 0.1-grid walk of 4000 steps: several hundred groups, of many sizes
        values = np.round(np.cumsum(np.random.default_rng(2).normal(size=4000)), 1)
        _, counts = np.unique(values, return_counts=True)
        want = tuple(sorted(int(c) for c in counts if c > 1))
        got = tie_groups(values)
        assert got == want and len(set(want)) > 5
        assert all(type(w) is int for w in got)


class TestVarClassical:
    def test_tie_free(self):
        assert var_classical(10) == pytest.approx(125.0)
        assert var_classical(4) == pytest.approx(26 / 3)

    def test_with_tie_group(self):
        # n=5 with one triple tied: (300 - 3*2*11) / 18
        assert var_classical(5, (3,)) == pytest.approx(13.0)

    def test_rejects_impossible_groups(self):
        with pytest.raises(InputError):
            var_classical(5, (6,))
        with pytest.raises(InputError):
            var_classical(5, (3, 3))
        with pytest.raises(InputError):
            var_classical(5, (1,))
        with pytest.raises(InputError):
            var_classical(1)


class TestVarExtendedHat:
    def test_tie_free_reduction(self):
        u = np.array([0, 1, 2, 3])
        v = np.array([3, 2, 1, 0])
        assert var_extended_hat(u, v) == pytest.approx(26 / 3)
        assert var_extended_hat(u, v) == var_classical(4)

    def test_fully_tied_is_zero(self):
        z = np.zeros(5, dtype=int)
        assert var_extended_hat(z, z) == 0.0

    def test_dbp_value(self):
        u, v = uv_counts(Series.from_values(DBP), LrdRule(d=0.6))
        assert var_extended_hat(u, v) == pytest.approx(356 / 3)

    def test_mismatched_sums_rejected(self):
        with pytest.raises(InputError):
            var_extended_hat(np.array([1, 0]), np.array([0, 0]))
        with pytest.raises(InputError):  # one bad row in a batch is enough
            var_extended_hat(np.array([[1, 0], [1, 0]]), np.array([[0, 1], [0, 0]]))
        with pytest.raises(InputError):
            var_extended_hat(np.array([[1, 0]]), np.array([0, 1]))

    def test_rows_match_scalar_calls(self):
        values = np.array([DBP, DBP[::-1], [7.0] * len(DBP), np.arange(len(DBP), dtype=float)])
        for rule in (LrdRule(d=0.0), LrdRule(d=0.6), LrdRule(d=0.0, boundary="lt")):
            _, _, u, v = pair_counts(values, rule)
            batch = var_extended_hat(u, v)
            assert isinstance(batch, np.ndarray) and batch.shape == (len(values),)
            for k in range(len(values)):
                single = var_extended_hat(u[k], v[k])
                assert isinstance(single, float)
                assert np.float64(batch[k]).tobytes() == np.float64(single).tobytes()
            if rule.boundary == "leq":  # "lt" at d = 0 counts equal values
                assert batch[2] == 0.0  # a constant row is fully tied

    def test_equals_classical_with_exact_ties_at_zero(self):
        # at d=0 the estimator must reproduce the tie-corrected classical
        # variance exactly, whatever the duplicate structure
        for values in ([1.0, 2.0, 2.0, 3.0, 4.0], [1.0, 2.0, 2.0, 2.0, 3.0], [7.0] * 4):
            series = Series.from_values(values)
            u, v = uv_counts(series, LrdRule(d=0.0))
            want = var_classical(len(values), tie_groups(np.asarray(values)))
            assert var_extended_hat(u, v) == want


class TestMomentSet:
    def test_null_set_is_valid(self):
        validate_moments(NULL_MOMENTS)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidMoments):
            validate_moments(MomentSet(1.2, 1 / 3, 1 / 6, 1 / 2))
        with pytest.raises(InvalidMoments):
            validate_moments(MomentSet(1 / 3, -0.1, 1 / 6, 1 / 2))

    def test_ordering_chain_enforced(self):
        # above_one**2 may not exceed the smaller triple probability
        with pytest.raises(InvalidMoments):
            validate_moments(MomentSet(0.1, 0.1, 0.05, 0.9))
        # and above_below may not exceed above_one**2
        with pytest.raises(InvalidMoments):
            validate_moments(MomentSet(1 / 3, 1 / 3, 0.3, 1 / 2))

    def test_slack_tolerates_roundoff(self):
        eps = 5e-13
        validate_moments(MomentSet(0.25, 0.25, 0.25 + eps, 0.5))


class TestVarTheoretical:
    def test_null_moments_give_classical(self):
        for n in (4, 10, 30):
            assert var_theoretical(NULL_MOMENTS, n) == pytest.approx(var_classical(n))

    def test_validates_first(self):
        with pytest.raises(InvalidMoments):
            var_theoretical(MomentSet(0.1, 0.1, 0.2, 0.9), 10)

    def test_degenerate_moments_give_zero(self):
        assert var_theoretical(MomentSet(0.0, 0.0, 0.0, 0.0), 10) == 0.0

    @pytest.mark.parametrize("variance", [var_theoretical, var_extended_from_moments])
    def test_needs_two_observations(self, variance):
        with pytest.raises(InputError, match="need n >= 2"):
            variance(NULL_MOMENTS, 1)


class TestMomentEstimates:
    def test_needs_three_observations(self):
        with pytest.raises(InputError):
            moment_estimates(np.array([0, 1]), np.array([1, 0]))

    def test_mismatched_counts_rejected(self):
        # unequal lengths used to end in a bare numpy ValueError, and (m, n)
        # counts gave one moment set pooled over every row
        for u, v in (([1, 2, 3], [1, 2]), (np.ones((3, 4)), np.ones((3, 4))), (3, 3)):
            with pytest.raises(InputError, match="^u and v must be 1-d arrays of equal length"):
                moment_estimates(u, v)

    def test_tie_free_values(self):
        u = np.array([0, 1, 2, 3])
        v = np.array([3, 2, 1, 0])
        m = moment_estimates(u, v)
        # sum u(u-1) = 8 over n(n-1)(n-2) = 24; sum uv = 4 over 24
        assert m.above_two == pytest.approx(8 / 24)
        assert m.below_two == pytest.approx(8 / 24)
        assert m.above_below == pytest.approx(4 / 24)
        assert m.above_one == pytest.approx(6 / 12)

    def test_assembly_identity(self):
        # plugging empirical moments into the polynomial reproduces the
        # direct estimator to machine precision on arbitrary data
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            values = np.round(rng.normal(size=n), 1)
            d = float(rng.choice([0.0, 0.1, 0.3, 1.0]))
            u, v = uv_counts(Series.from_values(values), LrdRule(d=d))
            direct = var_extended_hat(u, v)
            assembled = var_extended_from_moments(moment_estimates(u, v), n)
            assert assembled == pytest.approx(direct, rel=1e-12, abs=1e-9)


# what no pairwise comparison of three values gives; at least one of the two
# estimators took each, or ended in a bare numpy error
NOT_COUNTS = {
    "unequal totals": ([2, 0, 0], [0, 0, 0]),
    "above n-1": ([3, 0, 0], [1, 1, 1]),
    "negative": ([-1, 1, 0], [0, 0, 0]),
    "fractional": ([1.7, 0.3, 1.0], [0.3, 1.7, 1.0]),
    "nan": ([np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]),
    "numeric strings": (["1", "0", "1"], ["0", "1", "1"]),
    "letters": (["a", "b", "c"], ["a", "b", "c"]),
    "bools": ([True, False, True], [False, True, True]),
    "int64 overflow": ([2**62] * 3, [2**62] * 3),
}


@pytest.mark.parametrize("u, v", NOT_COUNTS.values(), ids=NOT_COUNTS.keys())
def test_both_estimators_refuse_what_are_not_counts(u, v):
    # var_extended_hat(u, v) == var_extended_from_moments(moment_estimates(u, v), n)
    # is an identity, so the two sides take the same counts
    for estimator in (var_extended_hat, moment_estimates):
        with pytest.raises(InputError, match=r"^(u|v) (must hold|counts)|^inconsistent counts"):
            estimator(u, v)


def test_integral_floats_and_unsigned_ints_are_counts():
    u, v = [0, 1, 2, 3], [3, 2, 1, 0]
    for kind in (float, np.uint8):
        a, b = np.asarray(u, dtype=kind), np.asarray(v, dtype=kind)
        assert var_extended_hat(a, b) == var_extended_hat(u, v)
        assert moment_estimates(a, b) == moment_estimates(u, v)
