"""Normal-approximation inference and the composed single-series test."""

import math

import numpy as np
import pytest

from lrdkendall import (
    AnalyticUnavailable,
    InputError,
    LrdRule,
    Series,
    p_value,
    run_test,
    tau_extended,
    z_score,
)

from test_core import DBP, too_long


class TestZScore:
    def test_worked_values(self):
        assert z_score(41, 315.67) == pytest.approx(40 / math.sqrt(315.67))
        assert z_score(-5, 25) == pytest.approx(-0.8)
        assert z_score(0, 100) == 0.0

    def test_continuity_can_be_disabled(self):
        assert z_score(41, 315.67, continuity=False) == pytest.approx(41 / math.sqrt(315.67))

    def test_correction_shrinks_toward_zero(self):
        assert abs(z_score(7, 30)) < abs(z_score(7, 30, continuity=False))
        assert abs(z_score(-7, 30)) < abs(z_score(-7, 30, continuity=False))

    def test_unit_score_collapses_to_zero(self):
        # |S|=1 is swallowed whole by the correction, so z=0 without S=0;
        # only the converse implication holds in general
        assert z_score(1, 100.0) == 0.0
        assert z_score(-1, 100.0) == 0.0

    def test_zero_variance(self):
        assert z_score(0, 0.0) == 0.0
        assert z_score(5, 0.0) == math.inf
        assert z_score(-5, 0.0) == -math.inf
        with pytest.raises(InputError):
            z_score(5, -1.0)

    @pytest.mark.parametrize("continuity", [True, False])
    def test_array_matches_scalar_calls(self, continuity):
        scores = np.array([0, 1, -1, 5, -5, 41, 0, 1, -1, 5, -5, 2])
        variances = np.array([0.0] * 5 + [315.67, 4.0, 4.0, 4.0, 25.0, 25.0, 1e-300])
        z = z_score(scores, variances, continuity=continuity)
        assert isinstance(z, np.ndarray) and z.shape == scores.shape
        for zk, sk, vk in zip(z, scores, variances):
            want = z_score(int(sk), float(vk), continuity=continuity)
            assert isinstance(want, float)
            assert np.float64(zk).tobytes() == np.float64(want).tobytes()

    def test_array_zero_variance_rule(self):
        z = z_score(np.array([0, 1, -1, 5, -5]), 0.0)
        assert z.tolist() == [0.0, math.inf, -math.inf, math.inf, -math.inf]

    def test_non_finite_score_is_refused(self):
        # a NaN score used to come out as z = 0, so p = 1: "no trend"
        for bad in (math.nan, math.inf, -math.inf, np.array([3.0, math.nan])):
            for variance in (4.0, 0.0):
                with pytest.raises(InputError, match="score must be finite"):
                    z_score(bad, variance)
        assert z_score(0, 0.0) == 0.0  # a sure tie still standardizes to 0
        assert z_score(np.array([0, 2]), 0.0).tolist() == [0.0, math.inf]

    def test_refusals_of_long_arrays_stay_short(self):
        # both messages used to print the whole array: 500 026 characters for the first
        cases = [
            (([math.nan] * 10**5, 1.0),
             "score must be finite, got an array of shape (100000,) with nan at [0]"),
            ((1.0, [1.0] * (10**5 - 1) + [-1.0]),
             "variance must be finite and >= 0, got an array of shape (100000,) with -1.0 at [99999]"),
        ]
        for args, message in cases:
            with pytest.raises(InputError) as refused:
                z_score(*args)
            assert str(refused.value) == message and len(message) < 200

    def test_array_rejects_any_bad_variance(self):
        for bad in (np.array([1.0, -1.0]), np.array([1.0, math.nan]), np.array([math.inf, 1.0])):
            with pytest.raises(InputError):
                z_score(np.array([3, 3]), bad)


class TestPValue:
    def test_two_sided_reference_points(self):
        assert p_value(0.0) == 1.0
        assert p_value(2.2514) == pytest.approx(0.0244, abs=5e-5)
        assert p_value(1.959964) == pytest.approx(0.05, abs=1e-6)

    def test_sidedness_decomposition(self):
        for z in (-2.3, -0.4, 0.0, 1.1, 3.0):
            hi = p_value(z, "greater")
            lo = p_value(z, "less")
            assert hi + lo == pytest.approx(1.0)
            assert p_value(z) == pytest.approx(2 * min(hi, lo))

    def test_infinite_z(self):
        assert p_value(math.inf) == 0.0
        assert p_value(-math.inf, "greater") == 1.0
        assert p_value(-math.inf, "less") == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            p_value(float("nan"))
        with pytest.raises(InputError):
            p_value(1.0, "both")


class TestTauExtended:
    def test_perfect_concordance(self):
        assert tau_extended(10, 10, 5) == (1.0, 1.0)

    def test_zero_score(self):
        tau_a, tau_b = tau_extended(0, 2, 3)
        assert tau_a == 0.0 and tau_b == 0.0

    def test_fully_tied_has_no_tau_b(self):
        tau_a, tau_b = tau_extended(0, 0, 4)
        assert tau_a == 0.0
        assert tau_b is None

    def test_needs_two_observations(self):
        with pytest.raises(InputError, match="need n >= 2"):
            tau_extended(0, 0, 1)

    def test_dbp_values(self):
        # 40 scoring pairs out of 45; denominator sqrt(40 * 45)
        tau_a, tau_b = tau_extended(14, 40, 10)
        assert tau_a == pytest.approx(14 / 45)
        assert tau_b == pytest.approx(14 / math.sqrt(40 * 45))
        assert tau_b == pytest.approx(0.33, abs=5e-4)


class TestRunTest:
    def test_over_memory_budget_rejected(self):
        series = too_long()
        with pytest.raises(InputError, match=f"n = {len(series)} is longer than"):
            run_test(series, LrdRule(d=0.0))

    def test_dbp_plain(self):
        result = run_test(Series.from_values(DBP), LrdRule(d=0.0))
        assert result.s_extended == 15
        assert result.variance == pytest.approx(125.0)
        assert result.z == pytest.approx(14 / math.sqrt(125.0))
        assert result.p == pytest.approx(0.2105, abs=5e-5)
        assert result.var_classical == pytest.approx(125.0)
        assert result.warnings == ()

    def test_dbp_thresholded(self):
        result = run_test(Series.from_values(DBP), LrdRule(d=0.6))
        assert result.s_extended == 14
        assert result.variance == pytest.approx(356 / 3)
        assert result.tau_a == pytest.approx(14 / 45)
        assert result.tau_b == pytest.approx(0.33, abs=5e-4)
        assert result.tie_proportion == pytest.approx(5 / 45)
        assert result.n == 10
        assert result.rule == LrdRule(d=0.6)

    def test_tau_b_counts_exact_ties_once_under_lt(self):
        # at d = 0 "lt" counts the tied pair twice in u; tau_b must not
        series = Series.from_values([1.0, 1.0, 2.0])
        lt = run_test(series, LrdRule(d=0.0, boundary="lt"))
        leq = run_test(series, LrdRule(d=0.0))
        assert leq.tau_b == pytest.approx(2 / math.sqrt(6))
        assert lt.tau_b == leq.tau_b

    def test_default_rule_is_classical(self):
        series = Series.from_values(DBP)
        assert run_test(series).s_extended == run_test(series, LrdRule(d=0.0)).s_extended

    def test_sidedness_carried_through(self):
        series = Series.from_values(DBP)
        up = run_test(series, LrdRule(d=0.0), sidedness="greater")
        down = run_test(series, LrdRule(d=0.0), sidedness="less")
        assert up.sidedness == "greater"
        assert up.p + down.p == pytest.approx(1.0)
        assert up.p < down.p  # the series drifts upward

    def test_negation_flips_sign_not_p(self):
        series = Series.from_values(DBP)
        flipped = Series.from_values([-x for x in DBP])
        a = run_test(series, LrdRule(d=0.6))
        b = run_test(flipped, LrdRule(d=0.6))
        assert b.s_extended == -a.s_extended
        assert b.z == pytest.approx(-a.z)
        assert b.p == pytest.approx(a.p)

    def test_continuity_toggle(self):
        series = Series.from_values(DBP)
        with_cc = run_test(series, LrdRule(d=0.0))
        without = run_test(series, LrdRule(d=0.0), continuity=False)
        assert without.z == pytest.approx(15 / math.sqrt(125.0))
        assert abs(with_cc.z) < abs(without.z)
        assert with_cc.continuity and not without.continuity

    def test_small_sample_warning(self):
        result = run_test(Series.from_values([1.0, 3.0, 2.0, 5.0, 4.0]))
        assert "small_n" in result.warnings

    def test_heavy_ties_warning(self):
        values = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0]
        result = run_test(Series.from_values(values), LrdRule(d=1.0))
        assert result.tie_proportion >= 0.6
        assert "heavy_ties" in result.warnings

    def test_degenerate_variance_warning(self):
        result = run_test(Series.from_values([2.0] * 12))
        assert result.variance == 0.0
        assert result.z == 0.0
        assert result.p == 1.0
        assert "degenerate_variance" in result.warnings

    def test_one_directional_routes_to_permutation(self):
        series = Series.from_values(DBP)
        for direction in ("positive_only", "negative_only"):
            with pytest.raises(AnalyticUnavailable, match="permutation test"):
                run_test(series, LrdRule(d=0.6, direction=direction))
