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

from test_core import DBP


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
        u = np.array([0, 1, 2, 3, 4])
        assert tau_extended(10, u, 5) == (1.0, 1.0)

    def test_zero_score(self):
        tau_a, tau_b = tau_extended(0, np.array([1, 0, 1]), 3)
        assert tau_a == 0.0 and tau_b == 0.0

    def test_fully_tied_has_no_tau_b(self):
        tau_a, tau_b = tau_extended(0, np.zeros(4, dtype=int), 4)
        assert tau_a == 0.0
        assert tau_b is None

    def test_dbp_values(self):
        # sum(u) = 40 over 45 pairs; denominator sqrt(40 * 45)
        tau_a, tau_b = tau_extended(14, np.full(10, 4), 10)
        assert tau_a == pytest.approx(14 / 45)
        assert tau_b == pytest.approx(14 / math.sqrt(40 * 45))
        assert tau_b == pytest.approx(0.33, abs=5e-4)


class TestRunTest:
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

    def test_thresholds_configurable(self):
        series = Series.from_values(DBP)
        strict = run_test(series, LrdRule(d=0.6), small_n=20, heavy_ties=0.1)
        assert "small_n" in strict.warnings
        assert "heavy_ties" in strict.warnings

    def test_one_directional_routes_to_permutation(self):
        series = Series.from_values(DBP)
        with pytest.raises(AnalyticUnavailable):
            run_test(series, LrdRule(d=0.6, direction="positive_only"))
