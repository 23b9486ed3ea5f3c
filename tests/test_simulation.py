"""Monte Carlo engine: per-cell determinism, null calibration, config IO."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from lrdkendall import (
    InputError,
    Scenario,
    density_for,
    expected_null_tie_proportion,
    load_grid_config,
    run_cell,
    run_grid,
)
from lrdkendall.seeds import MAX_REPLICATES
from lrdkendall.simulation import THREADS_ENV

REPO = Path(__file__).resolve().parents[1]


def make_scenario(**overrides):
    kwargs = dict(
        distribution="normal", theta=0.0, p=1.0, n=20, error_sd=10.0,
        d_ratios=(0.0, 1.0), replicates=2000, seed=99,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestScenario:
    def test_density_matches_scale(self):
        scenario = make_scenario()
        assert scenario.density.sd() == pytest.approx(10.0)

    def test_uniform_support_from_sd(self):
        density = density_for("uniform", 15.0)
        half_width = 15.0 * math.sqrt(3)
        assert density.support() == pytest.approx((-half_width, half_width))
        assert density.sd() == pytest.approx(15.0)

    def test_unknown_distribution(self):
        with pytest.raises(InputError):
            density_for("cauchy", 1.0)

    def test_validation(self):
        with pytest.raises(InputError):
            make_scenario(p=0.5)
        with pytest.raises(InputError):
            make_scenario(n=2)
        with pytest.raises(InputError):
            make_scenario(replicates=0)
        with pytest.raises(InputError):
            make_scenario(distribution="cauchy")
        # most used to be truncated, keyed as their own stream, or to end in
        # a bare ValueError, TypeError or OverflowError
        for change in [
            {"p": 1.7},
            {"n": 10.9},
            {"replicates": 1.5},
            {"seed": 0.5},
            {"theta": "x"},
            {"theta": math.nan},
            {"error_sd": math.inf},
            {"alpha_level": None},
            {"d_ratios": "01"},
            {"d_ratios": 5},
            {"d_ratios": (0.0, math.nan)},
            {"n": True},
            {"replicates": np.bool_(True)},
            {"seed": "5"},
            {"theta": 10**400},
            {"replicates": MAX_REPLICATES + 1},
        ]:
            with pytest.raises(InputError):
                make_scenario(**change)

    def test_overflowing_trend_rejected(self):
        # n ** p = inf used to give NaN deltas that counted as ties, so a
        # cell reported a rejection rate of 1.0 and garbage tie fractions
        for change in [
            {"theta": 1.0, "p": 400, "n": 10},
            {"theta": 0.0, "p": 400, "n": 10},
            {"theta": 1e300, "p": 2, "n": 10**5},
        ]:
            with pytest.raises(InputError, match="overflows"):
                make_scenario(**change)
        make_scenario(theta=1.0, p=300, n=10)  # 1e300 is still finite

    def test_numpy_scalars_normalized(self):
        scenario = make_scenario(
            n=np.int64(20), p=np.int32(2), replicates=np.uint16(50), seed=np.int64(7),
            theta=np.float32(0.5), error_sd=np.float64(10.0), alpha_level=np.float64(0.05),
            d_ratios=np.array([0.0, 1.0]),
        )
        fields = (scenario.n, scenario.p, scenario.replicates, scenario.seed)
        assert fields == (20, 2, 50, 7) and all(type(v) is int for v in fields)
        reals = (scenario.theta, scenario.error_sd, scenario.alpha_level, *scenario.d_ratios)
        assert reals == (0.5, 10.0, 0.05, 0.0, 1.0) and all(type(v) is float for v in reals)

    def test_integral_float_seed_shares_the_int_streams(self):
        assert run_cell(make_scenario(seed=5.0, replicates=100), 1.0) == run_cell(
            make_scenario(seed=5, replicates=100), 1.0
        )


class TestRunCell:
    def test_deterministic(self):
        scenario = make_scenario()
        assert run_cell(scenario, 1.0) == run_cell(scenario, 1.0)

    def test_seed_moves_the_estimate(self):
        a = run_cell(make_scenario(seed=1), 1.0)
        b = run_cell(make_scenario(seed=2), 1.0)
        assert a != b

    def test_null_rejection_near_alpha(self):
        cell = run_cell(make_scenario(replicates=4000), 0.0)
        # two-sided 5% level; discreteness keeps the true rate slightly low
        assert cell.rejection_rate == pytest.approx(0.05, abs=3 * 0.0045)
        assert cell.replicates_used == 4000

    def test_no_ties_without_threshold(self):
        cell = run_cell(make_scenario(), 0.0)
        assert cell.mean_tie_proportion == 0.0

    def test_null_tie_fraction_matches_closed_form(self):
        for distribution in ("normal", "uniform"):
            scenario = make_scenario(distribution=distribution, replicates=3000)
            for ratio in (0.5, 1.5):
                cell = run_cell(scenario, ratio)
                want = expected_null_tie_proportion(distribution, ratio)
                assert cell.mean_tie_proportion == pytest.approx(want, abs=0.01)

    def test_trend_raises_power(self):
        null = run_cell(make_scenario(replicates=3000), 0.0)
        trend = run_cell(make_scenario(theta=1.0, replicates=3000), 0.0)
        assert trend.rejection_rate > null.rejection_rate + 0.1

    def test_stderr_formula(self):
        cell = run_cell(make_scenario(), 1.0)
        rate = cell.rejection_rate
        assert cell.mc_stderr == pytest.approx(math.sqrt(rate * (1 - rate) / 2000))


class TestExpectedNullTies:
    def test_normal_closed_form(self):
        # d = r * sd on a difference with sd sqrt(2): 2*Phi(r/sqrt(2)) - 1
        assert expected_null_tie_proportion("normal", 1.0) == pytest.approx(0.5205, abs=5e-5)
        assert expected_null_tie_proportion("normal", 2.0) == pytest.approx(0.8427, abs=5e-5)

    def test_uniform_closed_form(self):
        # 1 - (1 - r/(2*sqrt(3)))^2 while the ratio stays inside the support
        assert expected_null_tie_proportion("uniform", 1.0) == pytest.approx(0.4940, abs=5e-5)
        assert expected_null_tie_proportion("uniform", 2.0) == pytest.approx(1 - (1 - 1 / math.sqrt(3)) ** 2)

    def test_zero_ratio(self):
        assert expected_null_tie_proportion("normal", 0.0) == 0.0


class TestRunGrid:
    def test_keys_and_order(self):
        scenario = make_scenario()
        grid = run_grid([scenario])
        keys = list(grid)
        assert [k.d_ratio for k in keys] == [0.0, 1.0]
        assert keys[0].distribution == "normal"
        assert keys[0].error_sd == 10.0

    def test_duplicate_scenarios_collapse_identically(self):
        scenario = make_scenario()
        grid = run_grid([scenario, make_scenario()])
        assert len(grid) == 2  # same keys, second write is identical

    def test_cells_match_run_cell(self):
        scenario = make_scenario()
        grid = run_grid([scenario])
        for key, cell in grid.items():
            assert cell == run_cell(scenario, key.d_ratio)

    def test_thread_count_does_not_change_results(self):
        scenario = make_scenario()
        try:
            os.environ[THREADS_ENV] = "1"
            single = run_grid([scenario])
            os.environ[THREADS_ENV] = "3"
            pooled = run_grid([scenario])
        finally:
            os.environ.pop(THREADS_ENV, None)
        assert single == pooled

    def test_smoke_grid_rejection_counts_pinned(self):
        # integer outcomes of the seeded streams: changing chunk sizes or
        # stream keys moves them, and must then be recorded as deliberate
        grid = run_grid(load_grid_config(REPO / "configs" / "smoke_grid.json"))
        counts = {
            (key.theta, key.d_ratio): round(cell.rejection_rate * cell.replicates_used)
            for key, cell in grid.items()
        }
        assert counts == {(0.0, 0.0): 87, (0.0, 1.0): 71, (1.0, 0.0): 655, (1.0, 1.0): 665}

    def test_bad_thread_env_rejected(self):
        try:
            os.environ[THREADS_ENV] = "many"
            with pytest.raises(InputError):
                run_grid([make_scenario()])
        finally:
            os.environ.pop(THREADS_ENV, None)


class TestGridConfig:
    GOOD = {
        "distributions": ["normal"],
        "sample_sizes": [10],
        "sd_bases": [10.0],
        "trends": [{"theta": 0.0, "p": 1.0}, {"theta": 1.0, "p": 2.0}],
        "d_ratios": [0.0, 0.5],
        "replicates": 100,
        "seed": 5,
        "alpha_level": 0.05,
    }

    def write(self, tmp_path, payload):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        return path

    def test_loads_scenarios(self, tmp_path):
        scenarios = load_grid_config(self.write(tmp_path, self.GOOD))
        assert len(scenarios) == 2
        assert {s.p for s in scenarios} == {1.0, 2.0}

    def test_error_scale_raised_to_trend_power(self, tmp_path):
        scenarios = load_grid_config(self.write(tmp_path, self.GOOD))
        by_p = {s.p: s for s in scenarios}
        assert by_p[1.0].error_sd == pytest.approx(10.0)
        assert by_p[2.0].error_sd == pytest.approx(100.0)

    def test_overrides(self, tmp_path):
        scenarios = load_grid_config(self.write(tmp_path, self.GOOD), replicates=7, seed=1)
        assert all(s.replicates == 7 and s.seed == 1 for s in scenarios)

    def test_unknown_key_rejected(self, tmp_path):
        bad = dict(self.GOOD, extra=1)
        with pytest.raises(InputError):
            load_grid_config(self.write(tmp_path, bad))

    def test_missing_key_rejected(self, tmp_path):
        bad = dict(self.GOOD)
        del bad["d_ratios"]
        with pytest.raises(InputError):
            load_grid_config(self.write(tmp_path, bad))

    def test_malformed_trend_rejected(self, tmp_path):
        bad = dict(self.GOOD, trends=[{"theta": 1.0}])
        with pytest.raises(InputError):
            load_grid_config(self.write(tmp_path, bad))

    # each used to end in a ValueError or TypeError, or was taken silently
    # (a negative base squared, a fractional count truncated)
    MALFORMED = [
        {"sample_sizes": ["x"]},
        {"sample_sizes": [10.5]},
        {"replicates": "many"},
        {"replicates": 1.5},
        {"seed": 0.5},
        {"d_ratios": 5},
        {"d_ratios": ["x"]},
        {"sd_bases": [-10]},
        {"sd_bases": [0]},
        {"trends": [{"theta": 0.0, "p": 1.5}]},
        {"trends": [{"theta": "x", "p": 1}]},
        {"trends": [{"theta": 0.0, "p": 10**400}]},
        {"alpha_level": "x"},
        {"distributions": "normal"},
        {"distributions": []},
        {"sample_sizes": []},
        {"sd_bases": []},
        {"trends": []},
        {"d_ratios": []},
    ]

    @pytest.mark.parametrize("change", MALFORMED, ids=lambda c: repr(c))
    def test_malformed_value_rejected(self, tmp_path, change):
        with pytest.raises(InputError):
            load_grid_config(self.write(tmp_path, dict(self.GOOD, **change)))

    def test_integral_floats_accepted(self, tmp_path):
        good = dict(self.GOOD, sample_sizes=[10.0], replicates=100.0, seed=5.0)
        scenarios = load_grid_config(self.write(tmp_path, good))
        assert {(s.n, s.replicates, s.seed) for s in scenarios} == {(10, 100, 5)}
        assert all(type(v) is int for s in scenarios for v in (s.n, s.p, s.replicates, s.seed))
