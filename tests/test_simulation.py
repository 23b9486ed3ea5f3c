"""Monte Carlo engine: per-cell determinism, null calibration, config IO."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lrdkendall import (
    InputError,
    Scenario,
    density_for,
    load_grid_config,
    run_cell,
    run_grid,
)
from lrdkendall.core import MAX_SERIES_N
from lrdkendall.seeds import MAX_REPLICATES

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
        assert scenario.density.sigma == pytest.approx(10.0)

    def test_uniform_support_from_sd(self):
        density = density_for("uniform", 15.0)
        half_width = 15.0 * math.sqrt(3)
        assert (density.lower, density.upper) == pytest.approx((-half_width, half_width))
        assert (density.upper - density.lower) / math.sqrt(12) == pytest.approx(15.0)

    def test_underflowing_alpha_rejected(self):
        # alpha / 2 is 0: run_cell used to raise StatisticsError
        with pytest.raises(InputError, match="alpha_level"):
            make_scenario(alpha_level=5e-324)

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
            {"error_sd": 0.0},
            {"error_sd": -1.0},
            {"p": 0},
            {"d_ratios": (0.0, -1.0)},
        ]:
            with pytest.raises(InputError):
                make_scenario(**change)

    def test_series_length_limit(self):
        # n above the kernel's limit used to pass until its cell ran
        with pytest.raises(InputError, match=f"longer than the limit of {MAX_SERIES_N}"):
            make_scenario(n=MAX_SERIES_N + 1)
        assert make_scenario(n=MAX_SERIES_N).n == MAX_SERIES_N

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

    def test_overflowing_noise_rejected(self):
        # draws of +/-inf used to give NaN deltas that counted as ties, so a
        # null cell reported a nonzero tie proportion with numpy warnings
        for error_sd in (1e307, 1e308):
            with pytest.raises(InputError, match="overflow"):
                make_scenario(theta=0.0, error_sd=error_sd)
        make_scenario(theta=0.0, error_sd=1e306)  # 64 sd of it is still finite

    def test_overflowing_threshold_rejected(self):
        # d = d_ratio * error_sd = inf used to pass until run_cell built its rule,
        # after the grid's earlier cells had run
        with pytest.raises(InputError, match=r"d_ratio 1e\+300 \* error_sd 1e\+300 overflows"):
            make_scenario(error_sd=1e300, d_ratios=(0.0, 1e300))
        assert make_scenario(error_sd=1e300, d_ratios=(1e7,)).d_ratios == (1e7,)

    def test_empty_thresholds_rejected(self):
        # a scenario without d_ratios used to be built, and run_grid gave it no cell
        for empty in ((), [], np.array([])):
            with pytest.raises(InputError, match="d_ratios must be non-empty"):
                make_scenario(d_ratios=empty)

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
        # P(|X1 - X2| <= r sd): the normal difference has sd sqrt(2) sd, and
        # the uniform one is triangular on +/- the support width 2 sqrt(3) sd
        closed_forms = {
            "normal": lambda r: math.erf(r / 2),
            "uniform": lambda r: 1 - (1 - r / (2 * math.sqrt(3))) ** 2,
        }
        for distribution, closed_form in closed_forms.items():
            scenario = make_scenario(distribution=distribution, replicates=3000)
            for ratio in (0.5, 1.5):
                cell = run_cell(scenario, ratio)
                assert cell.mean_tie_proportion == pytest.approx(closed_form(ratio), abs=0.01)

    def test_trend_raises_power(self):
        null = run_cell(make_scenario(replicates=3000), 0.0)
        trend = run_cell(make_scenario(theta=1.0, replicates=3000), 0.0)
        assert trend.rejection_rate > null.rejection_rate + 0.1

    def test_stderr_formula(self):
        cell = run_cell(make_scenario(), 1.0)
        rate = cell.rejection_rate
        assert cell.mc_stderr == pytest.approx(math.sqrt(rate * (1 - rate) / 2000))

    # each used to end in a bare ValueError or TypeError, or (True) to run as 1.0
    @pytest.mark.parametrize("d_ratio", ["x", [1], True], ids=repr)
    def test_non_number_threshold_rejected(self, d_ratio):
        with pytest.raises(InputError, match="d_ratio must be a finite number"):
            run_cell(make_scenario(replicates=10), d_ratio)


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

    def test_negative_zeros_give_the_cells_of_their_zero_twin(self):
        # -0.0 compared equal to 0.0 but keyed its own stream, str(-0.0)
        zero = make_scenario(n=10, replicates=50, seed=0, d_ratios=(0.0, 0.5))
        negative = make_scenario(n=10, replicates=50, seed=0, theta=-0.0, d_ratios=(-0.0, 0.5))
        grid = run_grid([negative])
        assert grid == run_grid([zero])
        keys = [*grid, negative.key(-0.0)]
        assert all(math.copysign(1.0, k.theta) == math.copysign(1.0, k.d_ratio) == 1.0
                   for k in keys)
        assert math.copysign(1.0, negative.d_ratios[0]) == 1.0

    def test_cells_match_run_cell(self):
        scenario = make_scenario()
        grid = run_grid([scenario])
        for key, cell in grid.items():
            assert cell == run_cell(scenario, key.d_ratio)

    def test_smoke_grid_rejection_counts_pinned(self):
        # integer outcomes of the seeded streams: changing chunk sizes or
        # stream keys moves them, and must then be recorded as deliberate
        grid = run_grid(load_grid_config(REPO / "configs" / "smoke_grid.json"))
        counts = {
            (key.theta, key.d_ratio): round(cell.rejection_rate * cell.replicates_used)
            for key, cell in grid.items()
        }
        assert counts == {(0.0, 0.0): 76, (0.0, 1.0): 81, (1.0, 0.0): 655, (1.0, 1.0): 680}

    def test_rejection_count_pinned_where_the_budget_sets_the_chunks(self):
        # at n = 60 the cell budget, not the row cap, sizes the chunks:
        # 3000 replicates are chunks of 2222 and 778 rows. The total count
        # of tied pairs moves even when a chunk grows or shrinks by a row.
        scenario = make_scenario(n=60, theta=0.15, d_ratios=(1.0,), replicates=3000)
        cell = run_cell(scenario, 1.0)
        rejections = round(cell.rejection_rate * cell.replicates_used)
        ties = round(cell.mean_tie_proportion * cell.replicates_used * 60 * 59 / 2)
        assert (rejections, ties) == (1472, 2683518)

    def test_cell_ignores_the_scenarios_other_thresholds(self):
        # a cell's counts are its own, though its scenario's draws are shared
        cells = [
            run_grid([make_scenario(d_ratios=ratios, replicates=500)])
            for ratios in ((0.0, 1.0), (1.0,), (1.0, 0.0))
        ]
        at_one = [grid[make_scenario().key(1.0)] for grid in cells]
        assert at_one[0] == at_one[1] == at_one[2]

    def test_thresholds_share_the_scenarios_draws(self):
        # d = 1e-8 ties no pair of continuous draws with sd 10, so on common
        # random numbers both cells reject the same replicates; each cell
        # used to draw its own replicates, and the counts differed
        grid = run_grid([make_scenario(d_ratios=(0.0, 1e-9))])
        zero, tiny = grid.values()
        assert tiny.mean_tie_proportion == 0.0
        assert round(zero.rejection_rate * 2000) == round(tiny.rejection_rate * 2000)


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

    def test_scenario_order_and_defaults(self, tmp_path):
        config = {
            "distributions": ["uniform", "normal"],
            "sample_sizes": [30, 20],
            "sd_bases": [2.0, 3.0],
            "trends": [{"theta": 1.0, "p": 2}, {"theta": 0.0, "p": 1}],
            "d_ratios": [0.5],
        }
        path = self.write(tmp_path, config)
        # nested-loop order, trends varying fastest: the grid CSV's row order
        assert [(s.distribution, s.n, s.error_sd, s.theta, s.p) for s in load_grid_config(path)] == [
            (dist, n, sd_base ** p, theta, p)
            for dist in ("uniform", "normal")
            for n in (30, 20)
            for sd_base in (2.0, 3.0)
            for theta, p in ((1.0, 2), (0.0, 1))
        ]

        def optional(path, **overrides):
            return {(s.replicates, s.seed, s.alpha_level) for s in load_grid_config(path, **overrides)}

        defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
        assert optional(path) == {(defaults["replicates"], defaults["seed"], defaults["alpha_level"])}
        given = self.write(tmp_path, dict(config, replicates=100, seed=5, alpha_level=0.1))
        assert optional(given) == {(100, 5, 0.1)}
        assert optional(given, replicates=7) == {(7, 5, 0.1)}
        assert optional(given, replicates=7, seed=3) == {(7, 3, 0.1)}

    def test_byte_order_mark_ignored(self, tmp_path):
        # json.load refused the mark: "Unexpected UTF-8 BOM"
        plain = self.write(tmp_path, self.GOOD)
        bom = tmp_path / "bom.json"
        bom.write_text(plain.read_text(), encoding="utf-8-sig")
        assert load_grid_config(bom) == load_grid_config(plain)

    def test_unreadable_or_non_object_file_rejected(self, tmp_path):
        with pytest.raises(InputError, match="cannot read grid config"):
            load_grid_config(tmp_path / "missing.json")
        with pytest.raises(InputError, match="must be a JSON object"):
            load_grid_config(self.write(tmp_path, [self.GOOD]))
        # an integer past Python's int-string digit limit ended in a ValueError
        path = tmp_path / "huge.json"
        path.write_text('{"replicates": ' + "9" * 5000 + "}")
        with pytest.raises(InputError):
            load_grid_config(path)

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
        {"sd_bases": [1e200], "trends": [{"theta": 0.0, "p": 2}]},  # sd_base ** p overflows
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
