"""Rendering: JSON and text carry the same numbers, CSV round-trips."""

import csv
import io
import json

import pytest

from lrdkendall import (
    LrdPolicy,
    LrdRule,
    Series,
    permutation_test,
    platelet_donations,
    regional_test,
    render_json,
    render_text,
    run_grid,
    run_test,
    to_payload,
    write_grid_csv,
)
from lrdkendall.report import grid_rows
from test_core import DBP
from test_simulation import make_scenario


class TestTrendPayload:
    def test_json_is_lossless(self):
        result = run_test(Series.from_values(DBP), LrdRule(d=0.6))
        payload = json.loads(render_json(result))
        assert payload["kind"] == "trend_test"
        assert payload["s_extended"] == result.s_extended
        assert payload["p"] == result.p
        assert payload["variance"] == result.variance
        assert payload["rule"]["d"] == 0.6

    def test_text_shows_the_same_values(self):
        result = run_test(Series.from_values(DBP), LrdRule(d=0.6))
        text = render_text(result)
        assert "score: 14" in text
        assert "118.7" in text
        assert f"{result.p:.4g}" in text

    def test_warnings_surface_in_both(self):
        result = run_test(Series.from_values([1.0, 2.0, 1.5, 2.5, 0.5]))
        assert "small_n" in json.loads(render_json(result))["warnings"]
        assert "small_n" in render_text(result)


class TestUnknownResult:
    @pytest.mark.parametrize("render", [render_json, render_text])
    @pytest.mark.parametrize("result", [42, []])
    def test_refused(self, render, result):
        with pytest.raises(TypeError, match="no report form"):
            render(result)


class TestRegionalPayload:
    def test_aggregate_values(self):
        result = regional_test(platelet_donations(), LrdPolicy(boundary="lt"))
        payload = json.loads(render_json(result))
        assert payload["kind"] == "grouped_test"
        assert payload["s_regional"] == 41
        assert payload["n_groups"] == 19
        text = render_text(result)
        assert "aggregate score: 41" in text
        assert "315.67" in text

    def test_per_group_table_lists_every_group(self):
        result = regional_test(platelet_donations())
        text = render_text(result)
        for label in platelet_donations().groups:
            assert label in text

    def test_excluded_groups_mentioned(self):
        from lrdkendall import RegionalDataset

        data = RegionalDataset.from_columns(
            labels=["a", "a", "a", "zzz"],
            times=[0.0, 1.0, 2.0, 0.0],
            values=[1.0, 2.0, 3.0, 4.0],
        )
        result = regional_test(data)
        assert "zzz" in render_text(result)
        assert json.loads(render_json(result))["excluded_groups"] == ["zzz"]


class TestPermutationPayload:
    def test_fields(self):
        result = permutation_test(Series.from_values([1.0, 2.0, 3.0, 4.0]))
        payload = json.loads(render_json(result))
        assert payload["kind"] == "permutation_test"
        assert payload["method"] == "exhaustive"
        assert payload["p"] == result.p
        assert "2/24" in render_text(result) or "0.08333" in render_text(result)


def csv_cells(rows):
    """Each cell of grid rows as write_grid_csv spells it: repr for a float, str otherwise."""
    return [{k: repr(v) if isinstance(v, float) else str(v) for k, v in row.items()}
            for row in rows]


class TestGridCsv:
    def test_round_trip_is_lossless(self):
        grid = run_grid([make_scenario(replicates=200)])
        buffer = io.StringIO()
        write_grid_csv(grid, buffer)
        buffer.seek(0)
        # repr round-trips every float exactly, and an int keeps no ".0"
        assert list(csv.DictReader(buffer)) == csv_cells(grid_rows(grid))

    def test_header_names_are_stable(self):
        grid = run_grid([make_scenario(replicates=50)])
        buffer = io.StringIO()
        write_grid_csv(grid, buffer)
        header = buffer.getvalue().splitlines()[0]
        assert header == (
            "distribution,n,error_sd,theta,p,d_ratio,"
            "rejection_rate,mean_tie_proportion,mc_stderr,replicates_used"
        )
