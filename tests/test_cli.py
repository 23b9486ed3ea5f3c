"""Command-line surface: exit codes, format parity, reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lrdkendall
from lrdkendall.cli import main
from lrdkendall.core import MAX_SERIES_N

from test_core import too_long
from test_report import csv_cells

FIXTURE = "src/lrdkendall/data/platelets_2001_2005.csv"

#: JSON outputs of the permutation commands, recorded byte for byte
GOLDEN = Path(__file__).parent / "data"

SERIES_CSV = "t,v\n" + "".join(
    f"{2000 + i},{x}\n"
    for i, x in enumerate([90.9, 95.2, 98.6, 95.8, 100.7, 94.9, 92.8, 101.5, 99.0, 98.7])
)


@pytest.fixture
def series_path(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text(SERIES_CSV)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_clean(capsys, *argv):
    """(exit code, stdout) of a call that must print nothing to stderr."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert err == ""
    return code, out


def assert_one_error_line(capsys, *argv):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


#: values whose sum overflows, though their mean (9.5e307) is finite
HUGE = [9e307, 1e308]

#: a file that is not UTF-8 text, and one with a cell over the csv field limit
NOT_UTF8 = b"t,v\n1,\xff\xfe\n2,3\n"
OVERSIZED_CELL = ("t,v\n1," + "9" * 131_073 + "\n2,3\n").encode()


class TestTestCommand:
    def test_over_memory_budget_exits_2(self, capsys, tmp_path):
        values = too_long().values
        path = tmp_path / "long.csv"
        path.write_text("t,v\n" + "".join(f"{i},{x}\n" for i, x in enumerate(values)))
        assert main(["test", str(path)]) == 2
        assert f"n = {len(values)} is longer than" in capsys.readouterr().err

    def test_json_of_a_long_series_matches_the_double_loop(self, capsys, tmp_path):
        # 3000 points take the sort route of core.pair_counts, as any single
        # series of 256 or more does under every rule
        values = (np.round(np.cumsum(np.random.default_rng(6).normal(size=3000)), 1) + 95).tolist()
        path = tmp_path / "long.csv"
        path.write_text("t,v\n" + "".join(f"{i},{x!r}\n" for i, x in enumerate(values)))
        code, raw = run_clean(capsys, "test", str(path), "--lrd", "0.6", "--format", "json")
        assert code == 0
        score = scoring = 0
        x = np.array(values)
        for i in range(len(x) - 1):  # the inner loop over the later values, in numpy
            later = x[i + 1:] - x[i]
            up, down = np.count_nonzero(later > 0.6), np.count_nonzero(later < -0.6)
            score, scoring = score + up - down, scoring + up + down
        pairs = len(x) * (len(x) - 1) // 2
        payload = json.loads(raw)
        assert payload["s_extended"] == score
        assert payload["tie_proportion"] == (pairs - scoring) / pairs

    def test_text_output(self, capsys, series_path):
        code, out = run_cli(capsys, "test", series_path, "--lrd", "0.6")
        assert code == 0
        assert "score: 14" in out

    def test_json_matches_text_values(self, capsys, series_path):
        code, text = run_cli(capsys, "test", series_path, "--lrd", "0.6")
        assert code == 0
        code, raw = run_cli(capsys, "test", series_path, "--lrd", "0.6", "--format", "json")
        assert code == 0
        payload = json.loads(raw)
        assert payload["s_extended"] == 14
        assert f"{payload['p']:.4g}" in text

    def test_fraction_of_mean_threshold(self, capsys, series_path):
        code, raw = run_cli(
            capsys, "test", series_path,
            "--lrd", "0.01", "--lrd-mode", "fraction-of-mean", "--format", "json",
        )
        assert code == 0
        payload = json.loads(raw)
        assert payload["rule"]["d"] == pytest.approx(0.01 * 96.81)  # 1% of the mean

    def test_permutation_method(self, capsys, series_path):
        code, raw = run_cli(
            capsys, "test", series_path,
            "--method", "permutation", "--permutations", "500",
            "--seed", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(raw)
        assert payload["kind"] == "permutation_test"
        assert payload["draws"] == 500
        # same invocation reproduces the same p bit for bit
        _, again = run_cli(
            capsys, "test", series_path,
            "--method", "permutation", "--permutations", "500",
            "--seed", "3", "--format", "json",
        )
        assert json.loads(again) == payload

    @pytest.mark.parametrize("argv, golden", [
        (["--lrd", "0.6", "--direction", "pos", "--seed", "3"], "test_permutation_pos.json"),
        (["--boundary", "lt", "--permutations", "4097"], "test_permutation_lt.json"),
    ])
    def test_permutation_json_is_pinned(self, capsys, series_path, argv, golden):
        # recorded when every draw was scored as a row of values by pair_counts
        _, raw = run_clean(capsys, "test", series_path, *argv,
                           "--method", "permutation", "--format", "json")
        assert raw.encode() == (GOLDEN / golden).read_bytes()

    def test_exhaustive_method(self, capsys, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("t,v\n1,1\n2,2\n3,3\n4,4\n")
        code, raw = run_cli(capsys, "test", str(path), "--method", "exhaustive", "--format", "json")
        assert code == 0
        assert json.loads(raw)["p"] == pytest.approx(2 / 24)
        # all 8! orders of eight values
        path.write_text("t,v\n0,95.2\n1,98.6\n2,95.8\n3,100.7\n4,94.9\n5,92.8\n6,101.5\n7,99.0\n")
        code, raw = run_clean(capsys, "test", str(path), "--lrd", "0.6",
                              "--method", "exhaustive", "--format", "json")
        assert code == 0
        payload = json.loads(raw)
        assert (payload["draws"], payload["exceed_count"]) == (40320, 32508)

    def test_directional_needs_permutation(self, capsys, series_path):
        code, _ = run_cli(capsys, "test", series_path, "--direction", "pos")
        assert code == 3  # analytic path refuses, as documented

    def test_directional_permutation_works(self, capsys, series_path):
        code, _ = run_cli(
            capsys, "test", series_path,
            "--direction", "pos", "--method", "permutation", "--permutations", "200",
        )
        assert code == 0

    def test_permutation_count_out_of_range(self, capsys, series_path):
        for count in ("0", "10000001", "1000000000000"):
            code, _ = run_cli(capsys, "test", series_path, "--method", "permutation",
                              "--permutations", count)
            assert code == 2, count

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "test", "no/such/file.csv")
        assert code == 2

    def test_grouped_input_redirected(self, capsys):
        code, _ = run_cli(capsys, "test", FIXTURE)
        assert code == 2

    def test_fraction_of_mean_with_an_overflowing_sum(self, capsys, tmp_path):
        # the sum used to overflow: a RuntimeWarning, then exit 2 with d = nan or inf
        path = tmp_path / "huge.csv"
        path.write_text("t,v\n" + "".join(f"{t},{HUGE[t % 2]!r}\n" for t in range(10)))
        for lrd in ("0", "0.1"):
            code, raw = run_clean(capsys, "test", str(path), "--lrd", lrd,
                                  "--lrd-mode", "fraction-of-mean", "--format", "json")
            assert code == 0
            want = 0.0 if lrd == "0" else pytest.approx(0.1 * 9.5e307)
            assert json.loads(raw)["rule"]["d"] == want

    def test_fraction_of_a_negative_mean_names_the_mean(self, capsys, tmp_path):
        path = tmp_path / "negative.csv"
        path.write_text("t,v\n" + "".join(
            f"{t},{x}\n" for t, x in enumerate((-1, -2, -1.5, -1.2, -1.8))
        ))
        for method in ("normal", "permutation"):
            assert main(["test", str(path), "--lrd", "0.1", "--lrd-mode",
                         "fraction-of-mean", "--method", method]) == 2
            assert capsys.readouterr().err.startswith(
                "error: series with mean -1.5: threshold d must be finite and >= 0, got -0.15"
            )

    def test_times_beyond_the_float_range(self, capsys, tmp_path):
        # their difference overflows: this printed a RuntimeWarning, an error in CI
        path = tmp_path / "wide.csv"
        path.write_text("t,v\n-1e308,1\n1e308,2\n")
        code, raw = run_clean(capsys, "test", str(path), "--format", "json")
        assert code == 0 and json.loads(raw)["s_extended"] == 1

    @pytest.mark.parametrize("text", [
        "a,b,c,d,e\n1,2,3,4,5\n",  # five columns
        "t,v\n1,1.0\n2,\n",  # one usable value
    ])
    def test_unusable_table_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert_one_error_line(capsys, "test", str(path))


class TestUnreadableText:
    # each ended in a UnicodeDecodeError or _csv.Error traceback with exit 1
    @pytest.mark.parametrize("argv", [
        ["test", "{}"], ["regional", "{}"], ["power", "--density", "file:{}"],
    ], ids=["test", "regional", "power"])
    @pytest.mark.parametrize("content, message", [
        (NOT_UTF8, "error: not UTF-8 text: cannot decode byte 0xff\n"),
        (OVERSIZED_CELL, "error: line 2: field larger than field limit (131072)\n"),
    ], ids=["not-utf8", "oversized-cell"])
    def test_csv_exits_2(self, capsys, tmp_path, argv, content, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert main([arg.format(path) for arg in argv]) == 2
        assert capsys.readouterr().err == message

    def test_grid_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(NOT_UTF8)
        assert_one_error_line(capsys, "simulate", "--config", str(path))


class TestRegionalCommand:
    def test_golden_row(self, capsys):
        code, raw = run_cli(
            capsys, "regional", FIXTURE,
            "--lrd", "0.05", "--boundary", "lt", "--format", "json",
        )
        assert code == 0
        payload = json.loads(raw)
        assert payload["s_regional"] == 45
        assert payload["variance"] == pytest.approx(295.67, abs=0.01)
        assert payload["p"] == pytest.approx(0.0105, abs=0.0005)

    def test_fraction_policy(self, capsys):
        code, raw = run_cli(
            capsys, "regional", FIXTURE,
            "--lrd", "0.05", "--lrd-mode", "fraction-of-mean",
            "--boundary", "lt", "--format", "json",
        )
        assert code == 0
        assert json.loads(raw)["s_regional"] == 49

    def test_permutation_method(self, capsys):
        code, raw = run_cli(
            capsys, "regional", FIXTURE,
            "--method", "permutation", "--permutations", "300",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(raw)["kind"] == "permutation_test"

    @pytest.mark.parametrize("argv, golden", [
        (["--lrd", "0.05", "--lrd-mode", "fraction-of-mean", "--boundary", "lt"],
         "regional_permutation_fraction.json"),
        (["--lrd", "0.2", "--permutations", "4097", "--seed", "7"],
         "regional_permutation_absolute.json"),
    ])
    def test_permutation_json_is_pinned(self, capsys, argv, golden):
        # recorded when every draw was scored as a row of values by pair_counts
        _, raw = run_clean(capsys, "regional", FIXTURE, *argv,
                           "--method", "permutation", "--format", "json")
        assert raw.encode() == (GOLDEN / golden).read_bytes()

    def test_exhaustive_is_refused(self, capsys):
        code, _ = run_cli(capsys, "regional", FIXTURE, "--method", "exhaustive")
        assert code == 2

    def test_series_input_redirected(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,v\n1,1\n2,2\n")
        code, _ = run_cli(capsys, "regional", str(path))
        assert code == 2

    def test_duplicate_time_names_a_plain_float(self, capsys, tmp_path):
        # the message used to print the time as np.float64(1.0)
        path = tmp_path / "duplicate.csv"
        path.write_text("g,t,v\na,1,1\na,1,2\n")
        assert main(["regional", str(path)]) == 2
        assert capsys.readouterr().err == "error: duplicate time 1.0 for group 'a'\n"

    def test_fraction_of_mean_with_an_overflowing_sum(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("g,t,v\n" + "".join(
            f"{g},{t},{HUGE[(t + k) % 2]!r}\n" for k, g in enumerate("ab") for t in range(6)
        ))
        for lrd in ("0", "0.1"):
            code, raw = run_clean(capsys, "regional", str(path), "--lrd", lrd,
                                  "--lrd-mode", "fraction-of-mean", "--format", "json")
            assert code == 0
            want = 0.0 if lrd == "0" else pytest.approx(0.1 * 9.5e307)
            assert [g["rule"]["d"] for g in json.loads(raw)["per_group"].values()] == [want] * 2

    def test_times_beyond_the_float_range(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("g,t,v\na,-1e308,1\na,1e308,2\nb,-1e308,1\nb,1e308,3\n")
        code, raw = run_clean(capsys, "regional", str(path), "--format", "json")
        assert code == 0 and json.loads(raw)["s_regional"] == 2

    def test_fraction_of_a_negative_group_mean(self, capsys, tmp_path):
        path = tmp_path / "negative.csv"
        path.write_text("g,t,v\n" + "".join(
            f"{g},{t},{x}\n" for g, xs in (("a", (-1, -2, -1.5, -1.2, -1.8)),
                                           ("b", (1, 2, 3, 2.5, 4)))
            for t, x in enumerate(xs)
        ))
        for method in ("normal", "permutation"):
            assert main(["regional", str(path), "--lrd", "0.1", "--lrd-mode",
                         "fraction-of-mean", "--method", method]) == 2
            assert capsys.readouterr().err.startswith("error: group 'a' with mean -1.5: ")
        code, raw = run_clean(capsys, "regional", str(path), "--lrd", "0",
                              "--lrd-mode", "fraction-of-mean", "--format", "json")
        assert code == 0 and '"d": -0.0' not in raw
        code, text = run_clean(capsys, "regional", str(path), "--lrd", "0",
                               "--lrd-mode", "fraction-of-mean")
        assert code == 0 and " -0 " not in text


class TestPowerCommand:
    @pytest.mark.parametrize("width", ["1e200", "1e-300"])
    def test_triangles_far_from_unit_width_run_clean(self, tmp_path, width):
        # g(0) of these underflowed to 0, or overflowed to a NaN drift and exit 2
        path = tmp_path / "d.csv"
        path.write_text(f"x,f\n-{width},0\n0,{1 / float(width)!r}\n{width},0\n")
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lrdkendall.cli",
             "power", "--density", f"file:{path}", "--d-grid", "0:1:1", "--format", "json"],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        g0 = json.loads(done.stdout)["points"][0]["density_at_d"]
        assert g0 == pytest.approx(2 / 3 / float(width), rel=1e-6)

    def test_normal_curve(self, capsys):
        code, raw = run_cli(
            capsys, "power", "--density", "normal:1", "--slope", "0.5",
            "--d-grid", "0:1:0.5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(raw)
        assert payload["kind"] == "power_curve"
        assert [pt["d"] for pt in payload["points"]] == [0.0, 0.5, 1.0]

    def test_negative_zero_threshold_reads_zero(self, capsys):
        code, raw = run_cli(capsys, "power", "--density", "normal:1",
                            "--d-grid=-0.0:0.5:0.5", "--format", "json")
        assert code == 0
        assert '"d": 0.0,' in raw and "-0.0" not in raw

    def test_lambda_alias(self, capsys):
        code_a, a = run_cli(
            capsys, "power", "--density", "normal:1", "--lambda", "0.5",
            "--d-grid", "0:1:0.5", "--format", "json",
        )
        code_b, b = run_cli(
            capsys, "power", "--density", "normal:1", "--slope", "0.5",
            "--d-grid", "0:1:0.5", "--format", "json",
        )
        assert code_a == code_b == 0
        assert a == b

    def test_uniform_degenerate_rows(self, capsys):
        code, raw = run_cli(
            capsys, "power", "--density", "uniform:0:1", "--slope", "0.5",
            "--d-grid", "0.5:2:0.75", "--format", "json",
        )
        assert code == 0
        points = json.loads(raw)["points"]
        assert [pt["degenerate"] for pt in points] == [False, True, True]

    def test_tabulated_density_file(self, capsys, tmp_path):
        import math

        path = tmp_path / "density.csv"
        lines = ["x,f"]
        for i in range(2001):
            x = -8.0 + i * 8e-3
            lines.append(f"{x},{math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)}")
        path.write_text("\n".join(lines) + "\n")
        code, raw = run_cli(
            capsys, "power", "--density", f"file:{path}", "--slope", "1.0",
            "--d-grid", "0:0:1", "--format", "json",
        )
        assert code == 0
        point = json.loads(raw)["points"][0]
        assert point["density_at_d"] == pytest.approx(1 / (2 * math.sqrt(math.pi)), abs=1e-4)

    def test_bad_grid_spec(self, capsys):
        for spec in ("3:0:0.5", "0:inf:1", "nan:1:0.1", "0:1:nan", "0:1e9:1e-9",
                     "0:1", "a:1:0.5"):
            assert_one_error_line(capsys, "power", "--density", "normal:1", "--d-grid", spec)

    @pytest.mark.parametrize("slope", ["nan", "inf"])
    def test_non_finite_slope(self, capsys, slope):
        code, _ = run_cli(capsys, "power", "--density", "normal:1", "--slope", slope)
        assert code == 2

    def test_bad_density_spec(self, capsys):
        code, _ = run_cli(capsys, "power", "--density", "gamma:1")
        assert code == 2

    def test_density_file_skips_blank_lines(self, capsys, tmp_path):
        texts = [
            "x,f\n-1,0\n0,1\n1,0\n",
            "x,f\n\n-1,0\n0,1\n\n1,0\n\n",
            "-1,0\n0,1\n1,0\n",  # no header
            "\nx,f\n-1,0\n0,1\n1,0\n",  # the header after a blank line
            '"x","f"\n"-1","0"\n"0","1"\n1,"0"\n',  # quoted cells
        ]
        outs = []
        for i, text in enumerate(texts):
            path = tmp_path / f"density{i}.csv"
            path.write_text(text)
            outs.append(run_clean(capsys, "power", "--density", f"file:{path}",
                                  "--format", "json"))
        assert outs[0][0] == 0 and all(out == outs[0] for out in outs)

    @pytest.mark.parametrize("text", [
        "x,f\n-1,0,0\n0,1\n1,0\n",  # three columns
        "x,f\n-1,0\n0,oops\n1,0\n",  # a row past the header that does not parse
    ])
    def test_malformed_density_file_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "density.csv"
        path.write_text(text)
        assert_one_error_line(capsys, "power", "--density", f"file:{path}")

    def test_unreadable_density_file_exits_2(self, capsys, tmp_path):
        for path in (tmp_path / "missing.csv", tmp_path):  # absent, and a directory
            assert_one_error_line(capsys, "power", "--density", f"file:{path}")

    def test_underflowing_alpha_exits_2(self, capsys):
        # alpha / 2 is 0: this used to end in a StatisticsError traceback
        assert main(["power", "--density", "normal:1", "--alpha", "5e-324"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha_level") and err.count("\n") == 1

    def test_overflowing_density_span_exits_2(self, capsys, tmp_path):
        # unit mass, but the span overflows: this printed NaN for every point
        path = tmp_path / "density.csv"
        path.write_text("x,f\n-1e308,0\n0,1e-308\n1e308,0\n")
        assert main(["power", "--density", f"file:{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_far_threshold_on_wide_density_is_degenerate(self, capsys, tmp_path):
        # x + d overflows to inf on a grid reaching 1e308; interp gives the edge value
        path = tmp_path / "density.csv"
        path.write_text("x,f\n0,0\n5e307,2e-308\n1e308,0\n")
        code, raw = run_cli(capsys, "power", "--density", f"file:{path}",
                            "--d-grid", "0:1e308:1e308", "--format", "json")
        assert code == 0
        assert [pt["degenerate"] for pt in json.loads(raw)["points"]] == [False, True]

    def test_extreme_scales(self, capsys):
        # these used to end in OverflowError (w**3) and ZeroDivisionError (4*s*s)
        for spec in ("uniform:0:1e200", "normal:1e-200"):
            code, raw = run_cli(capsys, "power", "--density", spec, "--format", "json")
            assert code == 0, spec
            moments = [v for pt in json.loads(raw)["points"] for v in pt["moments"].values()]
            assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in moments), spec


class TestSimulateCommand:
    def test_smoke_grid_with_csv(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code, _ = run_cli(
            capsys, "simulate", "--config", "configs/smoke_grid.json",
            "--replicates", "100", "--out", str(out),
        )
        assert code == 0
        body = out.read_text()
        assert body.splitlines()[0].startswith("distribution,")
        assert len(body.splitlines()) == 5  # header + 4 cells

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        args = [
            "simulate", "--config", "configs/smoke_grid.json",
            "--replicates", "60", "--seed", "5",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(first))[0] == 0
        assert run_cli(capsys, *args, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bad_config(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}')
        code, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2

    def test_malformed_config_value_exits_2(self, capsys, tmp_path):
        with open("configs/smoke_grid.json", encoding="utf-8") as fh:
            config = json.load(fh)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(config, sample_sizes=["x"])))
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: n must be an integer, got 'x'\n"
        # a bad value for any Scenario field, or an empty axis, exits 2 too
        for change in [
            {"trends": [{"theta": 0.0, "p": 1.7}]},
            {"sample_sizes": [10.9]},
            {"replicates": 1.5},
            {"replicates": True},
            {"seed": 0.5},
            {"trends": [{"theta": "x", "p": 1}]},
            {"trends": [{"theta": math.nan, "p": 1}]},
            {"d_ratios": "01"},
            {"d_ratios": 5},
            {"sample_sizes": []},
            {"sd_bases": [1e200], "trends": [{"theta": 0.0, "p": 2}]},  # sd_base ** p overflows
        ]:
            path.write_text(json.dumps(dict(config, **change)))
            assert main(["simulate", "--config", str(path)]) == 2, change
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


    def test_overflowing_trend_exits_2(self, capsys, tmp_path):
        with open("configs/smoke_grid.json", encoding="utf-8") as fh:
            config = json.load(fh)
        path = tmp_path / "trend.json"
        trend = {"sd_bases": [1.0], "trends": [{"theta": 1, "p": 400}]}
        path.write_text(json.dumps(dict(config, **trend)))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trend theta * n ** p") and err.count("\n") == 1

    def test_overflowing_noise_exits_2(self, capsys, tmp_path):
        with open("configs/smoke_grid.json", encoding="utf-8") as fh:
            config = json.load(fh)
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(dict(config, sd_bases=[1e307])))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: error_sd") and err.count("\n") == 1

    def test_replicate_limit_exits_2_before_any_cell(self, capsys, monkeypatch):
        def no_run(scenarios):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("lrdkendall.cli.run_grid", no_run)
        argv = ["simulate", "--config", "configs/smoke_grid.json",
                "--replicates", "1000000000000"]
        assert main(argv) == 2
        assert "replicates must be between 1 and" in capsys.readouterr().err

    def test_series_length_limit_exits_2_before_any_cell(self, capsys, monkeypatch, tmp_path):
        # Scenario took n = 20000, so every n = 20 cell ran before run_cell refused it
        def no_run(scenarios):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("lrdkendall.cli.run_grid", no_run)
        with open("configs/smoke_grid.json", encoding="utf-8") as fh:
            config = json.load(fh)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(dict(config, sample_sizes=[20, MAX_SERIES_N + 1])))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"longer than the limit of {MAX_SERIES_N}" in err and err.count("\n") == 1

    def test_overflowing_threshold_exits_2_before_any_cell(self, capsys, monkeypatch, tmp_path):
        # the sd_base 1 cells ran before run_cell refused d = 1e300 * 1e300 = inf
        def no_run(scenarios):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("lrdkendall.cli.run_grid", no_run)
        with open("configs/smoke_grid.json", encoding="utf-8") as fh:
            config = json.load(fh)
        path = tmp_path / "threshold.json"
        path.write_text(json.dumps(dict(config, sd_bases=[1.0, 1e300], d_ratios=[1e300])))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: threshold d = d_ratio 1e+300") and err.count("\n") == 1

    def test_seed_beyond_64_bits_exits_2_before_any_cell(self, capsys, monkeypatch, series_path):
        # a seed of 2**64 keyed its draw streams like any other, and both runs exited 0
        def no_run(scenarios):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("lrdkendall.cli.run_grid", no_run)
        seed = str(2**64)
        assert_one_error_line(capsys, "simulate", "--config", "configs/smoke_grid.json",
                              "--seed", seed)
        assert_one_error_line(capsys, "test", series_path, "--method", "permutation",
                              "--seed", seed)
        assert_one_error_line(capsys, "regional", FIXTURE, "--method", "permutation",
                              "--seed", seed)

    def test_unwritable_out_exits_2_before_any_cell(self, capsys, monkeypatch, tmp_path):
        # --out was opened after the whole grid ran, then ended in a traceback
        def no_run(scenarios):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("lrdkendall.cli.run_grid", no_run)
        out = tmp_path / "no" / "such" / "grid.csv"
        assert main(["simulate", "--config", "configs/smoke_grid.json", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    def test_json_cells_match_the_csv(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code, raw = run_clean(capsys, "simulate", "--config", "configs/smoke_grid.json",
                              "--replicates", "100", "--out", str(out), "--format", "json")
        assert code == 0
        payload = json.loads(raw)
        assert payload["kind"] == "simulation_grid"
        with open(out, encoding="utf-8", newline="") as fh:
            assert list(csv.DictReader(fh)) == csv_cells(payload["cells"])


class TestExitCodes:
    def test_unknown_subcommand_is_argparse_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unnormalized_density_file_is_usage_error(self, capsys, tmp_path):
        # a table of mass 2 is refused when the density is built, before any
        # moment is computed, so it is a usage error (2), not a statistical one
        path = tmp_path / "density.csv"
        path.write_text("x,f\n0,1\n1,1\n2,1\n")
        assert main(["power", "--density", f"file:{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tabulated density integrates to 2.0, not 1")
        assert err.count("\n") == 1


#: the package's public names; a name added or removed is a reviewed change here
PUBLIC_NAMES = [
    "AnalyticUnavailable", "CellKey", "CellResult", "DegenerateRegime", "ErrorDensity",
    "GainCondition", "InputError", "InsufficientData", "InvalidMoments", "LrdKendallError",
    "LrdPolicy", "LrdRule", "MomentSet", "NoUsableData", "PermutationResult", "PowerPoint",
    "RegionalDataset", "RegionalResult", "Scenario", "Series", "TrendTestResult",
    "asymptotic_drift", "density_for", "diff_density", "load_grid_config",
    "moment_estimates", "moments", "p_value", "pair_score", "permutation_test",
    "platelet_donations", "power_curve", "power_gain_condition", "read_input_file",
    "read_input_table", "regional_permutation_test", "regional_test", "render_json",
    "render_text", "run_cell", "run_grid", "run_test", "s_extended", "tau_extended",
    "tie_groups", "tie_proportion", "to_payload", "uv_counts", "validate_moments",
    "var_classical", "var_extended_from_moments", "var_extended_hat", "var_theoretical",
    "write_grid_csv", "z_score",
]


def child_env(**extra) -> dict:
    """The environment of a child Python process that imports the package this
    process imported: the checkout's src/, or an installed copy."""
    src = os.path.dirname(os.path.dirname(lrdkendall.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ), **extra)


class TestImportPath:
    def test_public_surface_is_pinned(self):
        assert PUBLIC_NAMES == sorted(set(PUBLIC_NAMES)) and len(PUBLIC_NAMES) == 55
        assert sorted(lrdkendall.__all__) == PUBLIC_NAMES  # so __all__ repeats no name
        namespace = {}
        exec("from lrdkendall import *", namespace)
        for name in PUBLIC_NAMES:
            assert namespace[name] is getattr(lrdkendall, name)

    def test_subcommands_run_without_scipy(self, series_path):
        # the runtime needs numpy alone; scipy stays a test-only oracle, and
        # numpy.ma (about 10 ms to import), concurrent.futures and logging
        # (8-10 ms together) stay unloaded
        calls = [
            ["test", series_path, "--lrd", "0.6", "--format", "json"],
            ["regional", os.path.abspath(FIXTURE), "--lrd", "0.05", "--format", "json"],
            ["power", "--density", "normal:1", "--d-grid", "0:3:0.5", "--format", "json"],
            ["simulate", "--config", os.path.abspath("configs/smoke_grid.json"),
             "--replicates", "20"],
        ]
        unloaded = ["numpy.ma", "concurrent.futures", "logging"]
        script = (
            "import contextlib, io, json, sys\n"
            "from lrdkendall.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {calls!r}]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy')),\n"
            f"                  [m for m in {unloaded!r} if m in sys.modules]]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        codes, scipy_modules, loaded = json.loads(done.stdout)
        assert codes == [0, 0, 0, 0]
        assert scipy_modules == []
        assert loaded == []

    def test_outputs_do_not_depend_on_the_hash_seed(self, series_path, tmp_path):
        # the smoke grid's CSV and a seeded permutation test, byte for byte under
        # two hash seeds, each a child process that fails on a RuntimeWarning
        def run(hash_seed):
            out = tmp_path / f"grid{hash_seed}.csv"
            calls = [["simulate", "--config", os.path.abspath("configs/smoke_grid.json"),
                      "--out", str(out)],
                     ["test", series_path, "--method", "permutation", "--seed", "7",
                      "--format", "json"]]
            stdouts = [subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "lrdkendall.cli", *argv],
                env=child_env(PYTHONHASHSEED=hash_seed), capture_output=True, timeout=120,
                check=True,
            ).stdout for argv in calls]
            return out.read_bytes(), *stdouts

        first = run("0")
        assert first[1] and first[2].startswith(b"{")
        assert run("1") == first


#: values that sit at or beyond the edges of float arithmetic
EXTREMES = ("nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "5e-324", "-0.0")
PROBE_VALUES = ["3.0", "1.0", "4.0", "1.5", "5.0", "9.0", "2.0", "6.0"]  # n = 8: exhaustive runs


def _series_csv(value=None, time=None, cells=(3,)):
    rows = [[str(i), x] for i, x in enumerate(PROBE_VALUES)]
    for i in cells if value is not None else ():
        rows[i][1] = value
    if time is not None:
        rows[5][0] = time
    return "t,v\n" + "".join(",".join(r) + "\n" for r in rows)


def _panel_csv(value=None, cells=(7,)):
    rows = [[g, str(t), PROBE_VALUES[(t + k) % 8]] for k, g in enumerate("abc") for t in range(6)]
    for i in cells if value is not None else ():  # rows 6 to 11 are group b
        rows[i][2] = value
    return "g,t,v\n" + "".join(",".join(r) + "\n" for r in rows)


def _probe_cases():
    """(argv, files) params: argv names each file as {name}, files maps name to its text."""
    plain = {"series": _series_csv(), "panel": _panel_csv()}
    grid = "--d-grid=0:1:0.5"
    cases = []
    for v in EXTREMES:
        files = {
            **plain,
            "series_v": _series_csv(value=v),
            "series_t": _series_csv(time=v),
            "panel_v": _panel_csv(value=v),
            # two extreme cells, so that a sum of the values can overflow
            "series_vv": _series_csv(value=v, cells=(3, 4)),
            "panel_vv": _panel_csv(value=v, cells=(7, 8)),
            "dens_x": f"x,f\n-1,0\n0,1\n{v},0\n",
            "dens_f": f"x,f\n-1,0\n0,{v}\n1,0\n",
        }
        for argv in (
            ["test", "{series}", f"--lrd={v}"],
            ["test", "{series}", f"--lrd={v}", "--lrd-mode=fraction-of-mean"],
            ["test", "{series}", f"--lrd={v}", "--method=permutation", "--permutations=50"],
            ["test", "{series}", f"--lrd={v}", "--method=exhaustive", "--boundary=lt"],
            ["regional", "{panel}", f"--lrd={v}"],
            ["regional", "{panel}", f"--lrd={v}", "--lrd-mode=fraction-of-mean",
             "--method=permutation", "--permutations=50"],
            ["test", "{series_v}"],
            ["test", "{series_v}", "--method=permutation", "--permutations=50"],
            ["test", "{series_t}"],
            ["regional", "{panel_v}"],
            ["regional", "{panel_v}", "--method=permutation", "--permutations=50"],
            ["test", "{series_vv}", "--lrd=0.1", "--lrd-mode=fraction-of-mean"],
            ["regional", "{panel_vv}", "--lrd=0.1", "--lrd-mode=fraction-of-mean"],
            ["power", f"--density=normal:{v}", grid],
            ["power", f"--density=uniform:{v}:1", grid],
            ["power", f"--density=uniform:-1:{v}", grid],
            ["power", "--density=file:{dens_x}", grid],
            ["power", "--density=file:{dens_f}", grid],
            ["power", "--density=normal:1", f"--d-grid=0:{v}:{v}"],
            ["power", "--density=normal:1", f"--d-grid={v}:1:0.5"],
            ["power", "--density=normal:1", grid, f"--slope={v}"],
            ["power", "--density=normal:1", grid, f"--alpha={v}"],
        ):
            cases.append(pytest.param(argv, files, id=f"{v}: {' '.join(argv)}"))
    # unit mass on a grid whose span overflows
    wide = ["power", "--density=file:{wide}", grid]
    cases.append(pytest.param(wide, {"wide": "x,f\n-1e308,0\n0,1e-308\n1e308,0\n"},
                              id=" ".join(wide)))
    return cases


class TestAdversarialArgv:
    @pytest.mark.parametrize("argv, files", _probe_cases())
    def test_exits_cleanly(self, capsys, tmp_path, argv, files):
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text)
        code = main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)
