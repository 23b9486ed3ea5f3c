"""The example scripts under scripts/, run through their main() on small inputs."""

import importlib.util
import json
from pathlib import Path

import pytest

from lrdkendall.cli import main

REPO = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReproduceTables:
    def test_smoke_grid_tables_and_csv(self, capsys, tmp_path):
        script = load_script("reproduce_tables")
        out = tmp_path / "grid.csv"
        config = str(REPO / "configs" / "smoke_grid.json")
        assert script.main([config, "--replicates", "50", "--seed", "3", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("4 cells in ")
        assert "rejection rate  (normal, n=20, scale=15)" in text
        assert "tie proportion  (normal, n=20, scale=15)" in text
        assert len(out.read_text().splitlines()) == 5  # header + 4 cells
        # the script writes the CLI's grid, byte for byte
        cli_out = tmp_path / "cli.csv"
        assert main(["simulate", "--config", config, "--replicates", "50", "--seed", "3",
                     "--out", str(cli_out)]) == 0
        assert out.read_bytes() == cli_out.read_bytes()

    def test_each_scale_gets_its_own_block(self, capsys, tmp_path):
        # scales rounded to 6 decimals merged 1e-7 and 3e-7 into one "scale=0"
        # block, which dropped a cell without a word
        config = json.loads((REPO / "configs" / "smoke_grid.json").read_text())
        trends = [{"theta": 0.0, "p": 1}, {"theta": 0.0, "p": 3}]
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(dict(
            config, sd_bases=[1e-7, 3e-7, 15.0], trends=trends, d_ratios=[0.0], replicates=20
        )))
        script = load_script("reproduce_tables")
        assert script.main([str(path)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("6 cells in ")
        titles = [line for line in text.splitlines() if line.startswith("rejection rate")]
        # at p = 3, (15 ** 3) ** (1/3) is 14.999999999999998, still the scale=15 block
        assert titles == [
            f"rejection rate  (normal, n=20, scale={scale})" for scale in ("1e-07", "3e-07", "15")
        ]

    def test_scales_that_read_alike_are_one_line_error_before_any_cell(
        self, capsys, monkeypatch, tmp_path
    ):
        # 1.0 and 1.0000000000001 agree to 12 digits: the script printed
        # "2 cells in" and then one row, dropping a cell without a word
        script = load_script("reproduce_tables")

        def no_run(scenarios):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(script, "run_grid", no_run)
        config = json.loads((REPO / "configs" / "smoke_grid.json").read_text())
        path = tmp_path / "alike.json"
        path.write_text(json.dumps(dict(
            config, sd_bases=[1.0, 1.0000000000001], trends=[{"theta": 0.0, "p": 1}],
            d_ratios=[0.0],
        )))
        assert script.main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: error_sd 1.0 and 1.0000000000001 both read as "
                                "scale 1, so one block would hold two cells\n")

    def test_repeated_scale_is_one_cell(self, capsys, tmp_path):
        config = json.loads((REPO / "configs" / "smoke_grid.json").read_text())
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(dict(config, sd_bases=[15.0, 15.0], replicates=20)))
        script = load_script("reproduce_tables")
        assert script.main([str(path)]) == 0
        assert capsys.readouterr().out.startswith("4 cells in ")

    def test_unwritable_out_is_one_line_error_before_any_cell(self, capsys, monkeypatch, tmp_path):
        # --out was opened after the whole grid ran, then ended in a traceback
        script = load_script("reproduce_tables")

        def no_run(scenarios):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(script, "run_grid", no_run)
        out = tmp_path / "no" / "such" / "grid.csv"
        config = str(REPO / "configs" / "smoke_grid.json")
        assert script.main([config, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1

    def test_malformed_config_is_one_line_error(self, capsys, tmp_path):
        script = load_script("reproduce_tables")
        config = json.loads((REPO / "configs" / "smoke_grid.json").read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(config, sample_sizes=["x"])))
        assert script.main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestPowerCurveDemo:
    def test_normal_curve(self, capsys):
        script = load_script("power_curve_demo")
        assert script.main(["--density", "normal:1", "--step", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines[1:] if line.strip() and "gain" not in line]
        assert [float(row.split()[0]) for row in rows] == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        assert sum("<- max drift" in row for row in rows) == 1
        assert lines[-1].startswith("gain condition holds")

    def test_extreme_normal_scale(self, capsys):
        script = load_script("power_curve_demo")
        assert script.main(["--density", "normal:1e200", "--step", "0.5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("gain condition holds")

    def test_uniform_reports_missing_gain_condition(self, capsys):
        script = load_script("power_curve_demo")
        assert script.main(["--density", "uniform:-1:1", "--stop", "1", "--step", "0.5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("gain condition: ")

    @pytest.mark.parametrize("argv", [
        ["--density", "normal:abc"],
        ["--density", "uniform:1"],
        ["--density", "gamma:1"],
        ["--step", "0"],
        ["--step", "-0.1"],
        ["--stop", "nan"],
        ["--start", "2", "--stop", "1"],
    ])
    def test_bad_input_is_one_line_error(self, capsys, argv):
        script = load_script("power_curve_demo")
        assert script.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_knots_that_rescale_to_one_point(self, capsys, tmp_path):
        # rescaled to unit width, the two middle knots underflow to one point; the
        # gain masses divided 0 by 0 there, a RuntimeWarning that fails the test
        gains = []
        for name, rows in (("flat", "-1e200,0\n1e-300,1e-200\n2e-300,1e-200\n1e200,0\n"),
                           ("triangle", "-1e200,0\n0,1e-200\n1e200,0\n")):
            path = tmp_path / f"{name}.csv"
            path.write_text("x,f\n" + rows)
            script = load_script("power_curve_demo")
            assert script.main(["--density", f"file:{path}"]) == 0
            gains.append(capsys.readouterr().out.splitlines()[-1])
        assert gains == ["gain condition fails: lhs=0.00000000 rhs=0.00000000"] * 2

    def test_undecodable_density_file_is_one_line_error(self, capsys, tmp_path):
        # ended in a UnicodeDecodeError traceback
        path = tmp_path / "density.csv"
        path.write_bytes(b"x,f\n-1,0\n0,\xff\n")
        script = load_script("power_curve_demo")
        assert script.main(["--density", f"file:{path}"]) == 2
        assert capsys.readouterr().err == "error: not UTF-8 text: cannot decode byte 0xff\n"
