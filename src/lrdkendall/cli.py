"""Command-line front end.

Four subcommands: ``test`` (one series), ``regional`` (grouped input),
``power`` (analytic curves), ``simulate`` (Monte Carlo grids). Exit
codes: 0 success, 2 unusable input or flags, 3 a statistical
precondition failed (e.g. asking the analytic path for a one-directional
rule). Warnings never change the exit code.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .datasets import read_input_file
from .errors import InputError, LrdKendallError
from .inference import run_test
from .permutation import permutation_test, regional_permutation_test
from .power import ErrorDensity, power_curve
from .regional import LrdPolicy, RegionalDataset, regional_test
from .report import render_json, render_text, write_grid_csv
from .seeds import MAX_REPLICATES
from .simulation import load_grid_config, run_grid

_DIRECTIONS = {"sym": "symmetric", "pos": "positive_only", "neg": "negative_only"}
_SIDEDNESS = {"two": "two_sided", "greater": "greater", "less": "less"}
_POLICY_KINDS = {"absolute": "absolute", "fraction-of-mean": "fraction_of_group_mean"}
MAX_GRID_POINTS = 1_000_000


def _policy_flags(sub, with_direction: bool) -> None:
    sub.add_argument("input", help="CSV file (see the input format in datasets.py)")
    sub.add_argument("--lrd", type=float, default=0.0, metavar="D",
                     help="relevant-difference threshold (default 0)")
    sub.add_argument("--lrd-mode", choices=sorted(_POLICY_KINDS), default="absolute",
                     help="read --lrd as an absolute value or a fraction of the mean")
    sub.add_argument("--boundary", choices=["leq", "lt"], default="leq",
                     help="whether a difference of exactly D is a tie (leq) or not (lt)")
    if with_direction:
        sub.add_argument("--direction", choices=sorted(_DIRECTIONS), default="sym",
                         help="threshold both directions (sym) or only one")
    sub.add_argument("--sided", choices=sorted(_SIDEDNESS), default="two",
                     help="tail convention for the p-value")
    sub.add_argument("--method", choices=["normal", "permutation", "exhaustive"],
                     default="normal", help="inference path")
    sub.add_argument("--permutations", type=int, default=10000, metavar="R",
                     help="replicates for the permutation path, at most "
                          f"{MAX_REPLICATES} (default 10000)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--no-continuity", action="store_true",
                     help="standardize the raw score without the +/-1 correction")
    sub.add_argument("--format", choices=["text", "json"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrdkendall",
        description="Trend tests that treat nearly equal values as ties.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    t = subs.add_parser("test", help="trend test on a single series")
    _policy_flags(t, with_direction=True)
    t.set_defaults(func=cmd_test)

    r = subs.add_parser("regional", help="aggregate trend test on grouped input")
    _policy_flags(r, with_direction=False)
    r.set_defaults(func=cmd_regional)

    p = subs.add_parser("power", help="asymptotic power across thresholds")
    p.add_argument("--density", required=True, metavar="SPEC",
                   help="normal:SIGMA | uniform:LOWER:UPPER | file:PATH")
    p.add_argument("--slope", "--lambda", dest="slope", type=float, default=1.0,
                   help="local trend coefficient (default 1)")
    p.add_argument("--d-grid", default="0:3:0.01", metavar="START:STOP:STEP",
                   help=f"threshold grid of at most {MAX_GRID_POINTS} points "
                        "(default 0:3:0.01)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="two-sided test size (default 0.05)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_power)

    s = subs.add_parser("simulate", help="Monte Carlo grid from a JSON config")
    s.add_argument("--config", required=True, help="grid config path (schema in simulation.py)")
    s.add_argument("--replicates", type=int, default=None,
                   help=f"override the config's replicate count, at most {MAX_REPLICATES}")
    s.add_argument("--seed", type=int, default=None, help="override the config's seed")
    s.add_argument("--out", default=None, metavar="PATH",
                   help="also write the grid as CSV to this path")
    s.add_argument("--format", choices=["text", "json"], default="text")
    s.set_defaults(func=cmd_simulate)

    return parser


def _emit(result, fmt: str) -> int:
    text = render_json(result) if fmt == "json" else render_text(result)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _policy(args) -> LrdPolicy:
    """The threshold policy of the --lrd, --lrd-mode and --boundary flags."""
    return LrdPolicy(kind=_POLICY_KINDS[args.lrd_mode], value=args.lrd, boundary=args.boundary)


def cmd_test(args) -> int:
    data = read_input_file(args.input)
    if isinstance(data, RegionalDataset):
        raise InputError("input has groups; use the regional command")
    rule = replace(_policy(args).rule_for(data), direction=_DIRECTIONS[args.direction])
    sidedness = _SIDEDNESS[args.sided]
    if args.method == "normal":
        result = run_test(data, rule, sidedness=sidedness,
                          continuity=not args.no_continuity)
    else:
        result = permutation_test(
            data, rule,
            replicates=args.permutations,
            seed=args.seed,
            sidedness=sidedness,
            method="sampled" if args.method == "permutation" else "exhaustive",
        )
    return _emit(result, args.format)


def cmd_regional(args) -> int:
    data = read_input_file(args.input)
    if not isinstance(data, RegionalDataset):
        raise InputError("input is a single series; use the test command")
    policy = _policy(args)
    sidedness = _SIDEDNESS[args.sided]
    if args.method == "exhaustive":
        raise InputError("exhaustive enumeration is not available for grouped input")
    if args.method == "normal":
        result = regional_test(data, policy, sidedness=sidedness,
                               continuity=not args.no_continuity)
    else:
        result = regional_permutation_test(
            data, policy,
            replicates=args.permutations,
            seed=args.seed,
            sidedness=sidedness,
        )
    return _emit(result, args.format)


def _parse_density(spec: str) -> ErrorDensity:
    kind, _, rest = spec.partition(":")
    if kind == "file":
        return _read_density_file(rest)
    try:
        if kind == "normal":
            return ErrorDensity.normal(float(rest))
        if kind == "uniform":
            lower, upper = rest.split(":")
            return ErrorDensity.uniform(float(lower), float(upper))
    except InputError:
        raise  # the density's own reason
    except ValueError:
        raise InputError(
            f"bad density spec {spec!r}; expected normal:SIGMA or uniform:LOWER:UPPER"
        ) from None
    raise InputError(f"unknown density kind in {spec!r}")


def _read_density_file(path: str) -> ErrorDensity:
    """Two-column CSV (x, f(x)), optional header."""
    xs, fs = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                if len(cells) != 2:
                    raise InputError(f"{path} line {lineno}: expected 2 columns")
                try:
                    x, f = float(cells[0]), float(cells[1])
                except ValueError:
                    if lineno == 1:
                        continue  # header
                    raise InputError(
                        f"{path} line {lineno}: cannot parse {line!r}"
                    ) from None
                xs.append(x)
                fs.append(f)
    except OSError as e:
        raise InputError(f"cannot read density file {path}: {e}") from e
    return ErrorDensity.tabulated(xs, fs)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError(f"d-grid must be START:STOP:STEP, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise InputError(f"bad d-grid {spec!r}") from None
    if not np.all(np.isfinite((start, stop, step))):
        raise InputError(f"d-grid values must be finite, got {spec!r}")
    if step <= 0 or stop < start or start < 0:
        raise InputError(f"need 0 <= START <= STOP and STEP > 0, got {spec!r}")
    points = (stop + step / 2 - start) / step  # np.arange rounds this up
    if points > MAX_GRID_POINTS:
        raise InputError(f"d-grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return np.arange(start, stop + step / 2, step)


def cmd_power(args) -> int:
    density = _parse_density(args.density)
    grid = _parse_grid(args.d_grid)
    points = power_curve(density, args.slope, grid, alpha_level=args.alpha)
    return _emit(points, args.format)


def cmd_simulate(args) -> int:
    scenarios = load_grid_config(args.config, replicates=args.replicates, seed=args.seed)
    results = run_grid(scenarios)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_grid_csv(results, fh)
    return _emit(results, args.format)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LrdKendallError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
