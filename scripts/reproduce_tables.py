#!/usr/bin/env python3
"""Run a simulation grid config and print blocked summary tables.

Produces one block per (distribution, n, base scale) combination with a
row per d ratio and a column per trend, first for rejection rates and
then for mean tie proportions.  This is the layout used in the study
write-up, so a diff against the tabulated values is a visual check.

Example:
    python scripts/reproduce_tables.py configs/full_grid.json --out grid.csv
"""

import argparse
import sys
import time
from collections import defaultdict

from lrdkendall import InputError, load_grid_config, run_grid, write_grid_csv
from lrdkendall.cli import _open_out


def blocked(keys):
    """Regroup cell keys as blocks[(dist, n, sd_base)][ratio][trend].

    Two keys that would land in one place, because their error_sds read
    as the same scale, raise InputError before any cell runs, so no cell
    is dropped.
    """
    blocks = defaultdict(lambda: defaultdict(dict))
    for key in keys:
        # by significant digits, so 3375 ** (1/3) groups with 15 and 1e-7 stays apart from 3e-7
        sd_base = float(f"{key.error_sd ** (1.0 / key.p):.12g}")
        cells = blocks[(key.distribution, key.n, sd_base)][key.d_ratio]
        held = cells.setdefault((key.theta, key.p), key)
        if held != key:  # a repeated key is one cell, as in run_grid
            raise InputError(
                f"error_sd {held.error_sd!r} and {key.error_sd!r} both read as "
                f"scale {sd_base:g}, so one block would hold two cells"
            )
    return blocks


def print_block(title, rows, trends, grid, field):
    print(f"\n{title}")
    header = "  ratio " + "".join(f"  theta={t:g},p={p:g}" for t, p in trends)
    print(header)
    for ratio in sorted(rows):
        keys = rows[ratio]
        line = f"  {ratio:5.2f} "
        for trend in trends:
            value = getattr(grid[keys[trend]], field)
            line += f"  {value:12.3f}"
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="grid config JSON")
    parser.add_argument("--replicates", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="also write the flat grid as CSV")
    args = parser.parse_args(argv)

    try:
        scenarios = load_grid_config(args.config, replicates=args.replicates, seed=args.seed)
        blocks = blocked(s.key(r) for s in scenarios for r in s.d_ratios)
        with _open_out(args.out) as fh:
            start = time.time()
            grid = run_grid(scenarios)
            if fh is not None:
                write_grid_csv(grid, fh)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(grid)} cells in {time.time() - start:.1f} s")

    trends = sorted({trend for rows in blocks.values() for cells in rows.values() for trend in cells})
    for block_key in sorted(blocks):
        dist, n, sd_base = block_key
        label = f"{dist}, n={n}, scale={sd_base:g}"
        print_block(f"rejection rate  ({label})", blocks[block_key], trends, grid, "rejection_rate")
        print_block(f"tie proportion  ({label})", blocks[block_key], trends, grid,
                    "mean_tie_proportion")

    if args.out:
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
