#!/usr/bin/env python3
"""Time both sides of core's two scoring crossovers, on a fresh heap and a warm one.

Each row times the two routes of one decision at one length n under one rule:
the route taken below the constant ("short") and the one taken from it on
("long"), in microseconds per call, and long / short.

* sort: ``core.pair_counts`` of one series, by the lag kernel below
  ``core._SORT_MIN_N`` and by ranks (the sort route) from it on.
* row, chunk: ``core._rank_scores`` of one row of permuted ranks, and of one full
  chunk of them (``seeds.CHUNK_CELLS // (n (n - 1))`` rows, as a permutation
  null draws them), by its byte loop below ``core._MERGE_MIN_N`` and merged
  from it on.

The series are 0.1-grid random walks, scored under leq at d = 0.6, lt at d = 0
and positive_only at d = 0.6. Each call's route is forced by setting the
constant to 0 or beyond every n; the two routes alternate call by call, each
first in every other round, and a cell is the median of ``rounds`` calls. Each
table runs in a new interpreter. The warm one first allocates and frees one
16 MB array: glibc raises its mmap threshold to the size of a freed mapping (up
to 32 MB), so later scratch arrays come from the heap, not from fresh pages, as
in a process that has run for a while.

Example:
    python scripts/route_crossovers.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from unittest import mock

import numpy as np

import lrdkendall
from lrdkendall import core
from lrdkendall.seeds import CHUNK_CELLS

RULES = {"leq 0.6": core.LrdRule(0.6), "lt 0": core.LrdRule(0.0, "lt"),
         "positive_only 0.6": core.LrdRule(0.6, direction="positive_only")}
# runs measure() in a child, as the file's functions, without its __main__ block
CHILD = ("import json, runpy, sys; "
         "print(json.dumps(runpy.run_path(sys.argv[1])['measure'](*json.loads(sys.argv[2]))))")


def measure(warm, sort_sizes, merge_sizes, rounds, seed=0):
    """[decision, n, rule, short, long] rows of median microseconds, timed in this process."""
    if warm:
        np.ones(2**21).sum()  # 16 MB, freed at once
    rng = np.random.default_rng(seed)
    rows = []
    for decision, constant, sizes in (("sort", "_SORT_MIN_N", sort_sizes),
                                      ("row", "_MERGE_MIN_N", merge_sizes),
                                      ("chunk", "_MERGE_MIN_N", merge_sizes)):
        for n in sizes:
            x = np.round(np.cumsum(rng.normal(size=n)), 1)
            m = 1 if decision == "row" else max(1, CHUNK_CELLS // (n * (n - 1)))
            for label, rule in RULES.items():
                if decision == "sort":
                    args, call = (x[None, :], rule), core.pair_counts
                else:
                    rank, _, *bounds = core._rank_bounds(x, rule)
                    args = rng.permuted(np.tile(rank, (m, 1)), axis=1), *bounds
                    call = core._rank_scores
                times = np.empty((rounds, 2))
                for r in range(rounds):
                    for side in ((0, 1), (1, 0))[r % 2]:
                        with mock.patch.object(core, constant, (10**9, 0)[side]):
                            start = perf_counter()
                            call(*args)
                            times[r, side] = perf_counter() - start
                rows.append([decision, n, label, *(np.median(times, axis=0) * 1e6).tolist()])
    return rows


def main(sort_sizes=(96, 128, 144, 160, 192, 256),
         merge_sizes=(1000, 1100, 1200, 1250, 1300, 1400, 1500), rounds=61):
    """Print the fresh-heap table, then the warm-heap one; returns 0."""
    src = str(Path(lrdkendall.__file__).parents[1])  # the children import this package
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for heap in ("fresh", "warm"):
        args = json.dumps([heap == "warm", sort_sizes, merge_sizes, rounds])
        child = subprocess.run([sys.executable, "-c", CHILD, __file__, args], env=env,
                               stdout=subprocess.PIPE, text=True, check=True)
        print(f"{heap} heap: median us of {rounds} interleaved calls")
        print(f"{'decision':<9}{'n':>6}  {'rule':<18}{'short':>9}{'long':>9}{'long/short':>11}")
        for decision, n, rule, short, long in json.loads(child.stdout):
            print(f"{decision:<9}{n:>6}  {rule:<18}{short:>9.0f}{long:>9.0f}{long / short:>11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
