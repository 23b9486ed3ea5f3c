"""Per-layer metrics of the traced run.

Three sources feed them:

* ``python -X importtime`` children give the import cost of the package,
  of ``lrdkendall.power`` and of numpy and scipy; ``python -c pass`` is
  the interpreter floor.
* A sweep over n = 1000 and 4000 gives the growth exponent of the core
  pairwise work and the bytes its arrays occupy.
* Spans recorded by ``tracer`` around the public functions give time,
  self time and work counts per layer.

Every span metric is taken on one home workload, the one whose
end-to-end numbers it should move (see README.md), and is averaged per
operation of that workload unless its name says otherwise.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from tracer import LAYERS
from workloads import check_footprint, random_walk

SWEEP_SIZES = (1000, 4000)

# name: (span names, home workload, op kinds or None for all, statistic)
#   ms     inclusive time per operation, summed over the op's calls
#   self   time per operation not covered by direct child spans
#   calls  spans per operation
#   work   work counts (pairs, draws, replicates) per operation
SPAN_METRICS = {
    "datasets.read_input_file_ms": (("datasets.read_input_file",), "cli_calls", ("test", "regional"), "ms"),
    "report.render_json_ms": (("report.render_json",), "cli_calls", None, "ms"),
    "regional.regional_test_ms": (("regional.regional_test",), "cli_calls", ("regional",), "ms"),
    "power.power_curve_ms": (("power.power_curve",), "cli_calls", ("power",), "ms"),
    "power.moments_ms": (("power.moments",), "cli_calls", ("power",), "ms"),
    "power.moments_calls": (("power.moments",), "cli_calls", ("power",), "calls"),
    "power.diff_density_ms": (("power.diff_density",), "cli_calls", ("power",), "ms"),
    "core.s_extended_ms": (("core.s_extended",), "long_series", None, "ms"),
    "core.uv_counts_ms": (("core.uv_counts",), "long_series", None, "ms"),
    "core.tie_proportion_ms": (("core.tie_proportion",), "long_series", None, "ms"),
    "core.pairs": (("core.s_extended", "core.uv_counts", "core.tie_proportion"),
                   "long_series", None, "work"),
    "variance.var_extended_hat_ms": (("variance.var_extended_hat",), "long_series", None, "ms"),
    "variance.var_classical_ms": (("variance.var_classical",), "long_series", None, "ms"),
    "variance.tie_groups_ms": (("variance.tie_groups",), "long_series", None, "ms"),
    "inference.run_test_ms": (("inference.run_test",), "long_series", None, "ms"),
    "inference.self_ms": (("inference.run_test",), "long_series", None, "self"),
    "permutation.permutation_test_ms": (("permutation.permutation_test",), "permutation_draws",
                                        ("sampled_sym", "sampled_pos", "exhaustive"), "ms"),
    "permutation.regional_permutation_test_ms": (("permutation.regional_permutation_test",),
                                                 "permutation_draws", ("regional",), "ms"),
    "permutation.self_ms": (("permutation.permutation_test", "permutation.regional_permutation_test"),
                            "permutation_draws", None, "self"),
    "permutation.draws": (("permutation.permutation_test", "permutation.regional_permutation_test"),
                          "permutation_draws", None, "work"),
    "seeds.generator_for_calls": (("seeds.generator_for",), "permutation_draws", None, "calls"),
    "seeds.generator_for_ms": (("seeds.generator_for",), "permutation_draws", None, "ms"),
    "simulation.cells": (("simulation.run_cell",), "sim_grid", None, "calls"),
    "simulation.replicates": (("simulation.run_cell",), "sim_grid", None, "work"),
}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import milliseconds of lrdkendall, its power module, numpy, scipy.

    numpy and scipy are the sums over their outermost imported modules,
    since a subpackage can be the first to pull them in.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1000.0))
    out = {"lrdkendall": 0.0, "lrdkendall.power": 0.0, "numpy": 0.0, "scipy": 0.0}
    # -X importtime prints children before their parent, one level deeper
    for k, (depth, name, ms) in enumerate(rows):
        if name in ("lrdkendall", "lrdkendall.power"):
            out[name] = ms
            continue
        top = name.split(".")[0]
        if top not in ("numpy", "scipy"):
            continue
        parent = next((r[1] for r in rows[k + 1:] if r[0] < depth), "")
        if parent.split(".")[0] != top:
            out[top] += ms
    return out


def import_metrics(python: str, env: dict, reps: int = 3) -> dict[str, float]:
    runs = []
    for _ in range(reps):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import lrdkendall"],
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import lrdkendall failed: {proc.stderr.strip()[-300:]}")
        runs.append(parse_importtime(proc.stderr))
    floor = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, check=True, timeout=60)
        floor.append(time.perf_counter() - start)
    return {
        "import.lrdkendall_ms": statistics.median(r["lrdkendall"] for r in runs),
        "import.power_ms": statistics.median(r["lrdkendall.power"] for r in runs),
        "import.scipy_ms": statistics.median(r["scipy"] for r in runs),
        "import.numpy_ms": statistics.median(r["numpy"] for r in runs),
        "cli.interpreter_ms": statistics.median(floor) * 1000.0,
    }


def core_sweep(lib, seed: int) -> dict[str, float]:
    """Growth exponent of s_extended + uv_counts, and peak bytes of the core calls.

    The exponent is the log-log slope of the median time between the two
    sweep sizes. The bytes are computed, not measured traffic: the peak
    of numpy allocations live during each of s_extended, uv_counts and
    tie_proportion at the largest size, summed, as tracemalloc sees them.
    """
    rng = np.random.default_rng([seed, *b"core_sweep"])
    rule = lib.LrdRule(d=0.6)
    timings = {}
    for n in SWEEP_SIZES:
        check_footprint(n, "core sweep")
        series = lib.Series.from_values(random_walk(rng, n))
        reps = []
        for _ in range(5):
            start = time.perf_counter()
            lib.s_extended(series, rule)
            lib.uv_counts(series, rule)
            reps.append(time.perf_counter() - start)
        timings[n] = statistics.median(reps)
    small, large = SWEEP_SIZES
    exponent = math.log(timings[large] / timings[small]) / math.log(large / small)

    # series now holds the largest sweep size
    peak = 0
    tracemalloc.start()
    try:
        for fn in (lib.s_extended, lib.uv_counts, lib.tie_proportion):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(series, rule)
            peak += tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"core.time_exponent": exponent, "core.bytes_computed_mb": peak / 1e6}


def span_metrics(spans, ops: dict) -> dict[str, float]:
    """Per-layer metrics from spans; ``ops`` maps op id to (workload, kind)."""
    child_time = defaultdict(float)
    for _, parent, _, _, start, end, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)

    out = {}
    for metric, (names, home, kinds, stat) in SPAN_METRICS.items():
        chosen = {op for op, (workload, kind) in ops.items()
                  if workload == home and (kinds is None or kind in kinds)}
        picked = [s for name in names for s in by_name[name] if s[2] in chosen]
        if stat == "ms":
            total = sum(s[5] - s[4] for s in picked) * 1000.0
        elif stat == "self":
            total = sum(s[5] - s[4] - child_time[s[0]] for s in picked) * 1000.0
        elif stat == "calls":
            total = len(picked)
        else:
            total = sum(s[6] for s in picked)
        out[metric] = total / max(len(chosen), 1)

    sim_ops = {op for op, (workload, _) in ops.items() if workload == "sim_grid"}
    cells = [s for s in by_name["simulation.run_cell"] if s[2] in sim_ops]
    generators = [s for s in by_name["seeds.generator_for"] if s[2] in sim_ops]
    out["simulation.run_cell_ms"] = (
        sum(s[5] - s[4] for s in cells) * 1000.0 / max(len(cells), 1))
    out["simulation.generator_calls_per_cell"] = len(generators) / max(len(cells), 1)

    errors = defaultdict(int)
    for span in spans:
        if span[7]:
            errors[span[3].split(".")[0]] += 1
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    return out
