"""One workload in a fresh process: set up, then time calls or trace them.

Started by run.py, which passes the monotonic time at which it spawned
this process, so set-up time includes interpreter start, imports and
the library calls that build the inputs. Prints one JSON object on the
last line of its standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, dump


def run_loop(wl, seconds: float, min_calls: int, step, first: int = 0) -> float:
    """Call step(i) for i = first, first + 1, ... in a closed loop.

    Runs for ``seconds`` and at least ``min_calls`` calls, and ends on a
    whole unit. Returns the seconds the loop took.
    """
    start = time.perf_counter()
    i = first
    while i - first < min_calls or i % wl.unit or time.perf_counter() - start < seconds:
        step(i)
        i += 1
    return time.perf_counter() - start


def timed_call(wl, i: int, corrupt: bool, tracer: Tracer | None = None, op=None) -> dict:
    """One call, its wall time, and the problems its check found."""
    traced = tracer is not None
    if traced:
        tracer.op = op
        if wl.in_process:
            tracer.install()
    start = time.perf_counter()
    try:
        out = wl.call(i, traced=traced)
        error = None
    except Exception as e:  # a failed call is counted, not fatal
        out, error = None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - start
    if traced:
        if wl.in_process:
            tracer.uninstall()
        elif out is not None:
            tracer.add(wl.spans(out), op)
    if error is None:
        try:
            problems = wl.check(i, wl.corrupt(i, out) if corrupt else out)
        except Exception as e:
            problems = [f"check raised {type(e).__name__}: {e}"]
    else:
        problems = [error]
    work = wl.work(i, out) if error is None else {}
    return {"kind": wl.kind(i), "seconds": seconds, "problems": problems, "work": work}


def timed_run(wl, args) -> dict:
    """Untraced calls; run.py pools them with those of the other workers."""
    calls = []
    loop_s = run_loop(wl, args.seconds, args.min_calls,
                      lambda i: calls.append(timed_call(wl, i, args.corrupt)), args.first_call)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "calls": calls,
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "sizes": wl.sizes(),
    }


def traced_run(wl, args, scratch: Path, env: dict) -> dict:
    """Per-layer metrics; the workload runs alternately untraced and traced.

    Every other workload then runs one traced rotation, so each layer
    metric is measured on its home workload in every traced run.
    """
    import layers

    metrics = layers.import_metrics(sys.executable, env)
    metrics.update(layers.core_sweep(wl.lib, args.seed))
    tracer = Tracer()
    ops = {}
    records = []
    wall = {True: 0.0, False: 0.0}

    def traced_call(w, i):
        op = len(ops)
        ops[op] = (w.name, w.kind(i))
        records.append(timed_call(w, i, args.corrupt, tracer, op))
        return records[-1]["seconds"]

    def pair(i):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                wall[True] += traced_call(wl, i)
            else:
                records.append(timed_call(wl, i, args.corrupt))
                wall[False] += records[-1]["seconds"]

    run_loop(wl, args.seconds, args.min_calls, pair)
    for name, cls in workloads.WORKLOADS.items():
        if name == wl.name:
            continue
        other = cls(wl.root, args.seed, scratch)
        other.setup()
        for i in range(other.unit):
            traced_call(other, i)

    metrics.update(layers.span_metrics(tracer.spans, ops))
    metrics["trace.overhead_ratio"] = wall[True] / wall[False]
    dump(tracer.spans, scratch.parent / f"spans-{wl.name}-seed{args.seed}.jsonl")
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r["problems"]),
        "problems": [p for r in records for p in r["problems"]][:10],
        "metrics": metrics,
        "extra": {"spans": len(tracer.spans), "traced_ops": len(ops)},
        "sizes": wl.sizes(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-calls", type=int, required=True)
    parser.add_argument("--first-call", type=int, default=0,
                        help="index of the first call, so workers continue one sequence")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt every result before checking it (self-test)")
    args = parser.parse_args(argv)

    scratch = Path(args.scratch)
    wl = workloads.WORKLOADS[args.workload](Path(args.root), args.seed, scratch)
    try:
        wl.setup()
    except workloads.MemoryGuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    setup_s = time.monotonic() - args.spawned_at
    try:
        if args.trace:
            result = traced_run(wl, args, scratch, dict(os.environ))
        else:
            result = timed_run(wl, args)
    except workloads.MemoryGuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
