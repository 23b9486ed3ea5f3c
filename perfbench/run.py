"""Benchmark of the lrdkendall package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed. Each run starts the workload in fresh
processes (worker.py), checks every result, prints each metric by name
with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones of a separate traced run. A
record of the run (versions, machine, seed, input sizes, every figure)
is written to ``perfbench/results/``. ``--smoke`` is the benchmark's
self-test. See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("cli_calls", "long_series", "permutation_draws", "sim_grid")
# The timed calls of a run are split over this many fresh worker processes,
# one after another. Each also yields one set-up time; setup_s is their
# median. On a shared host call times differ from one process to the next
# as well as over time; pooling processes averages the per-process part.
WORKERS = 5
MIN_CALLS = 11        # the tail percentile needs at least ten calls beyond it
DEADLINE_S = 170.0    # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name == "core.time_exponent":
        return "slope"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def extra_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("percentile"):
        return "%"
    if name == "error_ratio":
        return "ratio"
    return "count"


class RunError(RuntimeError):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("LRDKENDALL_THREADS", None)   # the library default: one worker
    return env


def spawn_worker(args, scratch: Path, deadline: float, seconds: float, min_calls: int,
                 extra=()) -> dict:
    """Run worker.py in a fresh process group; return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--min-calls", str(min_calls),
           "--scratch", str(scratch), "--root", str(ROOT), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a worker")
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(time.monotonic())],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        # the whole group, so CLI children of the worker stop too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError("worker did not finish in time")
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}", proc.returncode)
    return json.loads(stdout.strip().splitlines()[-1])


def warm_up(deadline: float) -> None:
    """Import the package once, untimed, so set-up times see warm caches.

    This compiles the bytecode on a fresh checkout and pulls the package's
    files into the page cache, as they are for a user who runs it again.
    """
    try:
        subprocess.run([sys.executable, "-c", "import lrdkendall"], env=child_env(), cwd=ROOT,
                       check=True, timeout=max(deadline - time.monotonic(), 1.0))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        raise RunError(f"warm-up import failed: {e}")


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten calls beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize(workload: str, parts: list[dict]) -> dict:
    """End-to-end metrics from the calls of all workers of one run."""
    calls = [c for part in parts for c in part["calls"]]
    times = [c["seconds"] for c in calls]
    failed = sum(1 for c in calls if c["problems"])
    setups = [part["setup_s"] for part in parts]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "call_p50_ms": statistics.median(times) * 1000.0,
        "call_tail_ms": tail_s * 1000.0,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }
    extra = {"call_tail_percentile": tail_pct, "calls": len(calls),
             "error_ratio": failed / len(calls)}
    prefix = "cli_" if workload == "cli_calls" else ""
    for kind in sorted({c["kind"] for c in calls}):
        kind_times = [c["seconds"] for c in calls if c["kind"] == kind]
        extra[f"{prefix}{kind}_p50_ms"] = statistics.median(kind_times) * 1000.0
        extra[f"{kind}_calls"] = len(kind_times)
    for unit, key in (("draws", "draws_per_s"), ("replicates", "replicates_per_s")):
        done = [c for c in calls if unit in c["work"]]
        if done:
            extra[key] = sum(c["work"][unit] for c in done) / sum(c["seconds"] for c in done)
    return {
        "attempted": len(calls),
        "failed": failed,
        "problems": [p for c in calls for p in c["problems"]][:10],
        "metrics": metrics,
        "extra": extra,
        "sizes": parts[0]["sizes"],
        "setup_s_samples": setups,
        "call_log_ms": [[c["kind"], c["seconds"] * 1000.0] for c in calls],
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def run_record(args, result: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache": cache_sizes(),
        # workers run with the variable unset: the library default of one thread
        "LRDKENDALL_THREADS": {"inherited": os.environ.get("LRDKENDALL_THREADS"),
                               "in_workers": None},
        **result,
    }


def run(args) -> int:
    if not (ROOT / "src" / "lrdkendall" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'lrdkendall'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir()
    flags = ["--corrupt"] if args.corrupt else []
    try:
        if args.trace:
            result = spawn_worker(args, scratch, deadline, args.seconds, MIN_CALLS,
                                  ["--trace", *flags])
            units = {name: layer_unit(name) for name in result["metrics"]}
        else:
            warm_up(deadline)
            # each worker gets an equal share of the time the earlier ones left
            # and continues the call sequence where the previous one stopped
            per_worker = -(-MIN_CALLS // WORKERS)
            parts = []
            left = args.seconds
            for k in range(WORKERS):
                share = max(left, 0.0) / (WORKERS - k)
                first = sum(len(part["calls"]) for part in parts)
                parts.append(spawn_worker(args, scratch, deadline, share, per_worker,
                                          [*flags, "--first-call", str(first)]))
                left -= parts[-1]["loop_s"]
            result = summarize(args.workload, parts)
            units = END_TO_END_UNITS
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = run_record(args, result)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2) + "\n")

    for key, value in result["metrics"].items():
        print(f"{key:<44} {value:>14.6g} {units[key]}")
    for key, value in result["extra"].items():
        print(f"{key:<44} {value:>14.6g} {extra_unit(key)}  (record only)")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


# ── self-test ───────────────────────────────────────────────────────────


def _invoke(*argv) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RunError(f"run.py {' '.join(argv)} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units_problems(label: str, metrics: dict, want: dict) -> list[str]:
    problems = []
    if set(metrics) != set(want):
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(want))} "
                        "printed but not declared, or declared but not printed")
    for name, body in metrics.items():
        if name in want and body["unit"] != want[name]:
            problems.append(f"{label}: {name} unit {body['unit']} != {want[name]}")
        if not isinstance(body["value"], (int, float)):
            problems.append(f"{label}: {name} value {body['value']!r} is not a number")
    return problems


def smoke() -> int:
    """Every declared metric printed with its unit; corrupted results fail."""
    sys.path.insert(0, str(HERE))
    from workloads import LONG_N, MemoryGuardError, check_footprint

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    try:
        for workload in WORKLOADS:
            common = ["--workload", workload, "--seed", "1", "--seconds", "1"]
            good = _invoke(*common, "--trace", "0")
            problems += _units_problems(workload, good["metrics"], e2e)
            if not good["correct"] or good["failed"]:
                problems.append(f"{workload}: {good['failed']} of {good['attempted']} failed")
            bad = _invoke(*common, "--trace", "0", "--corrupt")
            if bad["correct"] or bad["failed"] != bad["attempted"]:
                problems.append(f"{workload}: corrupted results passed "
                                f"({bad['failed']} of {bad['attempted']} failed)")
            print(f"smoke {workload}: ok" if not problems else f"smoke {workload}: {problems}")
        traced = _invoke("--workload", "permutation_draws", "--seed", "1",
                         "--seconds", "1", "--trace", "1")
        problems += _units_problems("trace", traced["metrics"], per_layer)
    except RunError as e:
        problems.append(str(e))
    try:
        check_footprint(10**6, "smoke")
        problems.append("memory guard accepted n = 10^6")
    except MemoryGuardError:
        pass
    check_footprint(LONG_N, "smoke")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt every result before checking it (self-test)")
    parser.add_argument("--smoke", action="store_true", help="run the self-test")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
