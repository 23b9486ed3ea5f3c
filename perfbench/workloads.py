"""The benchmark's four workloads.

Each workload is one client in a closed loop: it sends its next call only
after the previous one returned. ``setup`` builds every input from the
workload seed through library calls; ``call`` is the timed operation;
``check`` compares its result with an oracle from ``oracles`` and
returns the problems found. Why each workload exists is in README.md.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
import tracer as tracing

HERE = Path(__file__).resolve().parent

LONG_N = 4000
PERM_N = 30
EXHAUSTIVE_N = 8
PERMUTATIONS = 10_000
CLI_TIMEOUT_S = 120

# The core module builds n x n arrays: a float64 difference matrix plus
# its boolean mask, and the pair-index arrays, at up to ~16 bytes per
# cell at the peak of one call (measured at n = 4000). Budget twice that.
BYTES_PER_CELL = 32
SAFE_SHARE = 0.5


class MemoryGuardError(RuntimeError):
    """A series length whose n x n arrays would not fit in memory safely."""


def available_memory() -> int:
    """Bytes the kernel reports as available to new allocations."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import os
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_footprint(n: int, what: str, available: int | None = None) -> int:
    """Refuse a series length whose n x n arrays exceed a safe share of memory.

    Returns the estimated footprint in bytes when it is acceptable.
    """
    need = BYTES_PER_CELL * n * n
    have = available_memory() if available is None else available
    if need > SAFE_SHARE * have:
        raise MemoryGuardError(
            f"{what}: n={n} needs about {need / 1e6:.0f} MB of n x n arrays, "
            f"more than {SAFE_SHARE:.0%} of the {have / 1e6:.0f} MB available; "
            "refusing to run it"
        )
    return need


def random_walk(rng, n: int) -> np.ndarray:
    """A random walk rounded to 0.1, so exact duplicates occur."""
    return np.round(np.cumsum(rng.normal(size=n)), 1)


class Workload:
    name = ""
    unit = 1               # the timed loop stops only after a multiple of this
    in_process = True      # False: each call is a child process

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.rng = np.random.default_rng([seed, *self.name.encode()])

    def setup(self) -> None:
        import lrdkendall
        self.lib = lrdkendall

    def kind(self, i: int) -> str:
        raise NotImplementedError

    def call(self, i: int, traced: bool = False):
        raise NotImplementedError

    def spans(self, out) -> list:
        """Spans a traced child process recorded for this call's output."""
        return []

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def corrupt(self, i: int, out):
        """A deliberately wrong copy of ``out``, for the self-test."""
        raise NotImplementedError

    def work(self, i: int, out) -> dict:
        """Work units done by the call, e.g. permutation draws."""
        return {}

    def sizes(self) -> dict:
        raise NotImplementedError


# ── cli_calls ───────────────────────────────────────────────────────────


class CliCalls(Workload):
    name = "cli_calls"
    unit = 3
    in_process = False
    SERIES_N = 200

    def setup(self) -> None:
        super().setup()
        values = random_walk(self.rng, self.SERIES_N)
        series = self.lib.Series.from_values(values)
        self.csv = self.scratch / "series.csv"
        with open(self.csv, "w", encoding="utf-8") as fh:
            fh.write("time,value\n")
            for t, x in zip(series.times, series.values):
                fh.write(f"{int(t)},{float(x)!r}\n")
        self.values = series.values
        panel = self.root / "src" / "lrdkendall" / "data" / "platelets_2001_2005.csv"
        self.argv = {
            "test": ["test", str(self.csv), "--lrd", "0.6", "--format", "json"],
            "regional": ["regional", str(panel), "--lrd", "0.05", "--lrd-mode",
                         "fraction-of-mean", "--boundary", "lt", "--format", "json"],
            "power": ["power", "--density", "normal:1", "--d-grid", "0:3:0.01",
                      "--format", "json"],
        }
        self._oracle = None

    def kind(self, i: int) -> str:
        return ("test", "regional", "power")[i % 3]

    def call(self, i: int, traced: bool = False):
        argv = self.argv[self.kind(i)]
        spans = None
        if traced:
            spans = self.scratch / f"cli-spans-{i}.jsonl"
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "lrdkendall.cli", *argv]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr, spans

    def spans(self, out) -> list:
        path = out[3]
        if path is None or not path.exists():
            return []
        records = tracing.load(path)
        path.unlink()
        return records

    def check(self, i: int, out) -> list[str]:
        code, stdout, stderr, _ = out
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        payload = json.loads(stdout)
        kind = self.kind(i)
        problems = []
        if kind == "test":
            if self._oracle is None:
                self._oracle = oracles.pair_rule(self.values, 0.6)
            score, ties, pairs = self._oracle
            if payload["s_extended"] != score:
                problems.append(f"test S {payload['s_extended']} != {score}")
            if not math.isclose(payload["tie_proportion"], ties / pairs, rel_tol=1e-12):
                problems.append(f"test ties {payload['tie_proportion']} != {ties / pairs}")
        elif kind == "regional":
            want = oracles.REGIONAL_GOLDEN
            if payload["s_regional"] != want["s"]:
                problems.append(f"regional S {payload['s_regional']} != {want['s']}")
            for field in ("variance", "p"):
                if abs(payload[field] - want[field]) > oracles.REGIONAL_TOL[field]:
                    problems.append(f"regional {field} {payload[field]} != {want[field]}")
        else:
            points = payload["points"]
            if len(points) != 301:
                problems.append(f"power: {len(points)} points, want 301")
            for d, want in oracles.FROZEN_DRIFTS.items():
                got = [p["drift"] for p in points if abs(p["d"] - d) < 1e-9]
                if len(got) != 1 or abs(got[0] - want) > oracles.DRIFT_TOL:
                    problems.append(f"power drift at d={d}: {got} != {want}")
        return problems

    def corrupt(self, i: int, out):
        code, stdout, stderr, spans = out
        payload = json.loads(stdout)
        kind = self.kind(i)
        if kind == "test":
            payload["s_extended"] += 1
        elif kind == "regional":
            payload["s_regional"] += 1
        else:
            for point in payload["points"]:
                point["drift"] += 1e-3
        return code, json.dumps(payload), stderr, spans

    def sizes(self) -> dict:
        return {"test_series_n": self.SERIES_N, "regional_panel": "19 groups x 5 periods",
                "power_grid_points": 301}


# ── long_series ─────────────────────────────────────────────────────────


class LongSeries(Workload):
    name = "long_series"
    unit = 3
    POOL = 4

    def setup(self) -> None:
        check_footprint(LONG_N, "long_series")
        super().setup()
        lib = self.lib
        self.series = [lib.Series.from_values(random_walk(self.rng, LONG_N))
                       for _ in range(self.POOL)]
        self.rules = [lib.LrdRule(d=0.0), lib.LrdRule(d=0.6),
                      lib.LrdRule(d=0.6, boundary="lt")]
        self._oracle = {}

    def kind(self, i: int) -> str:
        rule = self.rules[i % 3]
        return f"d{rule.d:g}_{rule.boundary}"

    def _inputs(self, i: int):
        return (i // 3) % self.POOL, i % 3

    def call(self, i: int, traced: bool = False):
        s, r = self._inputs(i)
        return self.lib.run_test(self.series[s], self.rules[r])

    def check(self, i: int, out) -> list[str]:
        s, r = self._inputs(i)
        rule = self.rules[r]
        if (s, r) not in self._oracle:
            self._oracle[(s, r)] = oracles.pair_rule(
                self.series[s].values, rule.d, rule.boundary)
        score, ties, pairs = self._oracle[(s, r)]
        problems = []
        if out.s_extended != score:
            problems.append(f"S {out.s_extended} != {score}")
        if not math.isclose(out.tie_proportion, ties / pairs, rel_tol=1e-12):
            problems.append(f"ties {out.tie_proportion} != {ties / pairs}")
        if rule.d == 0.0 and rule.boundary == "leq" and not math.isclose(
                out.variance, out.var_classical, rel_tol=1e-12):
            problems.append(f"d=0 variance {out.variance} != classical {out.var_classical}")
        return problems

    def corrupt(self, i: int, out):
        return dataclasses.replace(out, s_extended=out.s_extended + 1)

    def sizes(self) -> dict:
        return {"series_n": LONG_N, "series": self.POOL, "rules": [self.kind(i) for i in range(3)]}


# ── permutation_draws ───────────────────────────────────────────────────


class PermutationDraws(Workload):
    name = "permutation_draws"
    unit = 4
    POOL = 4
    KINDS = ("sampled_sym", "sampled_pos", "regional", "exhaustive")

    def setup(self) -> None:
        super().setup()
        lib = self.lib
        rng = self.rng
        self.short = [lib.Series.from_values(np.round(rng.normal(10.0, 1.0, PERM_N), 1))
                      for _ in range(self.POOL)]
        self.tiny = [lib.Series.from_values(np.round(rng.normal(10.0, 1.0, EXHAUSTIVE_N), 1))
                     for _ in range(self.POOL)]
        self.panel = lib.platelet_donations()
        self.policy = lib.LrdPolicy(kind="fraction_of_group_mean", value=0.05, boundary="lt")
        self.sym = lib.LrdRule(d=0.3)
        self.pos = lib.LrdRule(d=0.3, direction="positive_only")
        self.seeds = [int(x) for x in rng.integers(0, 2**31, size=64)]
        self._oracle = {}

    def kind(self, i: int) -> str:
        return self.KINDS[i % 4]

    def call(self, i: int, traced: bool = False):
        kind, pick, seed = self.kind(i), (i // 4) % self.POOL, self.seeds[i % 64]
        lib = self.lib
        if kind == "sampled_sym":
            return lib.permutation_test(self.short[pick], self.sym, replicates=PERMUTATIONS,
                                        seed=seed, method="sampled")
        if kind == "sampled_pos":
            return lib.permutation_test(self.short[pick], self.pos, replicates=PERMUTATIONS,
                                        seed=seed, method="sampled")
        if kind == "regional":
            return lib.regional_permutation_test(self.panel, self.policy,
                                                 replicates=PERMUTATIONS, seed=seed)
        return lib.permutation_test(self.tiny[pick], self.sym, method="exhaustive")

    def _expected_score(self, kind: str, pick: int):
        key = (kind, pick)
        if key not in self._oracle:
            if kind == "regional":
                self._oracle[key] = oracles.REGIONAL_GOLDEN["s"]
            elif kind == "exhaustive":
                values = self.tiny[pick].values
                self._oracle[key] = (oracles.pair_rule(values, 0.3)[0],
                                     oracles.exhaustive_null(values, 0.3))
            else:
                rule = self.sym if kind == "sampled_sym" else self.pos
                self._oracle[key] = oracles.pair_rule(
                    self.short[pick].values, rule.d, rule.boundary, rule.direction)[0]
        return self._oracle[key]

    def check(self, i: int, out) -> list[str]:
        kind, pick = self.kind(i), (i // 4) % self.POOL
        problems = []
        if not 0.0 < out.p <= 1.0:
            problems.append(f"p {out.p} outside (0, 1]")
        if kind == "exhaustive":
            score, null = self._expected_score(kind, pick)
            hits = int(np.sum(np.abs(null) >= abs(score)))
            if out.draws != len(null) or out.exceed_count != hits:
                problems.append(f"exhaustive draws/hits {out.draws}/{out.exceed_count} "
                                f"!= {len(null)}/{hits}")
            if out.p != hits / len(null):
                problems.append(f"exhaustive p {out.p} != {hits}/{len(null)}")
        else:
            score = self._expected_score(kind, pick)
            if out.draws != PERMUTATIONS:
                problems.append(f"draws {out.draws} != {PERMUTATIONS}")
            if not math.isclose(out.p, (1 + out.exceed_count) / (out.draws + 1), rel_tol=1e-12):
                problems.append(f"p {out.p} != (1 + {out.exceed_count})/({out.draws} + 1)")
        if out.s_observed != score:
            problems.append(f"S {out.s_observed} != {score}")
        if kind in ("sampled_sym", "exhaustive"):
            bound = oracles.MC_SIGMAS * out.null_sd / math.sqrt(out.draws)
            if abs(out.null_mean) > bound:
                problems.append(f"symmetric null mean {out.null_mean} beyond {bound}")
        return problems

    def corrupt(self, i: int, out):
        return dataclasses.replace(out, exceed_count=out.exceed_count + 1)

    def work(self, i: int, out) -> dict:
        return {"draws": out.draws}

    def sizes(self) -> dict:
        return {"sampled_n": PERM_N, "replicates": PERMUTATIONS,
                "regional_panel": "19 groups x 5 periods", "exhaustive_n": EXHAUSTIVE_N,
                "series_per_kind": self.POOL}


# ── sim_grid ────────────────────────────────────────────────────────────


class SimGrid(Workload):
    name = "sim_grid"
    PASSES = 6
    SD_BASE = 15.0

    def setup(self) -> None:
        super().setup()
        config = self.root / "configs" / "full_grid.json"
        self.passes = []
        for seed in self.rng.integers(0, 2**31, size=self.PASSES):
            chosen = [s for s in self.lib.load_grid_config(config, seed=int(seed))
                      if math.isclose(s.error_sd, self.SD_BASE ** s.p)]
            small = [s for s in chosen if s.n == 20]
            large = [s for s in chosen if s.n == 30]
            if len(small) != 6 or len(large) != 6:
                raise RuntimeError(f"expected 6 + 6 sd_base 15 scenarios, got {len(chosen)}")
            # one call runs the n = 20 and n = 30 scenario of a distribution
            # and trend, so every call does the same amount of work
            self.passes.append(list(zip(small, large)))
        self._golden = None
        self._tie_tol = {}

    def _scenarios(self, i: int):
        return self.passes[(i // 6) % self.PASSES][i % 6]

    def kind(self, i: int) -> str:
        s = self._scenarios(i)[0]
        return f"{s.density.kind}_theta{s.theta:g}_p{s.p}"

    def call(self, i: int, traced: bool = False):
        return self.lib.run_grid(list(self._scenarios(i)))

    def check(self, i: int, out) -> list[str]:
        scenarios = self._scenarios(i)
        problems = []
        cells = sum(len(s.d_ratios) for s in scenarios)
        if len(out) != cells:
            problems.append(f"{len(out)} cells, want {cells}")
        if self._golden is None:
            self._golden = oracles.golden_power(self.root)
        ratios = self._golden["ratios"]
        for key, cell in out.items():
            reps = cell.replicates_used
            if reps != scenarios[0].replicates:
                problems.append(f"{key}: {reps} replicates")
            ref = self._golden["power"][(key.distribution, key.n, self.SD_BASE)][
                (key.theta, float(key.p))][ratios.index(key.d_ratio)]
            tol = oracles.rejection_tolerance(cell.rejection_rate, ref, reps)
            if abs(cell.rejection_rate - ref) > tol:
                problems.append(f"{key}: rejection {cell.rejection_rate} vs {ref} +/- {tol:.4f}")
            if key.theta != 0.0:
                continue
            tie_key = (key.distribution, key.d_ratio, key.n, reps)
            if tie_key not in self._tie_tol:
                self._tie_tol[tie_key] = oracles.null_tie_tolerance(*tie_key)
            want = oracles.null_tie_probability(key.distribution, key.d_ratio)
            if abs(cell.mean_tie_proportion - want) > self._tie_tol[tie_key]:
                problems.append(f"{key}: null ties {cell.mean_tie_proportion} vs {want} "
                                f"+/- {self._tie_tol[tie_key]:.4f}")
        return problems

    def corrupt(self, i: int, out):
        return {key: dataclasses.replace(cell, rejection_rate=cell.rejection_rate + 0.1)
                for key, cell in out.items()}

    def work(self, i: int, out) -> dict:
        return {"replicates": sum(cell.replicates_used for cell in out.values())}

    def sizes(self) -> dict:
        return {"scenarios": 12, "sd_base": self.SD_BASE, "n": [20, 30],
                "d_ratios": list(self.passes[0][0][0].d_ratios),
                "replicates_per_cell": self.passes[0][0][0].replicates,
                "grid_seeds": [p[0][0].seed for p in self.passes]}


WORKLOADS = {cls.name: cls for cls in (CliCalls, LongSeries, PermutationDraws, SimGrid)}
