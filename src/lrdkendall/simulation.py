"""Monte Carlo study of the thresholded test's size, power, and ties.

Data-generating model: Y_i = theta * i^p + error, i = 1..n, with iid
errors from a normal or uniform density of a given standard deviation.
Thresholds are specified as ratios of that standard deviation, so cells
are comparable across error scales. Each (distribution, n, error_sd,
theta, p, d_ratio) cell gets its own deterministic random stream (see
seeds.py); results are therefore reproducible cell by cell and
independent of execution order, threading, and which other cells run.
Pair scores and u/v counts come from the kernels in core.py; chunk
sizes and generator keys are part of the seeding contract and fixed.

Design notes, fixed on purpose:

* Rejection decisions use the normal-approximation path (continuity
  corrected, two-sided p <= alpha), because that is the procedure whose
  operating characteristics the study measures; a flag switches cells to
  the permutation path for heavy-tie investigation.
* The error scale enters twice: it generates the noise and it converts
  d_ratio to an absolute threshold. A cell is scale-equivariant, so the
  size columns are flat across error scales up to Monte Carlo noise.
* For power-law trends the relevant scale comparison is against the
  trend's own curvature, which is why configs express error scale as a
  base raised to the trend power (error_sd = sd_base ** p); the flat
  per-cell field remains an explicit standard deviation.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfc

from .core import LrdRule, Series, exceedance_counts, pair_counts, tie_proportion
from .errors import InputError
from .permutation import permutation_test
from .power import ErrorDensity
from .seeds import generator_for

THREADS_ENV = "LRDKENDALL_THREADS"
_CHUNK_TARGET = 8_000_000  # upper bound on per-chunk diff-tensor elements


def density_for(distribution: str, error_sd: float) -> ErrorDensity:
    """The study's error density of a given kind and standard deviation.

    Uniform support is centered, +/- sd * sqrt(3), so both kinds match
    in mean (0) and standard deviation.
    """
    if error_sd <= 0 or not np.isfinite(error_sd):
        raise InputError(f"error_sd must be finite and > 0, got {error_sd!r}")
    if distribution == "normal":
        return ErrorDensity.normal(error_sd)
    if distribution == "uniform":
        half = error_sd * math.sqrt(3.0)
        return ErrorDensity.uniform(-half, half)
    raise InputError(f"unknown distribution {distribution!r}")


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration, minus the threshold grid position.

    d_ratios lists the thresholds (as multiples of error_sd) this
    scenario should be run at; run_grid expands them into cells.
    """

    theta: float
    p: int
    n: int
    density: ErrorDensity
    error_sd: float
    d_ratios: tuple[float, ...]
    replicates: int = 10000
    seed: int = 0
    alpha_level: float = 0.05
    use_permutation: bool = False
    permutation_replicates: int = 2000

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "error_sd", float(self.error_sd))
        object.__setattr__(self, "d_ratios", tuple(float(r) for r in self.d_ratios))
        if self.p < 1:
            raise InputError(f"trend power p must be >= 1, got {self.p}")
        if self.n < 3:
            raise InputError(f"need n >= 3, got {self.n}")
        if not np.isfinite(self.error_sd) or self.error_sd <= 0:
            raise InputError(f"error_sd must be > 0, got {self.error_sd!r}")
        if any(r < 0 or not np.isfinite(r) for r in self.d_ratios):
            raise InputError("d_ratios must be finite and >= 0")
        if self.replicates < 1:
            raise InputError(f"replicates must be >= 1, got {self.replicates}")
        if not 0.0 < self.alpha_level < 1.0:
            raise InputError(f"alpha_level must be in (0, 1), got {self.alpha_level!r}")
        if self.density.kind == "tabulated":
            raise InputError("the simulation engine draws only normal or uniform errors")
        # the density must actually have the declared standard deviation
        if not math.isclose(self.density.sd(), self.error_sd, rel_tol=1e-9):
            raise InputError(
                f"density sd {self.density.sd()!r} does not match "
                f"error_sd {self.error_sd!r}"
            )

    @classmethod
    def build(cls, distribution: str, **kwargs) -> "Scenario":
        """Construct with the density derived from a kind name."""
        return cls(density=density_for(distribution, kwargs["error_sd"]), **kwargs)


class CellKey(NamedTuple):
    """Identity of one simulation cell; doubles as its RNG key material."""

    distribution: str
    n: int
    error_sd: float
    theta: float
    p: int
    d_ratio: float


@dataclass(frozen=True)
class CellResult:
    """Empirical operating characteristics of one cell.

    mc_stderr is sqrt(r (1 - r) / replicates) for the rejection rate r,
    the usual binomial standard error.
    """

    rejection_rate: float
    mean_tie_proportion: float
    mc_stderr: float
    replicates_used: int


def _rows_per_chunk(n: int) -> int:
    return max(1, min(2500, _CHUNK_TARGET // (n * n)))


def _simulate_chunk(rng, scenario: Scenario, m: int) -> np.ndarray:
    """Draw m replicate series as an (m, n) matrix."""
    n = scenario.n
    x = np.arange(1, n + 1, dtype=float)
    signal = scenario.theta * x**scenario.p
    if scenario.density.kind == "normal":
        noise = rng.normal(0.0, scenario.error_sd, size=(m, n))
    else:
        noise = rng.uniform(scenario.density.lower, scenario.density.upper, size=(m, n))
    return signal + noise


def _test_rows(rows: np.ndarray, rule: LrdRule, alpha_level: float):
    """Vectorized two-sided test on each row: (reject?, tie proportion)."""
    n = rows.shape[1]
    s, scoring = pair_counts(rows, rule)
    u, v = exceedance_counts(rows, rule)
    var = (((u - v) ** 2).sum(axis=1) + u.sum(axis=1)) / 3.0

    corrected = s - np.sign(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(var > 0, corrected / np.sqrt(var), 0.0)
    p = erfc(np.abs(z) / math.sqrt(2.0))
    # degenerate variance: conclusive for s != 0, a sure tie otherwise
    p = np.where((var == 0) & (s != 0), 0.0, p)
    p = np.where((var == 0) & (s == 0), 1.0, p)

    return p <= alpha_level, 1.0 - scoring / (n * (n - 1) // 2)


def run_cell(scenario: Scenario, d_ratio: float) -> CellResult:
    """Simulate one cell: rejection rate and mean tie proportion.

    Deterministic in (scenario.seed, cell key): chunk c of the cell's
    replicates uses the generator keyed (seed, "sim", *cell key, c).
    """
    if d_ratio < 0 or not np.isfinite(d_ratio):
        raise InputError(f"d_ratio must be finite and >= 0, got {d_ratio!r}")
    key = CellKey(
        distribution=scenario.density.kind,
        n=scenario.n,
        error_sd=scenario.error_sd,
        theta=scenario.theta,
        p=scenario.p,
        d_ratio=float(d_ratio),
    )
    rule = LrdRule(d=key.d_ratio * scenario.error_sd)
    chunk = _rows_per_chunk(scenario.n)

    if scenario.use_permutation:
        return _run_cell_permutation(scenario, key, rule)

    rejections = 0
    tie_total = 0.0
    done = 0
    idx = 0
    while done < scenario.replicates:
        m = min(chunk, scenario.replicates - done)
        rng = generator_for(scenario.seed, "sim", *key, idx)
        rows = _simulate_chunk(rng, scenario, m)
        reject, ties = _test_rows(rows, rule, scenario.alpha_level)
        rejections += int(reject.sum())
        tie_total += float(ties.sum())
        done += m
        idx += 1

    rate = rejections / scenario.replicates
    return CellResult(
        rejection_rate=rate,
        mean_tie_proportion=tie_total / scenario.replicates,
        mc_stderr=math.sqrt(rate * (1.0 - rate) / scenario.replicates),
        replicates_used=scenario.replicates,
    )


def _run_cell_permutation(scenario: Scenario, key: CellKey, rule: LrdRule) -> CellResult:
    """Permutation-path variant for the heavy-tie regime study."""
    rejections = 0
    tie_total = 0.0
    for r in range(scenario.replicates):
        rng = generator_for(scenario.seed, "sim", *key, "perm-data", r)
        row = _simulate_chunk(rng, scenario, 1)[0]
        series = Series.from_values(row)
        res = permutation_test(
            series,
            rule,
            replicates=scenario.permutation_replicates,
            seed=int(rng.integers(2**63)),
            method="sampled",
        )
        rejections += res.p <= scenario.alpha_level
        tie_total += tie_proportion(series, rule)

    rate = rejections / scenario.replicates
    return CellResult(
        rejection_rate=rate,
        mean_tie_proportion=tie_total / scenario.replicates,
        mc_stderr=math.sqrt(rate * (1.0 - rate) / scenario.replicates),
        replicates_used=scenario.replicates,
    )


def run_grid(scenarios) -> dict[CellKey, CellResult]:
    """Run every (scenario, d_ratio) cell; stable insertion order.

    Honors the LRDKENDALL_THREADS environment variable for the worker
    count (default 1). Results are identical for any worker count, by
    the per-cell seeding contract.
    """
    cells = [
        (s, r)
        for s in scenarios
        for r in s.d_ratios
    ]
    keys = [
        CellKey(s.density.kind, s.n, s.error_sd, s.theta, s.p, float(r))
        for s, r in cells
    ]
    workers = _worker_count()
    if workers <= 1 or len(cells) <= 1:
        results = [run_cell(s, r) for s, r in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: run_cell(*c), cells))
    return dict(zip(keys, results))


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        raise InputError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    return max(1, count)


def expected_null_tie_proportion(distribution: str, d_ratio: float) -> float:
    """Closed-form mean tie proportion under no trend.

    Depends only on the threshold-to-sd ratio. Normal errors:
    2 Phi(r / sqrt(2)) - 1. Uniform errors: 1 - (1 - r / (2 sqrt(3)))^2
    up to the support width, 1 beyond. An independent oracle for the
    simulation pipeline's null column.
    """
    r = float(d_ratio)
    if r < 0 or not np.isfinite(r):
        raise InputError(f"d_ratio must be finite and >= 0, got {d_ratio!r}")
    if distribution == "normal":
        return 1.0 - float(erfc(r / 2.0))
    if distribution == "uniform":
        width = 2.0 * math.sqrt(3.0)
        if r >= width:
            return 1.0
        return 1.0 - (1.0 - r / width) ** 2
    raise InputError(f"unknown distribution {distribution!r}")


# ── declarative grid configs ────────────────────────────────────────────

_CONFIG_KEYS = {
    "distributions",
    "sample_sizes",
    "sd_bases",
    "trends",
    "d_ratios",
    "replicates",
    "seed",
    "alpha_level",
}


def load_grid_config(path, replicates: int | None = None, seed: int | None = None):
    """Read a JSON grid config into a list of Scenarios.

    Schema (all keys required except replicates/seed/alpha_level):
        distributions: ["normal", "uniform"]
        sample_sizes:  [20, 30]
        sd_bases:      [10, 15, 20]
        trends:        [{"theta": 0, "p": 1}, ...]
        d_ratios:      [0, 0.5, 1.0, 1.5, 2.0]
        replicates:    10000        (default)
        seed:          0            (default)
        alpha_level:   0.05         (default)

    Each (distribution, n, sd_base, trend) combination becomes one
    Scenario with error_sd = sd_base ** p, so the noise scale tracks the
    trend's curvature (see the module notes). The replicates and seed
    arguments override the file's values when given.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read grid config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise InputError("grid config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    missing = {"distributions", "sample_sizes", "sd_bases", "trends", "d_ratios"} - set(raw)
    if missing:
        raise InputError(f"missing config keys: {sorted(missing)}")

    reps = replicates if replicates is not None else int(raw.get("replicates", 10000))
    base_seed = seed if seed is not None else int(raw.get("seed", 0))
    alpha = float(raw.get("alpha_level", 0.05))

    scenarios = []
    for dist in raw["distributions"]:
        for n in raw["sample_sizes"]:
            for sd_base in raw["sd_bases"]:
                for trend in raw["trends"]:
                    if not isinstance(trend, dict) or set(trend) != {"theta", "p"}:
                        raise InputError(
                            f"each trend needs exactly theta and p, got {trend!r}"
                        )
                    p = int(trend["p"])
                    error_sd = float(sd_base) ** p
                    scenarios.append(
                        Scenario(
                            theta=float(trend["theta"]),
                            p=p,
                            n=int(n),
                            density=density_for(dist, error_sd),
                            error_sd=error_sd,
                            d_ratios=tuple(float(r) for r in raw["d_ratios"]),
                            replicates=reps,
                            seed=base_seed,
                            alpha_level=alpha,
                        )
                    )
    return scenarios
