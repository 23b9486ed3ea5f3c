"""Monte Carlo study of the thresholded test's size, power, and ties.

Data-generating model: Y_i = theta * i^p + error, i = 1..n, with iid
errors from a normal or uniform density of a given standard deviation.
Thresholds are specified as ratios of that standard deviation, so cells
are comparable across error scales. Each (distribution, n, error_sd,
theta, p, d_ratio) cell gets its own deterministic random stream under
the seeding contract in seeds.py; results are therefore reproducible
cell by cell and independent of execution order, threading, and which
other cells run. Replicates are scored by inference.score_rows, the
statistic that run_test reports.

Design notes, fixed on purpose:

* A replicate rejects when |z| >= critical_value(alpha): the continuity
  corrected, two-sided normal test at size alpha, because that is the
  procedure whose operating characteristics the study measures.
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

from .core import LrdRule, _check_length, tie_fraction
from .errors import InputError, integral, real
from .inference import critical_value, score_rows
from .power import ErrorDensity, moments
from .seeds import check_replicates, chunks

THREADS_ENV = "LRDKENDALL_THREADS"
_CHUNK_TARGET = 8_000_000  # sets the rows per chunk, part of the seeding contract


def density_for(distribution: str, error_sd: float) -> ErrorDensity:
    """The study's error density of a given kind and standard deviation.

    Uniform support is centered, +/- sd * sqrt(3), so both kinds match
    in mean (0) and standard deviation.
    """
    error_sd = real(error_sd, "error_sd")
    if error_sd <= 0:
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

    Errors are iid draws from ``distribution`` ("normal" or "uniform")
    with standard deviation error_sd. d_ratios lists the thresholds (as
    multiples of error_sd) this scenario should be run at; run_grid
    expands them into cells.

    Construction is the one place a scenario's fields are checked. n, p,
    replicates and seed must be integral: Python or numpy integers, or
    integral floats such as 2.0, but not bools; they are stored as int
    (errors.integral). n runs from 3 to core.MAX_SERIES_N, and replicates
    from 1 to seeds.MAX_REPLICATES.
    theta, error_sd, alpha_level and each d_ratios entry must be finite
    real numbers, and are stored as float (errors.real). n ** p and
    theta * n ** p must be finite, and so must 2 * (|theta| * n ** p +
    64 * error_sd), so that no draw or difference of draws overflows. Anything else, or a value
    out of range, raises InputError.
    """

    theta: float
    p: int
    n: int
    distribution: str
    error_sd: float
    d_ratios: tuple[float, ...]
    replicates: int = 10000
    seed: int = 0
    alpha_level: float = 0.05

    def __post_init__(self):
        for name in ("n", "p", "seed"):
            object.__setattr__(self, name, integral(getattr(self, name), name))
        object.__setattr__(self, "replicates", check_replicates(self.replicates))
        for name in ("theta", "error_sd", "alpha_level"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        try:
            ratios = tuple(real(r, "d_ratios entry") for r in self.d_ratios)
        except TypeError:
            raise InputError(f"d_ratios must be a sequence, got {self.d_ratios!r}") from None
        object.__setattr__(self, "d_ratios", ratios)
        if self.p < 1:
            raise InputError(f"trend power p must be >= 1, got {self.p}")
        if self.n < 3:
            raise InputError(f"need n >= 3, got {self.n}")
        if any(r < 0 for r in ratios):
            raise InputError(f"d_ratios must be >= 0, got {ratios!r}")
        try:  # an inf signal makes NaN deltas, which would count as ties
            peak = abs(self.theta) * float(self.n) ** self.p
        except OverflowError:
            peak = math.inf
        if not math.isfinite(peak):
            raise InputError(f"trend theta * n ** p overflows at n = {self.n}, p = {self.p}")
        critical_value(self.alpha_level)  # rejects a size outside (0, 1)
        density_for(self.distribution, self.error_sd)  # rejects a bad kind or error_sd
        # 64 sd is beyond any normal draw (the uniform reaches sqrt(3) sd), so
        # every value and every difference of two values stays finite
        if not math.isfinite(2 * (peak + 64 * self.error_sd)):
            raise InputError(f"error_sd {self.error_sd!r} lets the draws overflow")
        _check_length(self.n)  # here, so that a grid fails before any of its cells runs

    @property
    def density(self) -> ErrorDensity:
        """The error density, from density_for(distribution, error_sd)."""
        return density_for(self.distribution, self.error_sd)

    def key(self, d_ratio: float) -> CellKey:
        """The identity of this scenario's cell at threshold d_ratio."""
        return CellKey(
            self.distribution, self.n, self.error_sd, self.theta, self.p, float(d_ratio)
        )


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
    if scenario.distribution == "normal":
        noise = rng.normal(0.0, scenario.error_sd, size=(m, n))
    else:
        density = scenario.density
        noise = rng.uniform(density.lower, density.upper, size=(m, n))
    return signal + noise


def run_cell(scenario: Scenario, d_ratio: float) -> CellResult:
    """Simulate one cell: rejection rate and mean tie proportion.

    Deterministic in (scenario.seed, cell key): the replicates are drawn
    in the chunks of the stream keyed ("sim", *cell key).
    """
    key = scenario.key(d_ratio)
    rule = LrdRule(d=key.d_ratio * scenario.error_sd)  # refuses a negative or non-finite d
    z_crit = critical_value(scenario.alpha_level)

    rejections = 0
    tie_total = 0.0
    for rng, m in chunks(
        scenario.seed, ("sim", *key), scenario.replicates, _rows_per_chunk(scenario.n)
    ):
        _, scoring, _, z = score_rows(_simulate_chunk(rng, scenario, m), rule)
        rejections += int(np.count_nonzero(np.abs(z) >= z_crit))
        tie_total += float(tie_fraction(scoring, scenario.n).sum())

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
    count (default 1, which runs the cells one at a time, in order).
    Results are identical for any worker count, by the per-cell seeding
    contract.
    """
    cells = [(s, r) for s in scenarios for r in s.d_ratios]
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        results = list(pool.map(lambda c: run_cell(*c), cells))
    return {s.key(r): result for (s, r), result in zip(cells, results)}


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        raise InputError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    return max(1, count)


def expected_null_tie_proportion(distribution: str, d_ratio: float) -> float:
    """Closed-form mean tie proportion under no trend, P(|X1 - X2| <= d).

    Depends only on the threshold-to-sd ratio, so it is
    1 - 2 * moments(density_for(distribution, 1.0), d_ratio).above_one,
    with above_one = P(X1 - X2 > d) from power.moments. An independent
    oracle for the simulation pipeline's null column.
    """
    return 1.0 - 2.0 * moments(density_for(distribution, 1.0), d_ratio).above_one


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


def _list(raw: dict, key: str) -> list:
    """The non-empty JSON array under ``key``."""
    if not isinstance(raw[key], list) or not raw[key]:
        raise InputError(f"{key} must be a non-empty list, got {raw[key]!r}")
    return raw[key]


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

    This function checks only the file's shape: a JSON object with the
    known keys, every axis a non-empty list, each trend an object with
    exactly theta and p, sd_bases finite and > 0, and p an integer
    (2.0 reads as 2) with sd_base ** p in the float range, since those
    two meet before any Scenario exists. Every other value goes to
    Scenario as written, whose checks apply. Any violation raises
    InputError.
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

    if replicates is None:
        replicates = raw.get("replicates", 10000)
    if seed is None:
        seed = raw.get("seed", 0)
    sd_bases = [real(b, "sd_bases entry") for b in _list(raw, "sd_bases")]
    if any(b <= 0 for b in sd_bases):
        raise InputError(f"sd_bases must be > 0, got {sd_bases!r}")
    d_ratios = _list(raw, "d_ratios")
    trends = []
    for trend in _list(raw, "trends"):
        if not isinstance(trend, dict) or set(trend) != {"theta", "p"}:
            raise InputError(f"each trend needs exactly theta and p, got {trend!r}")
        trends.append((trend["theta"], integral(trend["p"], "p")))

    scenarios = []
    for dist in _list(raw, "distributions"):
        for n in _list(raw, "sample_sizes"):
            for sd_base in sd_bases:
                for theta, p in trends:
                    try:
                        error_sd = sd_base ** p
                    except OverflowError:
                        raise InputError(f"sd_base {sd_base!r} ** p {p} overflows") from None
                    scenarios.append(
                        Scenario(
                            theta=theta,
                            p=p,
                            n=n,
                            distribution=dist,
                            error_sd=error_sd,
                            d_ratios=d_ratios,
                            replicates=replicates,
                            seed=seed,
                            alpha_level=raw.get("alpha_level", 0.05),
                        )
                    )
    return scenarios
