"""Monte Carlo study of the thresholded test's size, power, and ties.

Data-generating model: Y_i = theta * i^p + error, i = 1..n, with iid
errors from a normal or uniform density of a given standard deviation.
Thresholds are specified as ratios of that standard deviation, so cells
are comparable across error scales. Each (distribution, n, error_sd,
theta, p) scenario gets its own deterministic random stream under the
seeding contract, which the seeds module docstring states with this
module's row cost and cap. Its replicates are drawn once and scored at
every d_ratio, so the thresholds of a scenario are compared on common
random numbers. A cell's result is therefore reproducible, and
independent of execution order, of which other cells run and of which
other thresholds its scenario lists. Replicates are scored by
inference.score_rows, the statistic that run_test reports.

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

import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import LrdRule, _check_length, tie_fraction
from .errors import InputError, _shown, integral, real
from .inference import critical_value, score_rows
from .power import ErrorDensity
from .seeds import check_replicates, chunks


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
    real numbers, and are stored as float (errors.real); d_ratios is not
    empty. n ** p and theta * n ** p must be finite, and so must
    2 * (|theta| * n ** p + 64 * error_sd), so that no draw or difference
    of draws overflows, and each cell's threshold d = d_ratio * error_sd.
    Anything else, or a value out of range, raises InputError.
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
        # + 0.0 stores a -0.0 as 0.0, as LrdRule.d does, so equal scenarios key one stream
        object.__setattr__(self, "theta", self.theta + 0.0)
        try:
            ratios = tuple(real(r, "d_ratios entry") + 0.0 for r in self.d_ratios)
        except TypeError:
            raise InputError(f"d_ratios must be a sequence, got {_shown(self.d_ratios)}") from None
        object.__setattr__(self, "d_ratios", ratios)
        if self.p < 1:
            raise InputError(f"trend power p must be >= 1, got {self.p}")
        if self.n < 3:
            raise InputError(f"need n >= 3, got {self.n}")
        if not ratios or any(r < 0 for r in ratios):
            raise InputError(f"d_ratios must be non-empty and >= 0, got {ratios!r}")
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
        for ratio in ratios:  # the threshold that each cell's rule is built from
            if not math.isfinite(ratio * self.error_sd):
                raise InputError(f"threshold d = d_ratio {ratio!r} * error_sd "
                                 f"{self.error_sd!r} overflows")
        _check_length(self.n)  # here, so that a grid fails before any of its cells runs

    @property
    def density(self) -> ErrorDensity:
        """The error density, from density_for(distribution, error_sd)."""
        return density_for(self.distribution, self.error_sd)

    def key(self, d_ratio: float) -> CellKey:
        """The identity of this scenario's cell at threshold d_ratio."""
        return CellKey(
            self.distribution, self.n, self.error_sd, self.theta, self.p,
            real(d_ratio, "d_ratio") + 0.0,
        )


class CellKey(NamedTuple):
    """Identity of one simulation cell; its stream is keyed without d_ratio (_run_cells)."""

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
    noise += signal
    return noise


def _run_cells(scenario: Scenario, d_ratios) -> list[tuple[CellKey, CellResult]]:
    """Simulate the scenario's cell at each of d_ratios: (key, result) pairs in order.

    The replicates are drawn once, in the chunks of the stream keyed
    ("sim", distribution, n, error_sd, theta, p), and each chunk is
    scored at every threshold. Each cell keeps its own counts, so its
    result does not depend on the other entries of d_ratios.
    """
    keys = [scenario.key(r) for r in d_ratios]
    # LrdRule refuses a negative or non-finite d
    rules = [LrdRule(d=key.d_ratio * scenario.error_sd) for key in keys]
    z_crit = critical_value(scenario.alpha_level)

    rejections = [0] * len(rules)
    tie_totals = [0.0] * len(rules)
    n = scenario.n
    stream = ("sim", scenario.distribution, n, scenario.error_sd, scenario.theta, scenario.p)
    for rng, m in chunks(scenario.seed, stream, scenario.replicates, n * n, 2500):
        rows = _simulate_chunk(rng, scenario, m)
        for j, rule in enumerate(rules):
            _, scoring, _, z = score_rows(rows, rule)
            rejections[j] += int(np.count_nonzero(np.abs(z) >= z_crit))
            tie_totals[j] += float(tie_fraction(scoring, n).sum())

    cells = []
    for key, count, ties in zip(keys, rejections, tie_totals):
        rate = count / scenario.replicates
        cells.append((key, CellResult(
            rejection_rate=rate,
            mean_tie_proportion=ties / scenario.replicates,
            mc_stderr=math.sqrt(rate * (1.0 - rate) / scenario.replicates),
            replicates_used=scenario.replicates,
        )))
    return cells


def run_cell(scenario: Scenario, d_ratio: float) -> CellResult:
    """Simulate one cell: rejection rate and mean tie proportion.

    The one-threshold case of the grid: the scenario's replicates are
    drawn from the stream keyed ("sim", distribution, n, error_sd, theta,
    p) and scored at d = d_ratio * error_sd, so the result equals the
    grid's cell at d_ratio. d_ratio must be a finite number >= 0 (not a
    bool); anything else raises InputError.
    """
    return _run_cells(scenario, (d_ratio,))[0][1]


def run_grid(scenarios) -> dict[CellKey, CellResult]:
    """Run every (scenario, d_ratio) cell in order; the dict keeps that order.

    The scenarios run one at a time in the calling thread. Each draws its
    replicates once and scores them at all of its d_ratios (common random
    numbers across thresholds). A scenario draws only from its own
    streams (seeds.py), so a cell's result does not depend on which other
    cells run or in what order.
    """
    return {key: cell for s in scenarios for key, cell in _run_cells(s, s.d_ratios)}


# ── declarative grid configs ────────────────────────────────────────────

def load_grid_config(path, replicates: int | None = None, seed: int | None = None):
    """Read a JSON grid config into a list of Scenarios.

    Schema, with the five axes required and the last three keys optional:
        distributions: ["normal", "uniform"]
        sample_sizes:  [20, 30]
        sd_bases:      [10, 15, 20]
        trends:        [{"theta": 0, "p": 1}, ...]
        d_ratios:      [0, 0.5, 1.0, 1.5, 2.0]
        replicates, seed, alpha_level

    Each (distribution, n, sd_base, trend) combination becomes one
    Scenario with error_sd = sd_base ** p, so the noise scale tracks the
    trend's curvature (see the module notes). The list runs over
    distributions, then sample sizes, then sd_bases, then trends, the
    last varying fastest. The optional keys go to every Scenario as
    written; an absent one takes Scenario's default. The replicates and
    seed arguments override the file's values when given. A leading UTF-8
    byte-order mark is ignored.

    This function checks only the file's shape: a JSON object with the
    known keys, every axis a non-empty list, each trend an object with
    exactly theta and p, sd_bases finite and > 0, and p an integer
    (2.0 reads as 2) with sd_base ** p in the float range, since those
    two meet before any Scenario exists. Every other value goes to
    Scenario as written, whose checks apply. Any violation raises
    InputError.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as e:  # bad UTF-8, bad JSON, an int over the digit limit
        raise InputError(f"cannot read grid config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise InputError("grid config must be a JSON object")
    axes = ("distributions", "sample_sizes", "sd_bases", "trends", "d_ratios")
    options = {k: raw.pop(k) for k in ("replicates", "seed", "alpha_level") if k in raw}
    unknown = set(raw) - set(axes)
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    missing = set(axes) - set(raw)
    if missing:
        raise InputError(f"missing config keys: {sorted(missing)}")
    for key in axes:
        if not isinstance(raw[key], list) or not raw[key]:
            raise InputError(f"{key} must be a non-empty list, got {raw[key]!r}")
    distributions, sample_sizes, sd_bases, trends, d_ratios = (raw[key] for key in axes)
    if replicates is not None:
        options["replicates"] = replicates
    if seed is not None:
        options["seed"] = seed

    sd_bases = [real(b, "sd_bases entry") for b in sd_bases]
    if any(b <= 0 for b in sd_bases):
        raise InputError(f"sd_bases must be > 0, got {sd_bases!r}")
    scales = []  # (theta, p, error_sd) per (sd_base, trend), trends varying fastest
    for sd_base, trend in itertools.product(sd_bases, trends):
        if not isinstance(trend, dict) or set(trend) != {"theta", "p"}:
            raise InputError(f"each trend needs exactly theta and p, got {trend!r}")
        p = integral(trend["p"], "p")
        try:
            scales.append((trend["theta"], p, sd_base ** p))
        except OverflowError:
            raise InputError(f"sd_base {sd_base!r} ** p {p} overflows") from None

    return [
        Scenario(
            theta=theta,
            p=p,
            n=n,
            distribution=dist,
            error_sd=error_sd,
            d_ratios=d_ratios,
            **options,
        )
        for dist, n, (theta, p, error_sd) in itertools.product(distributions, sample_sizes, scales)
    ]
