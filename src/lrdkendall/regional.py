"""Aggregate trend testing across groups sharing one time grid.

The same mechanism serves two uses: groups as spatial units (regions,
countries, stations) and groups as seasons within a site. Per-group
scores and their null variances add, because groups are assumed
independent; one standardized score then tests for a common trend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LrdRule, Series
from .errors import InputError, NoUsableData, real
from .inference import TrendTestResult, p_value, run_test, z_score

#: below this many group-by-period cells the normal approximation is doubtful
SMALL_PRODUCT = 25


@dataclass(frozen=True)
class RegionalDataset:
    """Named series on a common time grid, plus the names that fell out.

    ``excluded`` lists groups dropped before testing (incomplete
    coverage of the grid or non-finite values); they are carried along
    so results can report what was left out.
    """

    groups: dict[str, Series]
    excluded: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.groups:
            raise NoUsableData("no usable groups in dataset")
        grids = [s.times for s in self.groups.values()]
        first = grids[0]
        for label, g in zip(self.groups, grids):
            if g.shape != first.shape or not np.array_equal(g, first):
                raise InputError(
                    f"group {label!r} is not on the common time grid"
                )

    @property
    def periods(self) -> int:
        return len(next(iter(self.groups.values())))

    @classmethod
    def from_columns(cls, labels, times, values) -> "RegionalDataset":
        """Build from long-format columns, dropping incomplete groups.

        The time grid is the sorted union of all observed times. A group
        is excluded when it misses any grid time or contains a
        non-finite value. Duplicate (label, time) rows are an error, not
        an exclusion: they mean the input is malformed.
        """
        labels = [str(x) for x in labels]
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if not (len(labels) == len(times) == len(values)):
            raise InputError("labels, times, values must have equal length")
        if len(labels) == 0:
            raise NoUsableData("empty input")
        if not np.all(np.isfinite(times)):
            raise InputError("times contain NaN or infinity")

        # sorted distinct times; np.unique would import numpy.ma on first use
        grid = np.sort(times)
        grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
        by_label: dict[str, dict[float, float]] = {}
        for lab, t, x in zip(labels, times, values):
            row = by_label.setdefault(lab, {})
            if t in row:
                raise InputError(f"duplicate time {t!r} for group {lab!r}")
            row[t] = x

        groups: dict[str, Series] = {}
        excluded: list[str] = []
        for lab, row in by_label.items():
            if len(row) < len(grid):
                excluded.append(lab)
                continue
            vals = np.array([row[t] for t in grid])
            if not np.all(np.isfinite(vals)):
                excluded.append(lab)
                continue
            groups[lab] = Series(times=grid, values=vals)

        if not groups:
            raise NoUsableData(
                f"all {len(by_label)} groups excluded (incomplete or non-finite)"
            )
        return cls(groups=groups, excluded=tuple(excluded))


@dataclass(frozen=True)
class LrdPolicy:
    """How the irrelevance threshold is chosen for each group.

    kind "absolute" uses ``value`` directly as d. Kind
    "fraction_of_group_mean" resolves d = value * mean(group values),
    so each group gets a threshold scaled to its own level.
    """

    kind: str = "absolute"
    value: float = 0.0
    boundary: str = "leq"

    def __post_init__(self):
        if self.kind not in ("absolute", "fraction_of_group_mean"):
            raise InputError(f"unknown policy kind {self.kind!r}")
        object.__setattr__(self, "value", real(self.value, "policy value"))
        if self.value < 0:
            raise InputError(f"policy value must be finite and >= 0, got {self.value!r}")

    def rule_for(self, series: Series) -> LrdRule:
        """Resolve the scoring rule for one group."""
        if self.kind == "absolute":
            d = self.value
        else:
            d = self.value * _mean(series.values)
        return LrdRule(d=d, boundary=self.boundary)


def _group_rules(data: RegionalDataset, policy: LrdPolicy) -> dict[str, LrdRule]:
    """The rule each group of ``data`` is scored with under ``policy``, by label.

    A threshold that comes out negative or infinite, as a fraction of a
    negative or huge group mean does, raises InputError naming the group.
    """
    rules = {}
    for label, series in data.groups.items():
        try:
            rules[label] = policy.rule_for(series)
        except InputError as e:
            raise InputError(
                f"group {label!r} with mean {_mean(series.values)!r}: {e}"
            ) from None
    return rules


def _mean(values: np.ndarray) -> float:
    """The mean of finite values, also where their sum overflows.

    np.mean where that is finite; otherwise the mean of the values scaled
    down by a power of two >= n, whose sum cannot overflow, scaled back up.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
    if math.isfinite(mean):
        return mean
    scale = 2.0 ** math.ceil(math.log2(len(values)))
    return float(np.mean(values / scale)) * scale


@dataclass(frozen=True)
class RegionalResult:
    """Aggregate test outcome plus every per-group result.

    s_regional and variance are exactly the sums of the per-group
    values; each per-group TrendTestResult records the rule (hence the
    resolved threshold) it was tested with.
    """

    s_regional: int
    variance: float
    z: float
    p: float
    sidedness: str
    n_groups: int
    periods: int
    per_group: dict[str, TrendTestResult]
    excluded_groups: tuple[str, ...]
    continuity: bool
    warnings: tuple[str, ...] = ()


def regional_test(
    data: RegionalDataset,
    policy: LrdPolicy | None = None,
    sidedness: str = "two_sided",
    continuity: bool = True,
) -> RegionalResult:
    """Test for a common trend across all groups of a dataset.

    Sums per-group scores and variances, then standardizes the total
    with the same continuity correction as the single-series test.

    Args:
        data: Groups on a common time grid.
        policy: Threshold policy; defaults to d = 0 everywhere.
        sidedness: Tail convention for the aggregate p-value (per-group
            results inherit it too).
        continuity: Continuity-correct the aggregate z (and per-group z).

    Returns:
        RegionalResult; warnings may contain ``regional_small_product``
        (groups times periods at most SMALL_PRODUCT) and
        ``degenerate_variance``.
    """
    if policy is None:
        policy = LrdPolicy()
    per_group = {
        label: run_test(data.groups[label], rule, sidedness=sidedness, continuity=continuity)
        for label, rule in _group_rules(data, policy).items()
    }

    s_total = sum(r.s_extended for r in per_group.values())
    variance = sum(r.variance for r in per_group.values())
    z = z_score(s_total, variance, continuity=continuity)
    p = p_value(z, sidedness)

    warns: list[str] = []
    if len(per_group) * data.periods <= SMALL_PRODUCT:
        warns.append("regional_small_product")
    if variance == 0.0:
        warns.append("degenerate_variance")

    return RegionalResult(
        s_regional=s_total,
        variance=variance,
        z=z,
        p=p,
        sidedness=sidedness,
        n_groups=len(per_group),
        periods=data.periods,
        per_group=per_group,
        excluded_groups=data.excluded,
        continuity=continuity,
        warnings=tuple(warns),
    )
