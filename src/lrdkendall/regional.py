"""Aggregate trend testing across groups sharing one time grid.

The same mechanism serves two uses: groups as spatial units (regions,
countries, stations) and groups as seasons within a site. Per-group
scores and their null variances add, because groups are assumed
independent; one standardized score then tests for a common trend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import LrdRule, Series
from .errors import InputError, NoUsableData
from .inference import (
    HEAVY_TIES,
    SMALL_N,
    TrendTestResult,
    p_value,
    run_test,
    z_score,
)

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

        grid = np.unique(times)
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
            groups[lab] = Series(times=grid, values=vals, label=lab)

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
    so each group gets a threshold scaled to its own level. ``overrides``
    maps group labels to absolute d values that win over either kind.
    """

    kind: str = "absolute"
    value: float = 0.0
    overrides: dict[str, float] = field(default_factory=dict)
    boundary: str = "leq"

    def __post_init__(self):
        if self.kind not in ("absolute", "fraction_of_group_mean"):
            raise InputError(f"unknown policy kind {self.kind!r}")
        if not np.isfinite(self.value) or self.value < 0:
            raise InputError(f"policy value must be finite and >= 0, got {self.value!r}")
        for lab, d in self.overrides.items():
            if not np.isfinite(d) or d < 0:
                raise InputError(f"override for {lab!r} must be finite and >= 0")

    def rule_for(self, label: str, series: Series) -> LrdRule:
        """Resolve the scoring rule for one group."""
        if label in self.overrides:
            d = self.overrides[label]
        elif self.kind == "absolute":
            d = self.value
        else:
            d = self.value * float(np.mean(series.values))
        return LrdRule(d=d, boundary=self.boundary)


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
    small_product: int = SMALL_PRODUCT,
    small_n: int = SMALL_N,
    heavy_ties: float = HEAVY_TIES,
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
        small_product: Cells threshold for the ``regional_small_product``
            warning (groups times periods at or below it).
        small_n: Per-group small-sample warning threshold.
        heavy_ties: Per-group tie-fraction warning threshold.

    Returns:
        RegionalResult; warnings may contain ``regional_small_product``
        and ``degenerate_variance``.
    """
    if policy is None:
        policy = LrdPolicy()
    per_group: dict[str, TrendTestResult] = {}
    for label, series in data.groups.items():
        rule = policy.rule_for(label, series)
        per_group[label] = run_test(
            series,
            rule,
            sidedness=sidedness,
            continuity=continuity,
            small_n=small_n,
            heavy_ties=heavy_ties,
        )

    s_total = sum(r.s_extended for r in per_group.values())
    variance = sum(r.variance for r in per_group.values())
    z = z_score(s_total, variance, continuity=continuity)
    p = p_value(z, sidedness)

    warns: list[str] = []
    if len(per_group) * data.periods <= small_product:
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
