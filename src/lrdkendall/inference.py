"""Normal-approximation inference for the thresholded trend score.

Args/Returns conventions follow the rest of the package: statistics are
plain floats, the result object is a frozen dataclass, and anything that
depends on randomness lives elsewhere (see permutation.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import LrdRule, Series, pair_counts, uv_counts
from .errors import AnalyticUnavailable, InputError
from .variance import var_classical, var_extended_hat, tie_groups

# ── defaults ────────────────────────────────────────────────────────────

SMALL_N = 10          # below this the normal approximation is shaky
HEAVY_TIES = 0.6      # zero-score pair fraction at or above this

SIDEDNESS = ("two_sided", "greater", "less")


def z_score(s_ex: int, variance: float, continuity: bool = True) -> float:
    """Standardized score, optionally continuity-corrected.

    With the correction, z = (s - 1)/sqrt(var) for s > 0 and
    (s + 1)/sqrt(var) for s < 0; z = 0 at s = 0. Without it, z =
    s/sqrt(var).

    Args:
        s_ex: Observed score (integer-valued).
        variance: Null variance; must be nonnegative.
        continuity: Apply the +/-1 correction toward zero.

    Returns:
        The z statistic. When variance is 0: 0.0 for s_ex == 0,
        signed infinity otherwise.
    """
    if not np.isfinite(variance) or variance < 0:
        raise InputError(f"variance must be finite and >= 0, got {variance!r}")
    if variance == 0.0:
        if s_ex == 0:
            return 0.0
        return math.inf if s_ex > 0 else -math.inf
    s = float(s_ex)
    if continuity:
        if s > 0:
            s -= 1.0
        elif s < 0:
            s += 1.0
    return s / math.sqrt(variance)


def p_value(z: float, sidedness: str = "two_sided") -> float:
    """Normal-tail p-value of a z statistic.

    two_sided gives 2(1 - Phi(|z|)), greater gives 1 - Phi(z), less
    gives Phi(z). Evaluated through erfc, which is accurate to ~1e-15
    even far out in the tail; the error that matters in practice is the
    normal approximation itself, not this evaluation. Infinite z is
    accepted and gives the limiting value (0 or 1).
    """
    if math.isnan(z):
        raise InputError("z is NaN")
    if sidedness not in SIDEDNESS:
        raise InputError(f"sidedness must be one of {SIDEDNESS}, got {sidedness!r}")
    sqrt2 = math.sqrt(2.0)
    if sidedness == "two_sided":
        return min(1.0, math.erfc(abs(z) / sqrt2))
    if sidedness == "greater":
        return 0.5 * math.erfc(z / sqrt2)
    return 0.5 * math.erfc(-z / sqrt2)


def tau_extended(s_ex: int, scoring, n: int) -> tuple[float, float | None]:
    """Rank-correlation style effect sizes for the thresholded score.

    tau_a divides by the total number of pairs. tau_b divides by the
    geometric mean of the unthresholded pair count and the count of
    pairs the threshold leaves active, mirroring the tie-corrected
    denominator of the classical coefficient. ``scoring`` counts the
    pairs that score +/-1; an array is summed, so the u counts serve
    under the default boundary ("lt" at d = 0 counts exact ties twice).

    Returns:
        (tau_a, tau_b); tau_b is None when no pair clears the threshold.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    pairs = n * (n - 1) / 2.0
    tau_a = s_ex / pairs
    active = float(np.sum(np.asarray(scoring, dtype=np.int64)))
    if active == 0:
        return tau_a, None
    tau_b = s_ex / math.sqrt(active * pairs)
    return tau_a, tau_b


@dataclass(frozen=True)
class TrendTestResult:
    """Everything the analytic test computed, in one place.

    ``variance`` is the value used for ``z`` (the plug-in estimate by
    default). ``var_classical`` is always the d = 0 tie-corrected
    variance of the same data, for reference. Warnings are short
    machine-readable slugs; see run_test for the vocabulary.
    """

    s_extended: int
    variance: float
    z: float
    p: float
    sidedness: str
    tau_a: float
    tau_b: float | None
    tie_proportion: float
    n: int
    rule: LrdRule
    continuity: bool
    var_classical: float
    warnings: tuple[str, ...] = field(default_factory=tuple)


def run_test(
    series: Series,
    rule: LrdRule | None = None,
    sidedness: str = "two_sided",
    continuity: bool = True,
    small_n: int = SMALL_N,
    heavy_ties: float = HEAVY_TIES,
) -> TrendTestResult:
    """Run the thresholded trend test on one series.

    Args:
        series: Observations with strictly increasing times.
        rule: Threshold and boundary convention; defaults to the
            classical test (d = 0, default boundary).
        sidedness: "two_sided" (default), "greater" (upward alternative),
            or "less".
        continuity: Continuity-correct the z statistic. Disable to match
            conventions that standardize the raw score.
        small_n: Threshold for the ``small_n`` warning.
        heavy_ties: Tie-fraction threshold for the ``heavy_ties`` warning.

    Returns:
        TrendTestResult. Possible warning slugs: ``small_n`` (n below
        small_n), ``heavy_ties`` (zero-score fraction at or above
        heavy_ties), ``degenerate_variance`` (estimated variance is 0,
        so z and p are degenerate).

    Raises:
        AnalyticUnavailable: For one-directional rules, which have no
            normal-approximation theory here; use the permutation test.
    """
    if rule is None:
        rule = LrdRule(d=0.0)
    if rule.direction != "symmetric":
        raise AnalyticUnavailable(
            "analytic inference covers the symmetric rule only; "
            "use permutation_test for one-directional rules"
        )
    n = len(series)
    s, scoring = pair_counts(series.values[None, :], rule)
    s_ex, scoring = int(s[0]), int(scoring[0])
    u, v = uv_counts(series, rule)
    variance = var_extended_hat(u, v)
    vclass = var_classical(n, tie_groups(series.values))
    z = z_score(s_ex, variance, continuity=continuity)
    p = p_value(z, sidedness)  # infinite z falls out as p = 0 (or 1)
    pairs = n * (n - 1) // 2
    pi_t = (pairs - scoring) / pairs
    tau_a, tau_b = tau_extended(s_ex, scoring, n)

    warns: list[str] = []
    if n < small_n:
        warns.append("small_n")
    if pi_t >= heavy_ties:
        warns.append("heavy_ties")
    if variance == 0.0:
        warns.append("degenerate_variance")

    return TrendTestResult(
        s_extended=s_ex,
        variance=variance,
        z=z,
        p=p,
        sidedness=sidedness,
        tau_a=tau_a,
        tau_b=tau_b,
        tie_proportion=pi_t,
        n=n,
        rule=rule,
        continuity=continuity,
        var_classical=vclass,
        warnings=tuple(warns),
    )
