"""Normal-approximation inference for the thresholded trend score.

:func:`score_rows` owns the test: the score, plug-in variance and z of
each row of an (m, n) matrix. run_test is its m = 1 case, and the
simulation study scores its replicates with it. Results are frozen
dataclasses; anything that depends on randomness is in permutation.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .core import LrdRule, Series, _symmetric_only, pair_counts, tie_fraction
from .errors import InputError, real
from .variance import var_classical, var_extended_hat, tie_groups

# ── defaults ────────────────────────────────────────────────────────────

SMALL_N = 10          # below this the normal approximation is shaky
HEAVY_TIES = 0.6      # zero-score pair fraction at or above this

SIDEDNESS = ("two_sided", "greater", "less")


def z_score(s_ex, variance, continuity: bool = True):
    """Standardized score, optionally continuity-corrected; elementwise on arrays.

    With the correction, z = (s - 1)/sqrt(var) for s > 0 and
    (s + 1)/sqrt(var) for s < 0; z = 0 at s = 0. Without it, z =
    s/sqrt(var).

    Args:
        s_ex: Observed score (integer-valued), a scalar or an array.
        variance: Null variance, broadcast against s_ex; must be >= 0.
            Both must be finite, else InputError.
        continuity: Apply the +/-1 correction toward zero.

    Returns:
        The z statistic, a float for scalar input. Where variance is 0:
        0.0 for s_ex == 0, signed infinity otherwise.
    """
    var = np.asarray(variance, dtype=float)
    if not np.all(np.isfinite(var)) or np.any(var < 0):
        raise InputError(f"variance must be finite and >= 0, got {variance!r}")
    s = np.asarray(s_ex, dtype=float)
    if not np.all(np.isfinite(s)):
        raise InputError(f"score must be finite, got {s_ex!r}")
    if continuity:
        s = s - np.sign(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        # var = 0: the raw score over 0 is +/-inf, or NaN (a sure tie) at s = 0
        z = np.where(var > 0, s, s_ex) / np.sqrt(var)
    z = np.where(np.isnan(z), 0.0, z)
    return float(z) if z.ndim == 0 else z


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


def critical_value(alpha_level: float) -> float:
    """Two-sided normal critical value, -Phi^-1(alpha_level / 2).

    The |z| at which the two-sided p-value equals alpha_level, so a test
    of that size rejects when |z| >= critical_value(alpha_level).
    The size must be below 1 and large enough that alpha_level / 2 is
    not 0, else InputError.
    """
    alpha_level = real(alpha_level, "alpha_level")
    if not (0.0 < alpha_level / 2.0 and alpha_level < 1.0):
        raise InputError(f"alpha_level must be in (0, 1), with alpha_level / 2 above 0, "
                         f"got {alpha_level!r}")
    return -NormalDist().inv_cdf(alpha_level / 2.0)


def tau_extended(s_ex: int, scoring: int, n: int) -> tuple[float, float | None]:
    """Rank-correlation style effect sizes for the thresholded score.

    tau_a divides by the total number of pairs. tau_b divides by the
    geometric mean of the unthresholded pair count and the count of
    pairs the threshold leaves active, mirroring the tie-corrected
    denominator of the classical coefficient. ``scoring`` counts the
    pairs that score +/-1.

    Returns:
        (tau_a, tau_b); tau_b is None when no pair clears the threshold.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    pairs = n * (n - 1) / 2.0
    tau_a = s_ex / pairs
    if scoring == 0:
        return tau_a, None
    tau_b = s_ex / math.sqrt(scoring * pairs)
    return tau_a, tau_b


def score_rows(rows: np.ndarray, rule: LrdRule, continuity: bool = True):
    """The analytic test's (s, scoring, variance, z) for each row of an (m, n) matrix.

    Score, number of pairs scoring +/-1, plug-in variance and z, one entry
    per row (series). Symmetric rules only; others raise AnalyticUnavailable.
    """
    _symmetric_only(rule, "the analytic variance (u/v counts)")
    s, scoring, u, v = pair_counts(rows, rule)
    variance = var_extended_hat(u, v)
    return s, scoring, variance, z_score(s, variance, continuity=continuity)


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

    Returns:
        TrendTestResult. Possible warning slugs: ``small_n`` (n below
        SMALL_N), ``heavy_ties`` (zero-score fraction at or above
        HEAVY_TIES), ``degenerate_variance`` (estimated variance is 0,
        so z and p are degenerate).

    Raises:
        AnalyticUnavailable: For one-directional rules, which have no
            normal-approximation theory here; use the permutation test.
    """
    if rule is None:
        rule = LrdRule(d=0.0)
    n = len(series)
    s, scoring, variance, z = score_rows(series.values[None, :], rule, continuity)
    s_ex, scoring, variance, z = int(s[0]), int(scoring[0]), float(variance[0]), float(z[0])
    vclass = var_classical(n, tie_groups(series.values))
    p = p_value(z, sidedness)  # infinite z falls out as p = 0 (or 1)
    pi_t = tie_fraction(scoring, n)
    tau_a, tau_b = tau_extended(s_ex, scoring, n)

    warns: list[str] = []
    if n < SMALL_N:
        warns.append("small_n")
    if pi_t >= HEAVY_TIES:
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
