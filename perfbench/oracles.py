"""Reference values the benchmark checks each result against.

Nothing here imports lrdkendall. Each expected value is re-derived from
its definition (the plain pair rule, closed forms, a numerical integral)
or is a published golden number, so a defect in the package cannot be
hidden by checking it against itself.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np

# criterion 01: the fraction-of-mean 0.05 / boundary "lt" regional row
REGIONAL_GOLDEN = {"s": 49, "variance": 239.67, "p": 0.0019}
REGIONAL_TOL = {"variance": 0.01, "p": 0.0005}

# criterion 03: asymptotic drift of the normal(0, 1) curve at slope 1
FROZEN_DRIFTS = {
    0.0: 0.282094791773878,
    0.5: 0.283766084176666,
    1.0: 0.287164843046582,
    1.34: 0.288307683421073,
    2.0: 0.280857386114808,
    3.0: 0.234067446634022,
}
DRIFT_TOL = 1e-6

# Monte Carlo checks allow this many combined standard errors. Over the
# 60-cell sim_grid slice a correct engine exceeds it with probability
# well below 1e-4 on any seed.
MC_SIGMAS = 5.0


def _moves(delta, d: float, boundary: str, direction: str):
    """Boolean arrays (up, down) of pairs scoring +1 and -1."""
    def exceeds(a):
        return a > d if boundary == "leq" else a >= d

    up = delta > 0
    down = delta < 0
    if direction in ("symmetric", "positive_only"):
        up = up & exceeds(delta)
    if direction in ("symmetric", "negative_only"):
        down = down & exceeds(-delta)
    return up, down


def pair_rule(values, d: float, boundary: str = "leq", direction: str = "symmetric"):
    """(score, tied pairs, pairs) of a series by the plain pair rule.

    Walks one earlier observation at a time, so memory stays linear in n.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    score = 0
    scoring = 0
    for i in range(n - 1):
        up, down = _moves(x[i + 1:] - x[i], d, boundary, direction)
        nu, nd = int(up.sum()), int(down.sum())
        score += nu - nd
        scoring += nu + nd
    pairs = n * (n - 1) // 2
    return score, pairs - scoring, pairs


def exhaustive_null(values, d: float, boundary: str = "leq",
                    direction: str = "symmetric") -> np.ndarray:
    """Score of every ordering of ``values``, by the plain pair rule."""
    rows = np.array(list(itertools.permutations(np.asarray(values, dtype=float))))
    s = np.zeros(len(rows), dtype=np.int64)
    for i in range(rows.shape[1] - 1):
        up, down = _moves(rows[:, i + 1:] - rows[:, i:i + 1], d, boundary, direction)
        s += up.sum(axis=1) - down.sum(axis=1)
    return s


def null_tie_probability(distribution: str, ratio: float) -> float:
    """P(|e1 - e2| <= ratio * sd) for iid errors of the given kind."""
    if distribution == "normal":
        return math.erf(ratio / 2.0)
    width = 2.0 * math.sqrt(3.0)
    return 1.0 if ratio >= width else 1.0 - (1.0 - ratio / width) ** 2


def _shared_tie_probability(distribution: str, ratio: float) -> float:
    """P(|e1 - e2| <= r and |e1 - e3| <= r), unit-sd errors, by quadrature."""
    if distribution == "normal":
        x = np.linspace(-12.0, 12.0, 48001)
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        erf = np.frompyfunc(math.erf, 1, 1)

        def cdf(t):
            return 0.5 * (1.0 + erf(t / math.sqrt(2.0)).astype(float))
    else:
        half = math.sqrt(3.0)
        x = np.linspace(-half, half, 48001)
        pdf = np.full_like(x, 1.0 / (2.0 * half))

        def cdf(t):
            return np.clip((t + half) / (2.0 * half), 0.0, 1.0)
    window = cdf(x + ratio) - cdf(x - ratio)
    return float(np.trapezoid(pdf * window * window, x))


def null_tie_tolerance(distribution: str, ratio: float, n: int, replicates: int) -> float:
    """MC_SIGMAS standard errors of a cell's mean null tie proportion.

    The per-replicate tie proportion is a U-statistic over n(n-1)/2 pair
    indicators; pairs sharing one observation are correlated, disjoint
    pairs are not.
    """
    q = null_tie_probability(distribution, ratio)
    shared = _shared_tie_probability(distribution, ratio)
    pairs = n * (n - 1) / 2.0
    var = (pairs * q * (1.0 - q) + n * (n - 1) * (n - 2) * (shared - q * q)) / pairs**2
    return MC_SIGMAS * math.sqrt(max(var, 0.0) / replicates) + 1e-9


def rejection_tolerance(p_obs: float, p_ref: float, replicates: int) -> float:
    """MC_SIGMAS combined standard errors of two rejection-rate estimates.

    Both the engine and the tabulation are ``replicates``-draw estimates;
    the tabulation prints three decimals, hence the 0.0005.
    """
    p = min(max((p_obs + p_ref) / 2.0, 1e-4), 1.0 - 1e-4)
    return MC_SIGMAS * math.sqrt(2.0 * p * (1.0 - p) / replicates) + 0.0005


def golden_power(root: Path) -> dict:
    """The POWER table of tests/golden_tables.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "_bench_golden_tables", root / "tests" / "golden_tables.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {"ratios": module.RATIOS, "power": module.POWER}
