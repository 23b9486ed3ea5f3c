"""Acceptance gate: one test per contract criterion, stated tolerances.

Each test prints a single bracketed verdict line (visible with -s, or in
the captured output on failure) so the whole gate can be read at a
glance.  Tolerances follow the contract wording; where a reference
number is a Monte Carlo estimate the tolerance combines both sides'
standard errors plus the rounding of the printed value.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from lrdkendall import (
    ErrorDensity,
    LrdPolicy,
    LrdRule,
    Series,
    asymptotic_drift,
    load_grid_config,
    moments,
    permutation_test,
    platelet_donations,
    power_gain_condition,
    regional_test,
    run_grid,
    run_test,
    tie_groups,
    uv_counts,
    validate_moments,
    var_classical,
    var_extended_from_moments,
    var_extended_hat,
    var_theoretical,
    moment_estimates,
)
from lrdkendall.seeds import generator_for
from lrdkendall.variance import MOMENT_SLACK

from golden_tables import POWER, RATIOS, TIES

REPO = Path(__file__).resolve().parents[1]


def verdict(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_criterion_01_golden_regional_rows():
    rows = [
        (LrdPolicy(value=0.0, boundary="lt"), 41, 315.67, 0.0244),
        (LrdPolicy(value=0.05, boundary="lt"), 45, 295.67, 0.0105),
        (LrdPolicy(value=0.20, boundary="lt"), 41, 223.67, 0.0075),
        (LrdPolicy(kind="fraction_of_group_mean", value=0.05, boundary="lt"), 49, 239.67, 0.0019),
        (LrdPolicy(kind="fraction_of_group_mean", value=0.10, boundary="lt"), 41, 175.00, 0.0025),
    ]
    data = platelet_donations()
    start = time.perf_counter()
    misses = []
    for policy, s_r, var, p in rows:
        got = regional_test(data, policy)
        if got.s_regional != s_r:
            misses.append(f"S {got.s_regional}!={s_r}")
        if abs(got.variance - var) > 0.01:
            misses.append(f"Var {got.variance:.4f}!={var}")
        if abs(got.p - p) > 0.0005:
            misses.append(f"p {got.p:.5f}!={p}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        misses.append(f"runtime {elapsed:.2f}s")
    verdict(1, not misses, f"five aggregate rows, {elapsed * 1000:.0f} ms" + "".join(misses))


def test_criterion_02_prose_threshold_point():
    # the quoted 0.07 tracks the uncorrected z at d = 0.4
    got = regional_test(
        platelet_donations(), LrdPolicy(value=0.4, boundary="lt"), continuity=False
    )
    ok = abs(got.p - 0.07) <= 0.005
    verdict(2, ok, f"d=0.4 two-sided p={got.p:.4f} vs 0.07 +/- 0.005")


def test_criterion_03_drift_curve_reproduction():
    frozen = {
        0.0: 0.282094791773878,
        0.5: 0.283766084176666,
        1.0: 0.287164843046582,
        1.34: 0.288307683421073,
        2.0: 0.280857386114808,
        3.0: 0.234067446634022,
    }
    density = ErrorDensity.normal(1.0)
    start = time.perf_counter()
    worst = 0.0
    for d, want in frozen.items():
        worst = max(worst, abs(asymptotic_drift(density, 1.0, d) - want))
    grid = np.arange(0.0, 3.0 + 0.005, 0.01)
    drifts = [asymptotic_drift(density, 1.0, float(d)) for d in grid]
    best = float(grid[int(np.argmax(drifts))])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and 1.30 <= best <= 1.38 and elapsed < 10.0
    verdict(3, ok, f"six points, worst |err|={worst:.2e}, argmax={best:.2f}, {elapsed:.1f} s")


def test_criterion_04_classical_reduction_identity():
    rng = generator_for("acceptance", "classical-reduction")
    rule = LrdRule(d=0.0)
    checked = ties_checked = 0
    for trial in range(1000):
        n = int(rng.integers(5, 51))
        values = rng.normal(size=n)
        assert len(np.unique(values)) == n  # continuous draws, tie-free
        series = Series.from_values(values)
        u, v = uv_counts(series, rule)
        s = run_test(series, rule).s_extended
        s_classical = int(np.sign(values[None, :] - values[:, None])[np.triu_indices(n, 1)].sum())
        assert s == s_classical
        assert var_extended_hat(u, v) == n * (n - 1) * (2 * n + 5) / 18
        checked += 1

        # overwrite a few entries with earlier values to force exact ties
        tied = values.copy()
        for k in rng.integers(1, n, size=max(2, n // 4)):
            tied[k] = tied[k - 1]
        tied_series = Series.from_values(tied)
        u2, v2 = uv_counts(tied_series, rule)
        want = var_classical(n, tie_groups(tied))
        assert var_extended_hat(u2, v2) == want
        ties_checked += 1
    verdict(4, True, f"{checked} tie-free + {ties_checked} tied series match exactly")


def test_criterion_05_moment_assembly_identity():
    rng = generator_for("acceptance", "assembly")
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 60))
        values = np.round(rng.normal(scale=rng.uniform(0.5, 3.0), size=n), 1)
        d = float(rng.uniform(0.0, 2.0))
        u, v = uv_counts(Series.from_values(values), LrdRule(d=d))
        direct = var_extended_hat(u, v)
        assembled = var_extended_from_moments(moment_estimates(u, v), n)
        worst = max(worst, abs(assembled - direct) / max(direct, 1.0))
    ok = worst < 1e-12
    verdict(5, ok, f"1000 random (data, d): worst relative gap {worst:.2e}")


def test_criterion_06_theoretical_variance_monte_carlo():
    n, total, chunk = 30, 200_000, 10_000
    i, j = np.triu_indices(n, k=1)
    start = time.perf_counter()
    details = []
    ok = True
    for d in (0.0, 0.5, 1.0):
        want = var_theoretical(moments(ErrorDensity.normal(1.0), d), n)
        scores = []
        for c in range(total // chunk):
            rows = generator_for("acceptance", "var-mc", d, c).normal(size=(chunk, n))
            deltas = rows[:, j] - rows[:, i]
            scores.append((np.sign(deltas) * (np.abs(deltas) > d)).sum(axis=1))
        got = float(np.concatenate(scores).var(ddof=1))
        rel = abs(got - want) / want
        ok = ok and rel <= 0.02
        details.append(f"d={d}: {rel:.3%}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    verdict(6, ok, f"{total} null samples, " + ", ".join(details) + f", {elapsed:.1f} s")


def _power_tolerance(p_obs, p_ref, replicates=10000):
    # both sides are 10000-replicate estimates; printed values carry 3 dp
    p = min(max((p_obs + p_ref) / 2, 1e-4), 1 - 1e-4)
    return 3 * math.sqrt(p * (1 - p) * 2 / replicates) + 0.0005


def test_criterion_07_simulation_grid_reproduction():
    start = time.perf_counter()
    grid = run_grid(load_grid_config(REPO / "configs" / "full_grid.json"))
    misses = []
    for key, cell in grid.items():
        sd_base = round(key.error_sd ** (1.0 / key.p), 6)
        col = RATIOS.index(key.d_ratio)
        ref_pow = POWER[(key.distribution, key.n, sd_base)][(key.theta, key.p)][col]
        ref_tie = TIES[(key.distribution, key.n, sd_base)][(key.theta, key.p)][col]
        if abs(cell.rejection_rate - ref_pow) > _power_tolerance(cell.rejection_rate, ref_pow):
            misses.append(f"power {key}")
        if abs(cell.mean_tie_proportion - ref_tie) > 0.01:
            misses.append(f"ties {key}")
        if key.theta == 0.0 and key.d_ratio > 0:
            if key.distribution == "normal":
                null_tie = math.erf(key.d_ratio / 2)
            else:
                null_tie = 1 - (1 - key.d_ratio / (2 * math.sqrt(3))) ** 2
            if abs(cell.mean_tie_proportion - null_tie) > 0.005:
                misses.append(f"null-tie {key}")
    full_elapsed = time.perf_counter() - start

    smoke_start = time.perf_counter()
    smoke = run_grid(load_grid_config(REPO / "configs" / "smoke_grid.json"))
    smoke_elapsed = time.perf_counter() - smoke_start
    if len(smoke) != 4 or smoke_elapsed >= 30.0:
        misses.append(f"smoke {len(smoke)} cells {smoke_elapsed:.1f}s")

    ok = not misses and full_elapsed < 900.0
    verdict(
        7,
        ok,
        f"{len(grid)} cells in {full_elapsed:.0f} s, smoke {smoke_elapsed:.1f} s"
        + ("" if not misses else "; " + "; ".join(misses[:4])),
    )


def test_criterion_08_permutation_agreement():
    rng = generator_for("acceptance", "perm-agreement")
    values = np.round(rng.normal(10.0, 1.0, size=20), 1)
    series = Series.from_values(values)
    rule = LrdRule(d=0.3)
    analytic = run_test(series, rule)
    assert analytic.tie_proportion < 0.6
    sampled = permutation_test(series, rule, replicates=100_000, seed=20260818)
    gap = abs(sampled.p - analytic.p)

    small = Series.from_values([3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0])
    exact = permutation_test(small)
    assert exact.method == "exhaustive"
    resampled = permutation_test(small, replicates=20_000, seed=7, method="sampled")
    se = math.sqrt(exact.p * (1 - exact.p) / resampled.draws)
    mode_gap = abs(resampled.p - exact.p)
    ok = gap <= 0.02 and mode_gap <= 3 * se + 1 / (resampled.draws + 1)
    verdict(
        8,
        ok,
        f"normal vs sampled gap {gap:.4f} (<=0.02), exhaustive vs sampled "
        f"{mode_gap:.4f} (<= {3 * se:.4f} + add-one)",
    )


def test_criterion_09_gain_condition_closed_forms():
    gain = power_gain_condition(ErrorDensity.normal(1.0))

    def phi(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    squared, _ = quad(lambda x: phi(x) ** 2, -np.inf, np.inf)
    cubed, _ = quad(lambda x: phi(x) ** 3, -np.inf, np.inf)
    derivative, _ = quad(lambda x: (x * phi(x)) ** 2, -np.inf, np.inf)
    closed = (1 / (2 * math.sqrt(math.pi)), 1 / (2 * math.pi * math.sqrt(3)), 1 / (4 * math.sqrt(math.pi)))
    worst = max(
        abs(gain.squared_mass - closed[0]),
        abs(gain.cubed_mass - closed[1]),
        abs(gain.derivative_mass - closed[2]),
        abs(gain.squared_mass - squared),
        abs(gain.cubed_mass - cubed),
        abs(gain.derivative_mass - derivative),
    )
    ok = gain.holds and worst <= 1e-8
    verdict(9, ok, f"holds={gain.holds}, worst closed-form gap {worst:.2e}")


def test_criterion_10_moment_axioms_and_chain():
    worst = 0.0
    for density in (ErrorDensity.normal(1.0), ErrorDensity.uniform(-1.0, 1.0)):
        m = moments(density, 0.0)
        worst = max(
            worst,
            abs(m.above_two - 1 / 3),
            abs(m.below_two - 1 / 3),
            abs(m.above_below - 1 / 6),
            abs(m.above_one - 1 / 2),
        )
        for d in np.linspace(0.0, 3.0, 16):
            validate_moments(moments(density, float(d)))  # within MOMENT_SLACK
    assert MOMENT_SLACK == 1e-12
    ok = worst <= 1e-8
    verdict(10, ok, f"axioms worst gap {worst:.2e}; chain holds along both grids")
