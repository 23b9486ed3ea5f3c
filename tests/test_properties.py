"""Property-based checks of the structural invariants.

Value strategies stick to integer-valued floats and power-of-two scale
factors so that every arithmetic identity below is exact in IEEE
doubles; the invariants themselves are about structure, not rounding.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdkendall import (
    LrdPolicy,
    LrdRule,
    RegionalDataset,
    Series,
    moment_estimates,
    p_value,
    pair_score,
    permutation_test,
    regional_test,
    run_test,
    s_extended,
    tie_groups,
    tie_proportion,
    uv_counts,
    var_classical,
    var_extended_from_moments,
    var_extended_hat,
    z_score,
)
from lrdkendall.core import DIRECTIONS, pair_counts
from lrdkendall.inference import score_rows, tie_fraction

int_values = st.lists(
    st.integers(min_value=-50, max_value=50).map(float), min_size=3, max_size=25,
)
thresholds = st.integers(min_value=0, max_value=8).map(lambda k: k / 2)
boundaries = st.sampled_from(["leq", "lt"])
# m rows of int_values cut to a common length, so duplicates and
# differences of exactly d occur within and across rows
matrices = st.lists(int_values, min_size=1, max_size=4).map(
    lambda rows: np.array([r[: min(map(len, rows))] for r in rows])
)

# values and thresholds on a 0.1 grid: duplicates are common, and so are
# differences that land on d or miss it by one rounding step
tenths = st.integers(-15, 15).map(lambda k: k / 10)
tenth_matrices = st.lists(
    st.lists(tenths, min_size=3, max_size=12), min_size=1, max_size=4
).map(lambda rows: np.array([r[: min(map(len, rows))] for r in rows]))


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@given(
    a=st.integers(-100, 100).map(float),
    b=st.integers(-100, 100).map(float),
    d=thresholds,
    boundary=boundaries,
)
def test_pair_score_antisymmetry(a, b, d, boundary):
    rule = LrdRule(d=d, boundary=boundary)
    assert pair_score(a, b, rule) == -pair_score(b, a, rule)


@given(values=int_values, d=thresholds, boundary=boundaries)
def test_time_reversal_negates_score(values, d, boundary):
    rule = LrdRule(d=d, boundary=boundary)
    forward = s_extended(Series.from_values(values), rule)
    backward = s_extended(Series.from_values(values[::-1]), rule)
    assert backward == -forward


@given(rows=matrices, d=thresholds, boundary=boundaries, direction=st.sampled_from(DIRECTIONS))
def test_pair_counts_match_scalar_pair_score(rows, d, boundary, direction):
    rule = LrdRule(d=d, boundary=boundary, direction=direction)
    s, scoring, _, _ = pair_counts(rows, rule)
    n = rows.shape[1]
    for k, row in enumerate(rows):
        scores = [pair_score(row[i], row[j], rule) for i in range(n) for j in range(i + 1, n)]
        assert s[k] == sum(scores)
        assert scoring[k] == sum(score != 0 for score in scores)


@given(
    rows=tenth_matrices,
    d=st.integers(0, 10).map(lambda k: k / 10),
    boundary=boundaries,
    continuity=st.booleans(),
)
def test_score_rows_match_run_test_row_by_row(rows, d, boundary, continuity):
    rule = LrdRule(d=d, boundary=boundary)
    s, scoring, variance, z = score_rows(rows, rule, continuity)
    n = rows.shape[1]
    for k, row in enumerate(rows):
        single = run_test(Series.from_values(row), rule, continuity=continuity)
        assert s[k] == single.s_extended
        assert same_bits(tie_fraction(scoring[k], n), single.tie_proportion)
        assert same_bits(variance[k], single.variance)
        assert same_bits(z[k], single.z)


@given(rows=matrices, d=thresholds, boundary=boundaries)
def test_exceedance_counts_match_double_loop(rows, d, boundary):
    rule = LrdRule(d=d, boundary=boundary)
    _, _, u, v = pair_counts(rows, rule)
    exceeds = (lambda diff: diff > d) if boundary == "leq" else (lambda diff: diff >= d)
    n = rows.shape[1]
    for k, row in enumerate(rows):
        for i in range(n):
            others = [j for j in range(n) if j != i]
            assert u[k, i] == sum(exceeds(row[i] - row[j]) for j in others)
            assert v[k, i] == sum(exceeds(row[j] - row[i]) for j in others)


@given(values=int_values, d=thresholds, shift=st.integers(-1000, 1000).map(float))
def test_translation_invariance(values, d, shift):
    rule = LrdRule(d=d)
    base = Series.from_values(values)
    moved = Series.from_values([x + shift for x in values])
    assert s_extended(moved, rule) == s_extended(base, rule)
    assert np.array_equal(uv_counts(moved, rule)[0], uv_counts(base, rule)[0])


@given(values=int_values, d=thresholds, factor=st.sampled_from([0.5, 2.0, 4.0]))
def test_scale_invariance(values, d, factor):
    base = s_extended(Series.from_values(values), LrdRule(d=d))
    scaled = s_extended(
        Series.from_values([x * factor for x in values]), LrdRule(d=d * factor)
    )
    assert scaled == base


@given(values=int_values, d=thresholds)
def test_ties_grow_with_threshold(values, d):
    series = Series.from_values(values)
    small = tie_proportion(series, LrdRule(d=d))
    large = tie_proportion(series, LrdRule(d=d + 0.5))
    assert 0.0 <= small <= large <= 1.0
    # exceedance pairs shrink correspondingly
    assert uv_counts(series, LrdRule(d=d))[0].sum() >= uv_counts(series, LrdRule(d=d + 0.5))[0].sum()


@given(values=int_values, boundary=boundaries)
def test_zero_threshold_is_classical(values, boundary):
    rule = LrdRule(d=0.0, boundary=boundary)
    classical = sum(
        int(np.sign(values[j] - values[i]))
        for i in range(len(values))
        for j in range(i + 1, len(values))
    )
    assert s_extended(Series.from_values(values), rule) == classical


@given(values=int_values)
def test_zero_threshold_variance_is_tie_corrected_classical(values):
    series = Series.from_values(values)
    u, v = uv_counts(series, LrdRule(d=0.0))
    want = var_classical(len(values), tie_groups(np.asarray(values)))
    assert var_extended_hat(u, v) == want


@given(values=int_values, d=thresholds)
def test_uv_bounds(values, d):
    u, v = uv_counts(Series.from_values(values), LrdRule(d=d))
    n = len(values)
    assert u.sum() == v.sum()
    assert np.all(u >= 0) and np.all(v >= 0)
    assert np.all(u + v <= n - 1)


@given(variance=st.floats(0.0, 1e6, allow_nan=False))
def test_zero_score_means_zero_z(variance):
    assert z_score(0, variance) == 0.0


@given(z=st.floats(-40, 40, allow_nan=False))
def test_p_value_bounds_and_tail_split(z):
    two = p_value(z)
    hi = p_value(z, "greater")
    lo = p_value(z, "less")
    for p in (two, hi, lo):
        assert 0.0 <= p <= 1.0
    assert hi + lo == pytest.approx(1.0)
    assert two == pytest.approx(min(1.0, 2 * min(hi, lo)))


@given(values=int_values, d=thresholds)
def test_moment_assembly_identity(values, d):
    u, v = uv_counts(Series.from_values(values), LrdRule(d=d))
    direct = var_extended_hat(u, v)
    assembled = var_extended_from_moments(moment_estimates(u, v), len(values))
    assert assembled == pytest.approx(direct, rel=1e-12, abs=1e-9)


@given(values=int_values, d=thresholds)
def test_run_test_fields_are_consistent(values, d):
    result = run_test(Series.from_values(values), LrdRule(d=d))
    assert 0.0 <= result.p <= 1.0
    assert 0.0 <= result.tie_proportion <= 1.0
    assert result.variance >= 0.0
    assert -1.0 <= result.tau_a <= 1.0
    if result.s_extended == 0:
        assert result.z == 0.0
        assert result.p == 1.0


@given(
    table=st.lists(
        st.lists(st.integers(-20, 20).map(float), min_size=4, max_size=4),
        min_size=2,
        max_size=5,
    ),
    d=thresholds,
)
def test_regional_additivity(table, d):
    times = np.arange(4.0)
    groups = {
        f"g{k}": Series(times, row) for k, row in enumerate(table)
    }
    result = regional_test(RegionalDataset(groups=groups), LrdPolicy(value=d))
    rule = LrdRule(d=d)
    parts = [run_test(series, rule) for series in groups.values()]
    assert result.s_regional == sum(r.s_extended for r in parts)
    assert result.variance == pytest.approx(sum(r.variance for r in parts))


@settings(max_examples=25, deadline=None)
@given(values=int_values, d=thresholds)
def test_sampled_permutation_p_in_half_open_unit(values, d):
    series = Series.from_values(values)
    result = permutation_test(series, LrdRule(d=d), replicates=60, seed=0, method="sampled")
    assert 0.0 < result.p <= 1.0
    assert result.p == pytest.approx((1 + result.exceed_count) / 61)


@settings(max_examples=40, deadline=None)
@given(
    ks=st.lists(st.integers(0, 5), min_size=2, max_size=7),
    step=st.sampled_from([0.1, 0.5, 1.0]),
    d=st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]),
    boundary=boundaries,
)
def test_plug_in_variance_is_the_exact_permutation_variance(ks, step, d, boundary):
    # values on a grid with many duplicates, compared over all n! orderings
    # in exact rational arithmetic
    values = np.array(ks) * step
    rule = LrdRule(d=d, boundary=boundary)
    null_s = [int(s) for s in pair_counts(np.array(list(itertools.permutations(values))), rule)[0]]
    assert sum(null_s) == 0  # the symmetric null mean
    exact = Fraction(sum(s * s for s in null_s), len(null_s))
    _, _, u, v = pair_counts(values[None, :], rule)
    plug_in = Fraction(int(((u - v) ** 2).sum() + u.sum()), 3)
    # under lt at d = 0 each pair of equal values is an exceedance both ways
    lt_zero = boundary == "lt" and d == 0
    excess = Fraction(sum(w * (w - 1) for w in tie_groups(values)), 3) if lt_zero else 0
    assert plug_in - exact == excess
    if not lt_zero:
        series = Series.from_values(values)
        null_sd = permutation_test(series, rule, method="exhaustive").null_sd
        assert math.isclose(null_sd**2, run_test(series, rule).variance, rel_tol=8 * 2.0**-52)
