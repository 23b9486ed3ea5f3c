"""The package's one rule for numeric arguments, at every scalar entry point."""

import math

import numpy as np
import pytest

from lrdkendall import (
    ErrorDensity,
    InputError,
    LrdPolicy,
    LrdRule,
    MomentSet,
    Scenario,
    Series,
    asymptotic_drift,
    density_for,
    diff_density,
    moments,
    permutation_test,
    platelet_donations,
    power_curve,
    regional_test,
    render_json,
    run_test,
    tau_extended,
    tie_groups,
    var_classical,
    var_extended_from_moments,
    var_theoretical,
)
from lrdkendall.errors import real
from lrdkendall.inference import critical_value, p_value, z_score
from lrdkendall.seeds import check_replicates

from test_core import DBP

NORMAL = ErrorDensity.normal(1.0)

# (name in the error, entry point taking the value); every scalar argument
# a user chooses passes errors.real
ROUTED = [
    ("threshold d", lambda x: LrdRule(d=x)),
    ("policy value", lambda x: LrdPolicy(value=x)),
    ("sigma", lambda x: ErrorDensity.normal(x)),
    ("lower", lambda x: ErrorDensity.uniform(x, 1.0)),
    ("upper", lambda x: ErrorDensity.uniform(-1.0, x)),
    ("d", lambda x: diff_density(NORMAL, x)),
    ("threshold d", lambda x: moments(NORMAL, x)),
    ("slope", lambda x: asymptotic_drift(NORMAL, x, 0.5)),
    ("slope", lambda x: power_curve(NORMAL, x, [0.0, 0.5])),
    ("alpha_level", lambda x: critical_value(x)),
    ("error_sd", lambda x: density_for("normal", x)),
    ("d_grid entry", lambda x: power_curve(NORMAL, 1.0, [x])),
]
# repr(10**5000) passes the int-to-str digit limit, so it has an explicit id,
# and the refusal must describe it without printing it
NOT_NUMBERS = ["0.5", None, True, [0.5], math.nan, math.inf,
               pytest.param(10**5000, id="1e5000"), pytest.param([10**5000], id="[1e5000]")]


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize(
    "name, entry", ROUTED, ids=[f"{i}-{name}" for i, (name, _) in enumerate(ROUTED)]
)
def test_routed_argument_refuses_what_is_not_a_finite_number(name, entry, bad):
    with pytest.raises(InputError, match=f"^{name} must be a finite number"):
        entry(bad)


def test_power_grid_must_be_a_sequence_of_thresholds():
    # [] used to return (), which neither render_text nor render_json could
    # report, and a bare number ended in a TypeError
    with pytest.raises(InputError, match="^d_grid must hold at least one threshold"):
        power_curve(NORMAL, 1.0, [])
    for grid in (0.5, None):
        with pytest.raises(InputError, match="^d_grid must be a sequence of thresholds"):
            power_curve(NORMAL, 1.0, grid)


#: the d = 0 moments of any continuous error density
NULL_MOMENTS = MomentSet(1 / 3, 1 / 3, 1 / 6, 1 / 2)

#: a valid scenario, for one field at a time to be replaced
SCENARIO = dict(theta=0.0, p=1, n=10, distribution="normal", error_sd=1.0, d_ratios=(0.0,))

# (name in the error, entry point taking the value); every count passes
# errors.integral
COUNTED = [
    ("n", lambda x: var_classical(x)),
    ("tie extent", lambda x: var_classical(5, (x,))),
    ("n", lambda x: var_theoretical(NULL_MOMENTS, x)),
    ("n", lambda x: var_extended_from_moments(NULL_MOMENTS, x)),
    ("n", lambda x: tau_extended(1, 1, x)),
    ("replicates", check_replicates),
    ("seed", lambda x: Scenario(**SCENARIO, seed=x)),
    ("seed", lambda x: permutation_test(Series.from_values(DBP), seed=x, method="sampled")),
    ("score", lambda x: tau_extended(x, 1, 5)),
    ("scoring", lambda x: tau_extended(1, x, 5)),
]
# an integer beyond 64 bits is refused without being printed; the big
# inputs have explicit ids, as in NOT_NUMBERS
NOT_COUNTS = ["5", None, True, np.True_, [5], 2.5, 3.5, math.nan, math.inf, 1e20,
              pytest.param(2**64, id="2**64"), pytest.param(-(2**64), id="-2**64"),
              pytest.param(10**400, id="1e400"), pytest.param(10**5000, id="1e5000"),
              pytest.param([10**5000], id="[1e5000]")]


@pytest.mark.parametrize("bad", NOT_COUNTS, ids=repr)
@pytest.mark.parametrize(
    "name, entry", COUNTED, ids=[f"{i}-{name}" for i, (name, _) in enumerate(COUNTED)]
)
def test_counted_argument_refuses_what_is_not_an_integer(name, entry, bad):
    # 3.5 and 2.5 used to give a number, and "5" a bare TypeError; 10**400
    # ended in an OverflowError, and a seed of 2**64 ran
    with pytest.raises(InputError, match=f"^{name} must be an integer"):
        entry(bad)


def test_counted_arguments_keep_what_is_valid():
    # a numpy n used to wrap around in int64: var_classical(np.int64(10**7))
    # gave 4.3e17 in place of 1.1e20
    n = 10**7
    assert var_classical(np.int64(n)) == var_classical(n) == var_classical(float(n))
    assert var_theoretical(NULL_MOMENTS, np.int64(n)) == var_theoretical(NULL_MOMENTS, n)
    assert tau_extended(5, 5, np.int64(n)) == tau_extended(5, 5, n)
    assert var_classical(5, (np.int64(2), 3.0)) == var_classical(5, (2, 3))
    assert var_classical(2**64 - 1) > 0  # the largest n accepted
    with pytest.raises(InputError, match="^ties must be a sequence of tie extents"):
        var_classical(5, 2)


# (name in the error, entry point whose message shows the value)
SHOWN = [
    ("ties", lambda x: var_classical(5, x)),
    ("d_grid", lambda x: power_curve(NORMAL, 1.0, x)),
    ("d_ratios", lambda x: Scenario(**dict(SCENARIO, d_ratios=x))),
    ("score", lambda x: z_score([x], 1.0)),
    ("variance", lambda x: z_score(1, [x])),
]


@pytest.mark.parametrize("name, entry", SHOWN, ids=[name for name, _ in SHOWN])
def test_refusal_describes_an_integer_too_long_to_print(name, entry):
    # each message used to end in a bare ValueError from int-to-str conversion
    with pytest.raises(InputError, match=f"^{name} must be .*, got an? (int of 16610 bits|list)"):
        entry(10**5000)


@pytest.mark.parametrize("s_ex, scoring", [(10, 1), (-2, 1), (1, -1), (1, 11)])
def test_tau_extended_refuses_inconsistent_counts(s_ex, scoring):
    # (10, 1) gave tau_b = 3.16: |score| cannot pass the scoring pairs, nor
    # scoring the n(n-1)/2 = 10 pairs of n = 5
    with pytest.raises(InputError, match=r"^need \|score\| <= scoring <= n\(n-1\)/2 = 10"):
        tau_extended(s_ex, scoring, 5)
    assert tau_extended(-10, 10, 5) == (-1.0, -1.0)


# arguments wider than a finite scalar, with the NOT_NUMBERS that apply: z
# may be infinite, and z_score and tie_groups take arrays
WIDER = [
    ("z", lambda x: p_value(x), ["0.5", None, True, np.True_, [0.5], math.nan]),
    ("score", lambda x: z_score(x, 1.0),
     ["0.5", None, True, np.True_, np.array([True, False]), math.nan, math.inf]),
    ("variance", lambda x: z_score(1, x),
     ["0.5", None, True, np.True_, np.array([True, False]), math.nan, math.inf]),
    # NaNs used to count as one tie group, None and True gave (), "abc" a bare
    # ValueError, and a 2-d array was flattened
    ("values", tie_groups,
     ["abc", None, True, [True, False], 0.5, [math.nan, 1.0, math.nan], [1.0, math.inf],
      [[1.0, 1.0], [2.0, 2.0]]]),
]


@pytest.mark.parametrize("name, entry, bad", [
    pytest.param(name, entry, bad, id=f"{name}-{bad!r}")
    for name, entry, bads in WIDER for bad in bads
])
def test_wider_argument_refuses_what_is_not_a_number(name, entry, bad):
    with pytest.raises(InputError, match=f"^{name} must be"):
        entry(bad)


def test_wider_arguments_keep_what_is_valid():
    assert (p_value(math.inf), p_value(-math.inf, "greater")) == (0.0, 1.0)
    assert p_value(np.float32(0.0)) == 1.0
    assert z_score([0.5], 1.0, continuity=False).tolist() == [0.5]
    assert z_score(1, [0.25], continuity=False).tolist() == [2.0]
    assert z_score(np.int64(5), np.float32(4.0)) == 2.0
    assert tie_groups([2, 1.0, 2, 1, 2, 0.5]) == (2, 3) and tie_groups([]) == ()


def test_real_takes_python_and_numpy_numbers_as_float():
    for value in (2, 2.5, np.float32(0.5), np.float64(-1.5), np.int64(3), np.int8(-2)):
        x = real(value, "x")
        assert type(x) is float and x == float(value)
    assert real(-0.0, "x") == 0.0
    for bad in (np.bool_(True), 10**400, -(10**400), 10**5000, np.float64("nan")):
        with pytest.raises(InputError, match="^x must be a finite number"):
            real(bad, "x")


def test_constructors_store_plain_floats():
    assert type(LrdRule(d=1).d) is float and LrdRule(d=1).d == 1.0
    assert type(LrdPolicy(value=np.int64(0)).value) is float
    assert type(ErrorDensity.normal(np.float32(2.0)).sigma) is float
    uniform = ErrorDensity.uniform(np.int64(-1), np.float32(1.0))
    assert (type(uniform.lower), type(uniform.upper)) == (float, float)


# each result built from a numpy scalar renders exactly as from float(value)
RESULTS = [
    lambda v: run_test(Series.from_values(DBP), LrdRule(d=v)),
    lambda v: run_test(Series.from_values(DBP), LrdRule(d=v, boundary="lt")),
    lambda v: permutation_test(Series.from_values(DBP[:6]), LrdRule(d=v)),
    lambda v: regional_test(platelet_donations(), LrdPolicy(value=v)),
    lambda v: power_curve(ErrorDensity.normal(v), v, [0.0, 0.5, 1.0]),
    lambda v: power_curve(ErrorDensity.uniform(-v, v), 1.0, [0.0, 0.5, 3.0]),
]


@pytest.mark.parametrize("value", [np.float32(0.6), np.int64(1)], ids=repr)
@pytest.mark.parametrize("build", RESULTS, ids=range(len(RESULTS)))
def test_numpy_scalars_render_as_the_float(build, value):
    assert render_json(build(value)) == render_json(build(float(value)))
