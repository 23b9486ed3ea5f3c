"""The package's one rule for numeric arguments, at every scalar entry point."""

import math

import numpy as np
import pytest

from lrdkendall import (
    ErrorDensity,
    InputError,
    LrdPolicy,
    LrdRule,
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
)
from lrdkendall.errors import real
from lrdkendall.inference import critical_value

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
]
NOT_NUMBERS = ["0.5", None, True, [0.5], math.nan, math.inf]


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize(
    "name, entry", ROUTED, ids=[f"{i}-{name}" for i, (name, _) in enumerate(ROUTED)]
)
def test_routed_argument_refuses_what_is_not_a_finite_number(name, entry, bad):
    with pytest.raises(InputError, match=f"^{name} must be a finite number"):
        entry(bad)


def test_real_takes_python_and_numpy_numbers_as_float():
    for value in (2, 2.5, np.float32(0.5), np.float64(-1.5), np.int64(3), np.int8(-2)):
        x = real(value, "x")
        assert type(x) is float and x == float(value)
    assert real(-0.0, "x") == 0.0
    for bad in (np.bool_(True), 10**400, -(10**400), np.float64("nan")):
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
