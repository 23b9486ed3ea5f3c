"""Analytic power machinery under contiguous trend alternatives."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from lrdkendall import (
    AnalyticUnavailable,
    DegenerateRegime,
    ErrorDensity,
    InputError,
    MomentSet,
    asymptotic_drift,
    diff_density,
    moments,
    power_curve,
    power_gain_condition,
    validate_moments,
)
from lrdkendall.inference import critical_value

# drift of the standardized statistic per unit slope, unit normal errors,
# frozen from an independent quadrature run at fifteen decimals
NORMAL_DRIFT = {
    0.0: 0.282094791773878,
    0.5: 0.283766084176666,
    1.0: 0.287164843046582,
    1.34: 0.288307683421073,
    2.0: 0.280857386114808,
    3.0: 0.234067446634022,
}

NULL_MOMENTS = MomentSet(1 / 3, 1 / 3, 1 / 6, 1 / 2)


def quadrature_moments(sigma, d):
    """Normal moments as adaptive quadrature over the line, independent of
    the package's orthant closed form: (above_two, below_two, above_below,
    above_one)."""

    def pdf(x):
        return math.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))

    def cdf(x):
        return special.ndtr(x / sigma)

    integrands = (
        lambda x: pdf(x) * cdf(x - d) ** 2,
        lambda x: pdf(x) * (1.0 - cdf(x + d)) ** 2,
        lambda x: pdf(x) * cdf(x - d) * (1.0 - cdf(x + d)),
        lambda x: pdf(x) * cdf(x - d),
    )
    return tuple(
        integrate.quad(fn, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        for fn in integrands
    )


def tabulated_normal(sigma=1.0, span=9.0, points=4001):
    xs = np.linspace(-span * sigma, span * sigma, points)
    fs = np.exp(-0.5 * (xs / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return ErrorDensity.tabulated(xs, fs)


class TestErrorDensity:
    def test_validation(self):
        with pytest.raises(InputError):
            ErrorDensity.normal(0.0)
        with pytest.raises(InputError):
            ErrorDensity.uniform(1.0, 1.0)
        with pytest.raises(InputError):
            # finite ends whose width overflows used to give NaN moments
            ErrorDensity.uniform(-1e308, 1e308)
        with pytest.raises(InputError):
            ErrorDensity.tabulated([0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(InputError):
            ErrorDensity.tabulated([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])
        with pytest.raises(InputError):
            # mass far from one
            ErrorDensity.tabulated([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(InputError, match="finite width"):
            # unit mass, but a span that overflows gave NaN moments
            ErrorDensity.tabulated([-1e308, 0.0, 1e308], [0.0, 1e-308, 0.0])
        with pytest.raises(InputError, match="integrates to inf"):
            # the mass overflows: refused, with no overflow warning
            ErrorDensity.tabulated([0.0, 1e300, 2e300], [0.0, 1e300, 0.0])
        with pytest.raises(InputError, match="unknown density kind"):
            ErrorDensity(kind="gamma")


class TestDiffDensity:
    def test_normal_closed_form(self):
        # the difference of two unit normals has variance 2
        assert diff_density(ErrorDensity.normal(1.0), 0.0) == pytest.approx(
            1 / (2 * math.sqrt(math.pi))
        )
        assert diff_density(ErrorDensity.normal(2.0), 1.0) == pytest.approx(
            math.exp(-1 / 16) / (4 * math.sqrt(math.pi))
        )

    def test_uniform_triangle(self):
        density = ErrorDensity.uniform(0.0, 1.0)
        assert diff_density(density, 0.0) == pytest.approx(1.0)
        assert diff_density(density, 0.5) == pytest.approx(0.5)
        assert diff_density(density, 1.0) == pytest.approx(0.0)
        assert diff_density(density, 1.5) == 0.0

    def test_symmetry(self):
        density = ErrorDensity.normal(1.5)
        for d in (0.3, 1.0, 2.2):
            assert diff_density(density, d) == pytest.approx(diff_density(density, -d))

    def test_tabulated_tracks_closed_form(self):
        density = tabulated_normal()
        for d in (0.0, 0.5, 1.5):
            want = math.exp(-(d**2) / 4) / (2 * math.sqrt(math.pi))
            assert diff_density(density, d) == pytest.approx(want, abs=1e-4)


class TestMoments:
    def test_threshold_zero_axioms(self):
        for density in (ErrorDensity.normal(1.0), ErrorDensity.uniform(0.0, 1.0)):
            m = moments(density, 0.0)
            assert m.above_two == pytest.approx(1 / 3, abs=1e-8)
            assert m.below_two == pytest.approx(1 / 3, abs=1e-8)
            assert m.above_below == pytest.approx(1 / 6, abs=1e-8)
            assert m.above_one == pytest.approx(1 / 2, abs=1e-8)

    def test_uniform_closed_forms(self):
        # width 1, d = 0.25: (w-d)^3/(3w^3), (w-2d)^3/(6w^3), (w-d)^2/(2w^2)
        m = moments(ErrorDensity.uniform(0.0, 1.0), 0.25)
        assert m.above_two == pytest.approx(0.75**3 / 3)
        assert m.below_two == pytest.approx(0.75**3 / 3)
        assert m.above_below == pytest.approx(0.5**3 / 6)
        assert m.above_one == pytest.approx(0.75**2 / 2)

    def test_uniform_beyond_support_degenerates(self):
        m = moments(ErrorDensity.uniform(0.0, 1.0), 1.5)
        assert m == MomentSet(0.0, 0.0, 0.0, 0.0)

    def test_chain_holds_along_grid(self):
        for density in (ErrorDensity.normal(1.0), ErrorDensity.uniform(-2.0, 2.0)):
            for d in np.linspace(0.0, 3.0, 13):
                validate_moments(moments(density, float(d)))

    def test_normal_exceedance_probability(self):
        # P(X1 - X2 > d) with difference sd sqrt(2)
        m = moments(ErrorDensity.normal(1.0), 1.0)
        assert m.above_one == pytest.approx(0.5 * math.erfc(0.5), rel=1e-10)

    def test_monte_carlo_cross_check(self):
        # triple probabilities vs 2e6 simulated triples, 4 sigma slack
        rng = np.random.default_rng(123)
        n_samples = 2_000_000
        x = rng.normal(size=(n_samples, 3))
        d = 1.0
        above = (x[:, 0] > x[:, 1] + d) & (x[:, 0] > x[:, 2] + d)
        mixed = (x[:, 0] > x[:, 1] + d) & (x[:, 0] < x[:, 2] - d)
        m = moments(ErrorDensity.normal(1.0), d)
        for want, flags in ((m.above_two, above), (m.above_below, mixed)):
            got = flags.mean()
            se = math.sqrt(got * (1 - got) / n_samples)
            assert abs(got - want) < 4 * se

    def test_tabulated_close_to_exact(self):
        exact = moments(ErrorDensity.normal(1.0), 0.5)
        table = moments(tabulated_normal(), 0.5)
        assert table.above_two == pytest.approx(exact.above_two, abs=2e-4)
        assert table.above_one == pytest.approx(exact.above_one, abs=2e-4)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_normal_closed_form_matches_quadrature(self, sigma):
        for d in np.linspace(0.0, 10.0 * sigma, 41):
            m = moments(ErrorDensity.normal(sigma), float(d))
            got = (m.above_two, m.below_two, m.above_below, m.above_one)
            want = quadrature_moments(sigma, float(d))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12, (sigma, d, got, want)

    def test_normal_far_tail_stays_valid(self):
        # the rho = -1/2 orthant term cancels against Phi(-h)^2 out here
        for d in np.linspace(0.0, 40.0, 401):
            m = moments(ErrorDensity.normal(1.0), float(d))
            assert m.above_two == m.below_two
            assert min(m.above_two, m.below_two, m.above_below, m.above_one) >= 0.0
            validate_moments(m)

    def test_rejects_negative_threshold(self):
        with pytest.raises(InputError):
            moments(ErrorDensity.normal(1.0), -0.5)


class TestDrift:
    def test_frozen_unit_normal_values(self):
        density = ErrorDensity.normal(1.0)
        for d, want in NORMAL_DRIFT.items():
            assert asymptotic_drift(density, 1.0, d) == pytest.approx(want, abs=1e-9)

    def test_linear_in_slope(self):
        density = ErrorDensity.normal(1.0)
        assert asymptotic_drift(density, 2.5, 0.7) == pytest.approx(
            2.5 * asymptotic_drift(density, 1.0, 0.7)
        )

    def test_interior_maximum(self):
        density = ErrorDensity.normal(1.0)
        grid = np.arange(0.0, 3.0, 0.01)
        drifts = [asymptotic_drift(density, 1.0, float(d)) for d in grid]
        best = grid[int(np.argmax(drifts))]
        assert 1.30 <= best <= 1.38

    def test_uniform_beyond_support_degenerates(self):
        with pytest.raises(DegenerateRegime):
            asymptotic_drift(ErrorDensity.uniform(0.0, 1.0), 1.0, 2.0)


class TestPowerCurve:
    def test_zero_slope_is_alpha(self):
        points = power_curve(ErrorDensity.normal(1.0), 0.0, [0.0, 1.0, 2.0])
        for pt in points:
            assert pt.power == pytest.approx(0.05)

    def test_follows_drift_ordering(self):
        points = power_curve(ErrorDensity.normal(1.0), 0.5, [0.0, 1.34, 3.0])
        by_d = {pt.d: pt for pt in points}
        assert by_d[1.34].power > by_d[0.0].power > by_d[3.0].power

    def test_degenerate_rows_are_flagged(self):
        points = power_curve(ErrorDensity.uniform(0.0, 1.0), 0.5, [0.5, 2.0])
        assert not points[0].degenerate
        assert points[1].degenerate
        assert points[1].drift is None
        assert points[1].power == 1.0

    def test_critical_value_matches_scipy(self):
        # statistics.NormalDist and scipy's ndtri differ here by 6.7e-16
        assert abs(critical_value(0.05) - -special.ndtri(0.025)) <= 1e-15

    def test_alpha_validated(self):
        with pytest.raises(InputError):
            power_curve(ErrorDensity.normal(1.0), 0.5, [0.0], alpha_level=0.0)
        with pytest.raises(InputError):
            # alpha / 2 underflows to 0: this used to end in StatisticsError
            power_curve(ErrorDensity.normal(1.0), 0.5, [0.0], alpha_level=5e-324)

    def test_critical_value_tiny_alpha(self):
        assert critical_value(1e-320) == pytest.approx(38.287221, abs=1e-6)

    @pytest.mark.parametrize("slope", [math.nan, math.inf])
    def test_non_finite_slope_rejected(self, slope):
        # same check as asymptotic_drift
        with pytest.raises(InputError, match="slope"):
            power_curve(ErrorDensity.normal(1.0), slope, [0.0, 1.0])

    def test_quadratic_start(self):
        # the curve is flat to first order at d = 0: finite differences of
        # the drift scale by 4 when the step doubles
        density = ErrorDensity.normal(1.0)
        base = asymptotic_drift(density, 1.0, 0.0)
        small = asymptotic_drift(density, 1.0, 0.01) - base
        double = asymptotic_drift(density, 1.0, 0.02) - base
        assert double / small == pytest.approx(4.0, rel=0.05)


class TestGainCondition:
    def test_normal_closed_forms(self):
        gain = power_gain_condition(ErrorDensity.normal(1.0))
        assert gain.holds
        assert gain.squared_mass == pytest.approx(1 / (2 * math.sqrt(math.pi)), abs=1e-10)
        assert gain.cubed_mass == pytest.approx(1 / (2 * math.pi * math.sqrt(3)), abs=1e-10)
        assert gain.derivative_mass == pytest.approx(1 / (4 * math.sqrt(math.pi)), abs=1e-10)
        assert gain.lhs == pytest.approx(0.02592117, abs=1e-7)
        assert gain.rhs == pytest.approx(0.02350790, abs=1e-7)

    def test_scale_leaves_verdict(self):
        # both sides shrink with the cube of the scale, verdict unchanged
        one = power_gain_condition(ErrorDensity.normal(1.0))
        two = power_gain_condition(ErrorDensity.normal(2.0))
        assert two.holds == one.holds
        assert two.lhs == pytest.approx(one.lhs / 8, rel=1e-9)
        assert two.rhs == pytest.approx(one.rhs / 8, rel=1e-9)

    def test_extreme_normal_scales(self):
        # these used to end in OverflowError (s**3) and ZeroDivisionError
        one = power_gain_condition(ErrorDensity.normal(1.0))
        for sigma in (1e200, 1e-200):
            assert power_gain_condition(ErrorDensity.normal(sigma)).holds == one.holds

    def test_uniform_has_no_derivative(self):
        with pytest.raises(AnalyticUnavailable):
            power_gain_condition(ErrorDensity.uniform(0.0, 1.0))

    def test_tabulated_normal_agrees(self):
        gain = power_gain_condition(tabulated_normal())
        exact = power_gain_condition(ErrorDensity.normal(1.0))
        assert gain.holds
        assert gain.lhs == pytest.approx(exact.lhs, rel=1e-3)
        assert gain.rhs == pytest.approx(exact.rhs, rel=1e-3)

    # a table is read as piecewise linear, so its masses have exact closed forms
    # per segment, worked out by hand here
    @pytest.mark.parametrize(
        "x, f, masses",
        [
            # the triangle 1 - |x|: 2/3, 1/2 and 2
            ([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], (2 / 3, 1 / 2, 2.0)),
            # a trapezoid, flat on [-1, 1]: the ramps add 2/27, 1/54 and 2/9, the
            # flat top 2/9, 2/27 and 0
            ([-2.0, -1.0, 1.0, 2.0], [0.0, 1 / 3, 1 / 3, 0.0], (8 / 27, 5 / 54, 2 / 9)),
        ],
    )
    def test_tabulated_masses_are_exact(self, x, f, masses):
        gain = power_gain_condition(ErrorDensity.tabulated(x, f))
        got = (gain.squared_mass, gain.cubed_mass, gain.derivative_mass)
        assert got == pytest.approx(masses, rel=1e-15, abs=0)
        assert gain.lhs == pytest.approx(masses[0] * masses[1], rel=1e-15, abs=0)
        assert gain.rhs == pytest.approx(masses[2] / 6, rel=1e-15, abs=0)
        assert gain.holds is (masses[0] * masses[1] > masses[2] / 6)


class TestTablesFarFromUnitWidth:
    """Tabulated integrals are taken on the table rescaled by a power of two, so a
    table's width neither overflows nor underflows a product of density values."""

    # five points of unit trapezoid mass, not symmetric
    X = np.array([-1.0, 0.0, 0.5, 1.0, 3.0])
    F = np.array([0.0, 0.5, 0.5, 0.3, 0.0])

    @pytest.mark.parametrize("k", [600, -600])
    def test_power_of_two_scale_is_exact(self, k):
        scale = 2.0**k
        unit = ErrorDensity.tabulated(self.X, self.F)
        far = ErrorDensity.tabulated(self.X * scale, self.F / scale)
        for d in (0.0, 0.4, 1.0, 5.0):
            assert diff_density(far, d * scale) == diff_density(unit, d) / scale
            assert moments(far, d * scale) == moments(unit, d)
        one, gain = power_gain_condition(unit), power_gain_condition(far)
        assert gain.holds == one.holds
        assert gain.squared_mass == one.squared_mass / scale

    @pytest.mark.parametrize("width", [1e200, 1e-120, 1e-300])
    def test_triangles_keep_the_unit_triangle_verdict(self, width):
        # at 1e200 f * f underflowed, at 1e-120 and 1e-300 it overflowed
        unit = ErrorDensity.tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        far = ErrorDensity.tabulated([-width, 0.0, width], [0.0, 1.0 / width, 0.0])
        assert diff_density(far, 0.0) == pytest.approx(2 / 3 / width, rel=1e-6)
        # the unit triangle ties, lhs = rhs = 1/3, and a tie fails the strict >
        one = power_gain_condition(unit)
        assert one.lhs == one.rhs == pytest.approx(1 / 3, rel=1e-15)
        assert power_gain_condition(far).holds == one.holds is False

    def test_knots_that_rescale_to_one_point(self):
        # divided by c ~ 2**665, the two middle knots both read 0: a flat segment
        # there adds nothing, where (b - a)**2 / h was 0 / 0
        flat = ErrorDensity.tabulated([-1e200, 1e-300, 2e-300, 1e200], [0.0, 1e-200, 1e-200, 0.0])
        triangle = ErrorDensity.tabulated([-1e200, 0.0, 1e200], [0.0, 1e-200, 0.0])
        assert power_gain_condition(flat) == power_gain_condition(triangle)
        # a step there has no square-integrable derivative
        step = ErrorDensity.tabulated([-1e200, 0.0, 1e-300, 2e200], [0.0, 1e-200, 0.5e-200, 0.0])
        with pytest.raises(AnalyticUnavailable, match="differentiable"):
            power_gain_condition(step)
