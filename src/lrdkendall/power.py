"""Asymptotic behavior of the thresholded test under a local trend.

Everything here is analytic: the density of a pairwise error difference,
the exceedance moments as integrals against a supplied error density,
the drift of the standardized score under a trend that shrinks like
n^(-3/2), and the resulting power curve as a function of the threshold.
The point of the machinery is the tradeoff it exposes: a moderate
threshold can raise power above the classical d = 0 test, while an
oversized one destroys it.

Normal and uniform densities use closed forms throughout. The normal
triple-comparator moments are bivariate normal orthant probabilities at
correlation +1/2 and -1/2, written as Phi(-h)^2 plus a one-dimensional
integral over a finite angle (Drezner & Wesolowsky 1990; Genz 2004)
whose smooth integrand a fixed Gauss-Legendre rule evaluates to
rounding. A tabulated density is read as piecewise linear between its
knots. Its gain-condition masses are exact closed forms per segment;
g(d) and the moments are still trapezoid sums on a refined grid, which
limits their accuracy to roughly the grid resolution. Each integral is
taken on the table rescaled by the power of two at or below its width
and scaled back exactly, so no product of density values over- or
underflows on a table far from unit width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalyticUnavailable, DegenerateRegime, InputError, _shown, real
from .inference import critical_value, p_value
from .variance import MomentSet

_SQRT_PI = math.sqrt(math.pi)

#: normalization tolerance for tabulated densities
NORMALIZATION_TOL = 1e-8
#: drift denominators at or below this are treated as fully tied
DENOM_FLOOR = 1e-15

# 32-point Gauss-Legendre rule mapped onto t in [0, pi/6]: sin(t) at the
# nodes, and weights that fold in the 1/(2 pi) of the orthant formula
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_ORTHANT_SIN = np.sin(math.pi / 12.0 * (_GL_X + 1.0))
_ORTHANT_W = _GL_W / 24.0


# ── error densities ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class ErrorDensity:
    """An error distribution the power machinery can integrate against.

    Parameters
    ----------
    kind : str
        "normal", "uniform", or "tabulated".
    sigma : float, optional
        Standard deviation (normal kind).
    lower, upper : float, optional
        Support endpoints (uniform kind), lower < upper.
    grid_x, grid_f : ndarray, optional
        Sample points and density values (tabulated kind); nonnegative,
        integrating to 1 within 1e-8 by the trapezoid rule.

    Use the classmethods rather than filling fields by hand.
    """

    kind: str
    sigma: float | None = None
    lower: float | None = None
    upper: float | None = None
    grid_x: np.ndarray | None = None
    grid_f: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "normal":
            object.__setattr__(self, "sigma", real(self.sigma, "sigma"))
            if self.sigma <= 0:
                raise InputError(f"normal density needs sigma > 0, got {self.sigma!r}")
        elif self.kind == "uniform":
            for name in ("lower", "upper"):
                object.__setattr__(self, name, real(getattr(self, name), name))
            if not self.lower < self.upper or not math.isfinite(self.upper - self.lower):
                raise InputError(
                    f"uniform density needs lower < upper and a finite width, got "
                    f"({self.lower!r}, {self.upper!r})"
                )
        elif self.kind == "tabulated":
            x = np.asarray(self.grid_x, dtype=float)
            f = np.asarray(self.grid_f, dtype=float)
            if x.ndim != 1 or x.shape != f.shape or len(x) < 3:
                raise InputError("tabulated density needs matching 1-d grids, >= 3 points")
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
                raise InputError("tabulated density grids must be finite")
            if not np.all(x[1:] > x[:-1]):  # no difference that could overflow
                raise InputError("tabulated grid_x must be strictly increasing")
            if not math.isfinite(float(x[-1]) - float(x[0])):
                raise InputError("tabulated grid_x must span a finite width")
            if np.any(f < 0):
                raise InputError("tabulated density must be nonnegative")
            with np.errstate(over="ignore"):  # an overflowing mass is inf, refused below
                mass = float(np.trapezoid(f, x))
            if abs(mass - 1.0) > NORMALIZATION_TOL:
                raise InputError(
                    f"tabulated density integrates to {mass!r}, not 1 "
                    f"(tolerance {NORMALIZATION_TOL})"
                )
            x.setflags(write=False)
            f.setflags(write=False)
            object.__setattr__(self, "grid_x", x)
            object.__setattr__(self, "grid_f", f)
        else:
            raise InputError(f"unknown density kind {self.kind!r}")

    @classmethod
    def normal(cls, sigma: float = 1.0) -> "ErrorDensity":
        return cls(kind="normal", sigma=sigma)

    @classmethod
    def uniform(cls, lower: float, upper: float) -> "ErrorDensity":
        return cls(kind="uniform", lower=lower, upper=upper)

    @classmethod
    def tabulated(cls, grid_x, grid_f) -> "ErrorDensity":
        return cls(kind="tabulated", grid_x=np.asarray(grid_x), grid_f=np.asarray(grid_f))


# ── difference density and moments ──────────────────────────────────────


def _unit_table(density: ErrorDensity) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """(x, f, c, dense): the table rescaled to (grid_x / c, grid_f * c), for the
    power of two c at or below its width, and a refined grid over it.

    Every tabulated integral is taken on this table, of width in [1, 2), and
    scaled back by a power of c, so no product of density values over- or
    underflows; a power of two scales exactly, so nothing else changes. The
    refined grid keeps the trapezoid error below that of the input data.
    """
    x, f = density.grid_x, density.grid_f
    c = math.ldexp(1.0, math.frexp(float(x[-1] - x[0]))[1] - 1)
    x, f = x / c, f * c
    return x, f, c, np.linspace(x[0], x[-1], max(4001, 8 * len(x)))


def diff_density(density: ErrorDensity, d: float) -> float:
    """Density of the difference of two independent errors, at d.

    Parameters
    ----------
    density : ErrorDensity
    d : float
        Point of evaluation; the result is even in d.

    Returns
    -------
    float
        g(d) >= 0, with the maximum at 0.
    """
    a = abs(real(d, "d"))
    # ratios d / scale, squared with *: no power of the scale over- or underflows
    if density.kind == "normal":
        s = density.sigma
        r = a / s
        # difference of two normals is normal with variance 2 sigma^2
        return math.exp(-(r * r) / 4) / (2 * s * _SQRT_PI)
    if density.kind == "uniform":
        w = density.upper - density.lower
        return (w - a) / w / w if a < w else 0.0
    x, f, c, dense = _unit_table(density)
    fx = np.interp(dense, x, f, left=0.0, right=0.0)
    with np.errstate(over="ignore"):  # interp at +inf gives the edge value, 0
        fxa = np.interp(dense + a / c, x, f, left=0.0, right=0.0)
    return float(np.trapezoid(fx * fxa, dense)) / c


def moments(density: ErrorDensity, d: float) -> MomentSet:
    """Exceedance moments of the density at threshold d.

    Parameters
    ----------
    density : ErrorDensity
    d : float
        Threshold, >= 0.

    Returns
    -------
    MomentSet
        above_two  = integral of f(x) F(x-d)^2,
        below_two  = integral of f(x) (1-F(x+d))^2,
        above_below = integral of f(x) F(x-d) (1-F(x+d)),
        above_one  = P(X1 - X2 > d).
        At d = 0 every continuous density gives (1/3, 1/3, 1/6, 1/2).
    """
    d = real(d, "threshold d")
    if d < 0:
        raise InputError(f"threshold d must be finite and >= 0, got {d!r}")

    if density.kind == "uniform":
        # closed forms of the piecewise-linear CDF; q, q2 in [0, 1] cannot overflow
        w = density.upper - density.lower
        q = max(w - d, 0.0) / w
        q2 = max(w - 2 * d, 0.0) / w
        return MomentSet(
            above_two=q**3 / 3,
            below_two=q**3 / 3,
            above_below=q2**3 / 6,
            above_one=q**2 / 2,
        )

    if density.kind == "normal":
        # differences from a shared X1 are N(0, 2 sigma^2) with correlation
        # 1/2, so each moment is an orthant probability of a standard
        # bivariate normal at -h = -d / (sigma sqrt 2): Phi(-h)^2 plus
        # (1/2 pi) * integral from 0 to arcsin(rho) of exp(-h^2 / (1 + sin t))
        r = d / density.sigma
        above_one = 0.5 * math.erfc(r / 2)  # Phi(-h)
        h2 = r * r / 2
        tail = above_one * above_one
        above_two = tail + float(_ORTHANT_W @ np.exp(-h2 / (1.0 + _ORTHANT_SIN)))
        # rho = -1/2: the integral runs to -pi/6 and cancels against Phi(-h)^2;
        # beyond d ~ 8 sigma the true value is below the rounding error of
        # the difference, which can then come out negative
        above_below = max(
            tail - float(_ORTHANT_W @ np.exp(-h2 / (1.0 - _ORTHANT_SIN))), 0.0
        )
        return MomentSet(above_two, above_two, above_below, above_one)

    # probabilities, so the rescaled table's moments need no scaling back
    x, f, c, dense = _unit_table(density)
    d = d / c
    fx = np.interp(dense, x, f, left=0.0, right=0.0)
    # the CDF at x, by the trapezoid rule
    cum = np.concatenate(([0.0], np.cumsum(np.diff(x) * (f[1:] + f[:-1]) / 2.0)))
    cum /= cum[-1]

    def cum_at(t):
        return np.clip(np.interp(t, x, cum, left=0.0, right=1.0), 0.0, 1.0)

    with np.errstate(over="ignore"):  # interp at +-inf gives the edge value, 0 or 1
        lo_t = cum_at(dense - d)
        hi_t = 1.0 - cum_at(dense + d)
    return MomentSet(
        above_two=float(np.trapezoid(fx * lo_t**2, dense)),
        below_two=float(np.trapezoid(fx * hi_t**2, dense)),
        above_below=float(np.trapezoid(fx * lo_t * hi_t, dense)),
        above_one=float(np.trapezoid(fx * lo_t, dense)),
    )


# ── drift and power ─────────────────────────────────────────────────────


def _drift(slope: float, g_d: float, m: MomentSet) -> float:
    denom = m.below_two + m.above_two - 2.0 * m.above_below
    if denom <= DENOM_FLOOR:
        raise DegenerateRegime(
            "all pairs are ties at this threshold; the standardized score "
            "has no nondegenerate limit (power tends to 1 for any real trend)"
        )
    return slope * g_d / math.sqrt(3.0 * denom)


def asymptotic_drift(density: ErrorDensity, slope: float, d: float) -> float:
    """Mean of the standardized score under a local trend, as n grows.

    The alternative adds slope * i * n^(-3/2) to the i-th observation,
    scaled so the limit is a fixed normal shift: the test then rejects
    with probability Phi(-crit + drift) + Phi(-crit - drift).

    Parameters
    ----------
    density : ErrorDensity
        Error distribution.
    slope : float
        Local trend coefficient (the Figure-style curves use 1).
    d : float
        Threshold, >= 0.

    Returns
    -------
    float
        slope * g(d) / sqrt(3 (below_two + above_two - 2 above_below)).

    Raises
    ------
    DegenerateRegime
        When the variance term vanishes (threshold at or beyond the
        support width of a bounded density).
    """
    return _drift(real(slope, "slope"), diff_density(density, d), moments(density, d))


@dataclass(frozen=True)
class PowerPoint:
    """One threshold on a power curve.

    ``drift`` is None and ``degenerate`` True where every pair is tied
    in the limit; the rejection probability is reported as 1.0 there
    (any real trend is eventually conclusive against a fully tied null).
    """

    d: float
    density_at_d: float
    moments: MomentSet
    drift: float | None
    power: float
    degenerate: bool = False


def power_curve(
    density: ErrorDensity,
    slope: float,
    d_grid,
    alpha_level: float = 0.05,
) -> tuple[PowerPoint, ...]:
    """Asymptotic rejection probability across a grid of thresholds.

    Parameters
    ----------
    density : ErrorDensity
    slope : float
        Local trend coefficient; 0 gives power = alpha_level everywhere.
    d_grid : sequence of float
        Thresholds, at least one, each a finite number >= 0.
    alpha_level : float
        Two-sided size of the test, in (0, 1).

    Returns
    -------
    tuple of PowerPoint
        One point per threshold, same order as the grid.
    """
    slope = real(slope, "slope")
    crit = critical_value(alpha_level)
    try:
        grid = [real(d, "d_grid entry") for d in d_grid]
    except TypeError:
        raise InputError(f"d_grid must be a sequence of thresholds, got {_shown(d_grid)}") from None
    if not grid:
        raise InputError("d_grid must hold at least one threshold")
    points = []
    for d in grid:
        g_d = diff_density(density, d)
        m = moments(density, d)
        try:
            drift = _drift(slope, g_d, m)
        except DegenerateRegime:
            points.append(PowerPoint(d, g_d, m, None, 1.0, degenerate=True))
            continue
        power = p_value(crit - drift, "greater") + p_value(crit + drift, "greater")
        points.append(PowerPoint(d, g_d, m, drift, power))
    return tuple(points)


# ── the second-derivative condition ─────────────────────────────────────


@dataclass(frozen=True)
class GainCondition:
    """Whether a small threshold helps at all for a given density.

    The drift gains from a small threshold exactly when
    lhs = (integral of f^2)(integral of f^3) exceeds
    rhs = (1/6)(integral of f'^2); the component integrals are kept for
    diagnostics.
    """

    holds: bool
    lhs: float
    rhs: float
    squared_mass: float
    cubed_mass: float
    derivative_mass: float


def power_gain_condition(density: ErrorDensity) -> GainCondition:
    """Evaluate the small-threshold power-gain condition for a density.

    Parameters
    ----------
    density : ErrorDensity
        Must be differentiable: normal uses closed forms; tabulated is
        integrated exactly as piecewise linear, segment by segment, with
        a constant slope on each; uniform is rejected (its derivative is
        a pair of boundary spikes with no square-integrable version).

    Returns
    -------
    GainCondition
        holds is True when the power curve initially rises in d. Both
        sides scale as sigma^(-3) under rescaling, so the verdict is
        scale-free.
    """
    if density.kind == "uniform":
        raise AnalyticUnavailable(
            "the gain condition needs a differentiable density; "
            "uniform edges have no square-integrable derivative"
        )
    if density.kind == "normal":
        # the masses at sigma = 1
        scale = density.sigma
        squared = 1.0 / (2.0 * _SQRT_PI)
        cubed = 1.0 / (2.0 * math.pi * math.sqrt(3.0))
        deriv = 1.0 / (4.0 * _SQRT_PI)
    else:
        # the masses of the table rescaled by c (see _unit_table), segment by
        # segment from f = a to f = b over a width h
        x, f, scale, _ = _unit_table(density)
        h, a, b = np.diff(x), f[:-1], f[1:]
        # the rescaling can underflow distinct knots to one: a flat segment there
        # adds nothing, a step has no square-integrable derivative
        if np.any((h == 0) & (a != b)):
            raise AnalyticUnavailable(
                "the gain condition needs a differentiable density; the table "
                "steps between knots too close to tell apart at its width"
            )
        squared = float(np.sum(h * (a * a + a * b + b * b)) / 3.0)
        cubed = float(np.sum(h * (a + b) * (a * a + b * b)) / 4.0)
        deriv = float(np.sum(np.divide((b - a) ** 2, h, out=np.zeros_like(h), where=h > 0)))
    # the masses divided by the scale, its square and its cube: beyond the float
    # range a mass is 0 or inf, and the verdict is the one before scaling back
    holds = squared * cubed > deriv / 6.0
    squared, cubed, deriv = squared / scale, cubed / scale / scale, deriv / scale / scale / scale
    return GainCondition(
        holds=holds,
        lhs=squared * cubed,
        rhs=deriv / 6.0,
        squared_mass=squared,
        cubed_mass=cubed,
        derivative_mass=deriv,
    )
