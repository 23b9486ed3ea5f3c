"""Variance of the trend score: classical, estimated, and theoretical.

Three computations live here. ``var_classical`` is the textbook
tie-corrected null variance of the signed concordance count.
``var_extended_hat`` is the plug-in estimator built from the
per-observation exceedance counts, valid for any threshold.
``var_theoretical`` evaluates the closed-form null variance given the
population exceedance moments of the error distribution.

At d = 0 the three agree: with the default boundary the plug-in
estimator reproduces the tie-corrected formula identically (an algebraic
identity, not an approximation), and the theoretical form with the
continuous-distribution moments (1/3, 1/3, 1/6, 1/2) collapses to
n(n-1)(2n+5)/18.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvalidMoments, _shown, integral, real_array

#: rounding in computed moments (the Gauss-Legendre orthant sum for normal
#: errors, trapezoid sums for tabulated densities) can cross a range bound
#: or the inequality chain by a few ulp where it is tight
MOMENT_SLACK = 1e-12


def tie_groups(values) -> tuple[int, ...]:
    """Sizes of the groups of exactly equal values, smallest first.

    Only groups of 2 or more are reported; singletons do not correct
    anything. Values other than a 1-d array of finite numbers raise InputError.
    """
    x = real_array(values, "values")
    if x.ndim != 1 or not np.isfinite(x).all():
        raise InputError(f"values must be a 1-d array of finite numbers, got {_shown(values)}")
    _, counts = np.unique(x, return_counts=True)
    return tuple(np.sort(counts[counts > 1]).tolist())


def _check_n(n) -> int:
    """The number of observations as an int >= 2 (errors.integral), else InputError."""
    n = integral(n, "n")
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    return n


def var_classical(n: int, ties: tuple[int, ...] = ()) -> float:
    """Tie-corrected null variance of the classical score.

    (1/18) * { n(n-1)(2n+5) - sum_i w_i(w_i-1)(2w_i+5) } for tie-group
    extents w_i.

    Args:
        n: Number of observations, an integer >= 2.
        ties: Extents of exactly-tied groups (integers >= 2, summing to <= n).
    """
    n = _check_n(n)
    try:
        ties = [integral(w, "tie extent") for w in ties]
    except TypeError:
        raise InputError(f"ties must be a sequence of tie extents, got {_shown(ties)}") from None
    total = 0
    for w in ties:
        if w < 2 or w > n:
            raise InputError(f"tie extent {w} invalid for n={n}")
        total += w
        if total > n:
            raise InputError(f"tie extents sum to {total} > n={n}")
    return _classical(n, np.array(ties, dtype=object))


def _classical(n: int, extents: np.ndarray) -> float:
    """:func:`var_classical` of unchecked extents: an object array of ints, or
    an int64 array, such as np.unique's counts, whose terms fit. An extent of 1
    adds 0."""
    def term(w):
        return w * (w - 1) * (2 * w + 5)
    return (term(n) - int(term(extents).sum())) / 18.0


def _counts(u, v):
    """u and v as int64 arrays, with the totals of u along the last axis.

    The counts of one pairwise comparison of n values, n the length of the
    last axis: arrays of equal shape, of an integer dtype or of integral
    floats (not bools or strings), each count in 0..n-1, and u and v with
    equal totals. Anything else raises InputError.
    """
    u, v = np.asarray(u), np.asarray(v)
    if u.shape != v.shape or u.ndim < 1:
        raise InputError("u and v must be arrays of equal shape")
    top = u.shape[-1] - 1
    for name, counts in (("u", u), ("v", v)):
        if counts.dtype.kind not in "iuf" or (
            counts.dtype.kind == "f" and not np.array_equal(counts, np.trunc(counts))
        ):
            raise InputError(f"{name} must hold integer counts, got dtype {counts.dtype}")
        if counts.size and (counts.min() < 0 or counts.max() > top):
            raise InputError(f"{name} counts must lie in 0..n-1 = 0..{top}")
    u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
    # einsum sums the short rows of a simulation chunk twice as fast as sum
    total = np.einsum("...i->...", u)
    if np.any(total != np.einsum("...i->...", v)):
        raise InputError(
            f"inconsistent counts: sum(u)={total} != sum(v)={v.sum(axis=-1)}; "
            "u and v must come from the same pairwise comparison"
        )
    return u, v, total


def var_extended_hat(u, v):
    """Plug-in variance estimate from exceedance counts: (1/3)sum((u-v)^2) + (1/3)sum(u).

    Nonnegative; zero exactly when every pair is tied; equal to the
    no-tie classical variance whenever no pair is tied. Sums run over the
    last axis: 1-d counts give a float, (m, n) counts one value per row.

    Args:
        u: Per-observation counts of relevant exceedances (see uv_counts).
        v: Matching counts of relevant shortfalls; totals must agree.
            Both are checked as counts (integers in 0..n-1), else InputError.
    """
    u, v, total = _counts(u, v)
    diff = u - v
    var = (np.einsum("...i,...i->...", diff, diff) + total) / 3.0
    return float(var) if var.ndim == 0 else var


@dataclass(frozen=True)
class MomentSet:
    """Exceedance moments of three independent errors under the null.

    above_two:   P(X1 > X2 + d and X1 > X3 + d), one value relevantly
                 above two independent others.
    below_two:   P(X1 < X2 - d and X1 < X3 - d), the mirror.
    above_below: P(X1 > X2 + d and X1 < X3 - d), relevantly above one
                 specific comparator and below the other.
    above_one:   P(X1 > X2 + d), relevantly above a single comparator.
                 (The probability a pair scores at all is twice this for
                 a continuous symmetric difference.)

    For any continuous error distribution these satisfy
    min(below_two, above_two) >= above_one^2 >= above_below, and at
    d = 0 they are (1/3, 1/3, 1/6, 1/2). The container itself does not
    enforce the chain: plug-in estimates from small samples violate it
    routinely, and they are still valid inputs for the estimator
    identity. Use :func:`validate_moments` where population moments are
    expected.
    """

    above_two: float
    below_two: float
    above_below: float
    above_one: float


def validate_moments(m: MomentSet) -> None:
    """Check range and the correlation-inequality chain, with MOMENT_SLACK for rounding."""
    for name in ("above_two", "below_two", "above_below", "above_one"):
        x = getattr(m, name)
        if not np.isfinite(x) or x < -MOMENT_SLACK or x > 1 + MOMENT_SLACK:
            raise InvalidMoments(f"{name}={x!r} outside [0, 1]")
    lo = min(m.below_two, m.above_two)
    sq = m.above_one**2
    if lo + MOMENT_SLACK < sq:
        raise InvalidMoments(
            f"min(above_two, below_two)={lo!r} < above_one^2={sq!r} "
            f"beyond slack {MOMENT_SLACK}"
        )
    if sq + MOMENT_SLACK < m.above_below:
        raise InvalidMoments(
            f"above_one^2={sq!r} < above_below={m.above_below!r} beyond slack {MOMENT_SLACK}"
        )


def _var_formula(m: MomentSet, n: int) -> float:
    # n(n-1)(n-2)/3 multiplies the triple-overlap part, n(n-1) the pair part
    cubic = (n**3) / 3.0 - n**2 + 2.0 * n / 3.0
    pair = m.below_two + m.above_two - 2.0 * m.above_below
    return cubic * pair + (n**2 - n) * m.above_one


def var_theoretical(m: MomentSet, n: int) -> float:
    """Null variance of the extended score from population moments.

    ((1/3)n^3 - n^2 + (2/3)n)(alpha_minus + alpha_plus - 2 beta)
    + (n^2 - n) gamma.

    Validates the moment constraints; use this with quadrature or
    closed-form moments. For plug-in estimates see
    :func:`var_extended_from_moments`.
    """
    n = _check_n(n)
    validate_moments(m)
    return _var_formula(m, n)


def moment_estimates(u, v) -> MomentSet:
    """Plug-in estimates of the exceedance moments from observed counts.

    above_two:   sum(u(u-1)) / (n(n-1)(n-2)),   below_two from v,
    above_below: sum(u*v)    / (n(n-1)(n-2)),
    above_one:   sum(u)      / (n(n-1)).

    Estimates can step outside the population constraints on small
    samples; they are reported as computed. u and v are checked as
    var_extended_hat checks them, else InputError.
    """
    if np.ndim(u) != 1 or np.shape(u) != np.shape(v):
        raise InputError("u and v must be 1-d arrays of equal length")
    u, v, _ = _counts(u, v)
    u, v = u.astype(np.float64), v.astype(np.float64)
    n = len(u)
    if n < 3:
        raise InputError("moment estimates need n >= 3")
    triples = n * (n - 1) * (n - 2)
    pairs = n * (n - 1)
    return MomentSet(
        above_two=float(np.sum(u * (u - 1)) / triples),
        below_two=float(np.sum(v * (v - 1)) / triples),
        above_below=float(np.sum(u * v) / triples),
        above_one=float(np.sum(u) / pairs),
    )


def var_extended_from_moments(m: MomentSet, n: int) -> float:
    """The variance formula evaluated without the population-constraint check.

    With ``m = moment_estimates(u, v)`` this equals
    ``var_extended_hat(u, v)`` exactly: expanding sum((u-v)^2) shows the
    two forms are the same polynomial in the counts.
    """
    return _var_formula(m, _check_n(n))
