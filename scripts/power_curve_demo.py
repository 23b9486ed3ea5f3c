#!/usr/bin/env python3
"""Trace asymptotic power against the tie threshold for one density.

Prints the drift and power along a threshold grid, flags the argmax,
and reports the density's power gain condition when it has one.  With
normal errors the curve rises to a shallow interior maximum before
collapsing, which is the motivating effect for thresholded scoring.

Example:
    python scripts/power_curve_demo.py --density normal:1 --slope 0.05
"""

import argparse
import sys

from lrdkendall import AnalyticUnavailable, InputError, power_curve, power_gain_condition
from lrdkendall.cli import _parse_density, _parse_grid


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--density", default="normal:1",
                        help="normal:SIGMA | uniform:LOWER:UPPER | file:PATH")
    parser.add_argument("--slope", type=float, default=0.05)
    parser.add_argument("--start", type=float, default=0.0)
    parser.add_argument("--stop", type=float, default=3.0)
    parser.add_argument("--step", type=float, default=0.1)
    parser.add_argument("--alpha", type=float, default=0.05)
    args = parser.parse_args(argv)

    try:
        density = _parse_density(args.density)
        grid = _parse_grid(f"{args.start!r}:{args.stop!r}:{args.step!r}")
        points = power_curve(density, args.slope, grid, alpha_level=args.alpha)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    best = max(points, key=lambda pt: -1.0 if pt.drift is None else pt.drift)
    print("    d      g(d)     drift     power")
    for pt in points:
        drift = "degenerate" if pt.drift is None else f"{pt.drift:9.6f}"
        marker = "  <- max drift" if pt is best else ""
        print(f"  {pt.d:5.2f}  {pt.density_at_d:8.6f}  {drift}  {pt.power:8.6f}{marker}")

    try:
        gain = power_gain_condition(density)
    except AnalyticUnavailable as exc:
        print(f"\ngain condition: {exc}")
    else:
        verdict = "holds" if gain.holds else "fails"
        print(f"\ngain condition {verdict}: lhs={gain.lhs:.8f} rhs={gain.rhs:.8f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
