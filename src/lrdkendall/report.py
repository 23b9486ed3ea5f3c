"""Rendering results: one set of numbers, three surfaces.

The machine form (JSON) carries every field at full precision and
round-trips losslessly through json.loads. The human form (text) shows
the same values at 4 significant digits, except aggregate variances,
which are fixed to 2 decimals. Simulation grids additionally emit CSV,
one row per cell, with deterministic formatting so identical runs give
byte-identical files.

Non-finite floats appear as Infinity/-Infinity in the JSON form (the
Python json module's convention); consumers that insist on strict JSON
should treat those tokens accordingly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields

from .inference import TrendTestResult
from .permutation import PermutationResult
from .power import PowerPoint
from .regional import RegionalResult
from .simulation import CellKey, CellResult


def _sig(x, digits: int = 4) -> str:
    return "-" if x is None else f"{x:.{digits}g}"


# ── machine form ────────────────────────────────────────────────────────


def _form(result):
    """(payload kind, text-lines builder) of any result object."""
    if isinstance(result, TrendTestResult):
        return "trend_test", _trend_lines
    if isinstance(result, RegionalResult):
        return "grouped_test", _regional_lines
    if isinstance(result, PermutationResult):
        return "permutation_test", _permutation_lines
    if isinstance(result, dict):
        return "simulation_grid", _grid_lines
    if isinstance(result, (list, tuple)) and result and isinstance(result[0], PowerPoint):
        return "power_curve", _curve_lines
    raise TypeError(f"no report form for {type(result).__name__}")


def to_payload(result) -> dict:
    """Structured full-precision document for any result object."""
    kind, _ = _form(result)
    if kind == "simulation_grid":
        return {"kind": kind, "cells": grid_rows(result)}
    if kind == "power_curve":
        return {"kind": kind, "points": [asdict(p) for p in result]}
    return {"kind": kind, **asdict(result)}


def render_json(result) -> str:
    return json.dumps(to_payload(result), indent=2)


def grid_rows(results: dict[CellKey, CellResult]) -> list[dict]:
    """Flatten a simulation grid to one dict per cell."""
    rows = []
    for key, cell in results.items():
        rows.append({**key._asdict(), **asdict(cell)})
    return rows


# ── human form ──────────────────────────────────────────────────────────


def _warn_line(warnings) -> list[str]:
    return [f"warnings: {', '.join(warnings)}"] if warnings else []


def _trend_lines(r: TrendTestResult) -> list[str]:
    rule = r.rule
    lines = [
        f"n: {r.n}    threshold d: {_sig(rule.d)}    "
        f"boundary: {rule.boundary}    direction: {rule.direction}",
        f"score: {r.s_extended}",
        f"variance: {_sig(r.variance)}    (classical d=0: {_sig(r.var_classical)})",
        f"z: {_sig(r.z)}    ({'continuity corrected' if r.continuity else 'uncorrected'})",
        f"p ({r.sidedness}): {_sig(r.p)}",
        f"tau_a: {_sig(r.tau_a)}    tau_b: {_sig(r.tau_b)}",
        f"tie proportion: {_sig(r.tie_proportion)}",
    ]
    return lines + _warn_line(r.warnings)


def _regional_lines(r: RegionalResult) -> list[str]:
    lines = [
        f"groups: {r.n_groups}    periods: {r.periods}"
        + (f"    excluded: {', '.join(r.excluded_groups)}" if r.excluded_groups else ""),
        f"aggregate score: {r.s_regional}",
        f"aggregate variance: {r.variance:.2f}",
        f"z: {_sig(r.z)}    ({'continuity corrected' if r.continuity else 'uncorrected'})",
        f"p ({r.sidedness}): {_sig(r.p)}",
    ]
    lines += _warn_line(r.warnings)
    lines.append("")
    header = f"{'group':<20} {'d':>8} {'score':>6} {'variance':>9} {'p':>8}  flags"
    lines.append(header)
    lines.append("-" * len(header))
    for label, g in r.per_group.items():
        lines.append(
            f"{label:<20} {_sig(g.rule.d):>8} {g.s_extended:>6} "
            f"{g.variance:>9.2f} {_sig(g.p):>8}  {','.join(g.warnings)}"
        )
    return lines


def _permutation_lines(r: PermutationResult) -> list[str]:
    lines = [
        f"method: {r.method}    draws: {r.draws}"
        + (f"    seed: {r.seed}" if r.seed is not None else ""),
        f"observed score: {r.s_observed}",
        f"p ({r.sidedness}): {_sig(r.p)}    ({r.exceed_count} of {r.draws} as extreme)",
        f"null score mean: {_sig(r.null_mean)}    sd: {_sig(r.null_sd)}",
    ]
    return lines


def _curve_lines(points) -> list[str]:
    header = f"{'d':>8} {'g(d)':>10} {'drift':>10} {'power':>8}  flags"
    lines = [header, "-" * len(header)]
    for pt in points:
        lines.append(
            f"{_sig(pt.d):>8} {_sig(pt.density_at_d):>10} "
            f"{_sig(pt.drift):>10} {_sig(pt.power):>8}  "
            f"{'degenerate' if pt.degenerate else ''}".rstrip()
        )
    return lines


def _grid_lines(results) -> list[str]:
    header = (
        f"{'distribution':<12} {'n':>4} {'error_sd':>9} {'theta':>6} {'p':>2} "
        f"{'d_ratio':>8} {'reject':>7} {'ties':>7} {'stderr':>7}"
    )
    lines = [header, "-" * len(header)]
    for key, cell in results.items():
        lines.append(
            f"{key.distribution:<12} {key.n:>4} {_sig(key.error_sd):>9} "
            f"{_sig(key.theta):>6} {key.p:>2} {_sig(key.d_ratio):>8} "
            f"{cell.rejection_rate:>7.4f} {cell.mean_tie_proportion:>7.4f} "
            f"{cell.mc_stderr:>7.4f}"
        )
    return lines


def render_text(result) -> str:
    """Aligned human-readable report for any result object."""
    _, lines = _form(result)
    return "\n".join(lines(result)) + "\n"


# ── CSV for simulation grids ────────────────────────────────────────────

GRID_CSV_COLUMNS = CellKey._fields + tuple(f.name for f in fields(CellResult))


def write_grid_csv(results: dict[CellKey, CellResult], fh) -> None:
    """One row per cell; floats via repr so the file parses back exactly."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(GRID_CSV_COLUMNS)
    for row in grid_rows(results):
        writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                         for c in GRID_CSV_COLUMNS])

