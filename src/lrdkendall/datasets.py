"""CSV ingestion and the bundled example dataset.

Every CSV the package reads goes through this module: the input tables of
the ``test`` and ``regional`` commands and the density files of ``power
--density file:PATH``. Both are comma-separated, UTF-8, with a '.' decimal
separator; a leading UTF-8 byte-order mark is ignored, cells may be quoted,
surrounding spaces are stripped and blank rows are skipped. Errors name the
line of the file.

Input tables have one mandatory header row (its names are not
interpreted; column meaning is positional). Three layouts are recognized
by column count:

    time,value                      one series
    group,time,value                one series per group
    group,season,time,value         one series per (group, season)

A (group, season) series is labelled "group/season"; two pairs that give
the same label, such as ("a/b", "c") and ("a", "b/c"), are refused.

An empty value cell marks a missing observation: in the one-series
layout the observation is dropped; in grouped layouts the whole group is
excluded from testing (and reported as excluded), since the aggregate
test wants complete coverage of the time grid.

A density file tabulates an error density for ``power``: two columns, x
and f(x), one row per grid point in increasing x. The header row is
optional; a first row that is not all numbers is taken for one.

The bundled fixture ``data/platelets_2001_2005.csv`` holds annual
platelet donations per 1000 inhabitants for 19 European countries over
2001-2005, a small complete panel that exercises the grouped test and
its threshold policies.
"""

from __future__ import annotations

import csv
import math
from importlib import resources

import numpy as np

from .core import Series
from .errors import InputError, NoUsableData
from .regional import RegionalDataset

FIXTURE_NAME = "data/platelets_2001_2005.csv"


def _parse_float(cell: str, what: str, line: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise InputError(f"line {line}: cannot parse {what} {cell!r}") from None


def _read_rows(lines) -> list[tuple[int, list[str]]]:
    """Non-blank CSV rows as (line_number, stripped cells), header included.

    Raises:
        InputError: Text that is not UTF-8, or a row the csv reader
            refuses, such as one with a cell over its field size limit.
    """
    rows = []
    reader = csv.reader(lines)
    try:
        for lineno, cells in enumerate(reader, start=1):
            cells = [c.strip() for c in cells]
            if any(cells):
                rows.append((lineno, cells))
    except UnicodeDecodeError as e:
        raise InputError(f"not UTF-8 text: cannot decode byte {e.object[e.start]:#04x}") from None
    except csv.Error as e:
        raise InputError(f"line {reader.line_num}: {e}") from None
    return rows


def _is_numeric(cells: list[str]) -> bool:
    """Whether every non-empty cell parses as a float, as no header row does."""
    try:
        for c in cells:
            if c:
                float(c)
    except ValueError:
        return False
    return True


def read_input_table(lines) -> Series | RegionalDataset:
    """Parse CSV lines into a Series or RegionalDataset by column count.

    Args:
        lines: Iterable of text lines (an open file does fine).

    Raises:
        InputError: Malformed rows, with the offending line number.
        NoUsableData: No data rows, or nothing left after exclusions.
    """
    rows = _read_rows(lines)
    if not rows:
        raise NoUsableData("input has no rows at all")
    head_line, head = rows.pop(0)
    if _is_numeric(head):
        raise InputError(f"line {head_line}: header row required, got numbers")
    if not rows:
        raise NoUsableData("input has a header but no data rows")
    width = len(rows[0][1])
    if width not in (2, 3, 4):
        raise InputError(
            f"line {rows[0][0]}: expected 2, 3, or 4 columns, got {width}"
        )
    for lineno, cells in rows:
        if len(cells) != width:
            raise InputError(
                f"line {lineno}: expected {width} columns, got {len(cells)}"
            )

    if width == 2:
        times, values = [], []
        for lineno, (t, x) in rows:
            if x == "":
                continue  # missing observation, dropped
            times.append(_parse_float(t, "time", lineno))
            values.append(_parse_float(x, "value", lineno))
        if len(values) < 2:
            raise NoUsableData("fewer than 2 usable observations")
        order = np.argsort(times, kind="stable")
        return Series(times=np.asarray(times)[order], values=np.asarray(values)[order])

    labels, times, values = [], [], []
    pairs = {}  # label -> (group, season) in the 4-column layout
    for lineno, cells in rows:
        if width == 3:
            lab, t, x = cells
        else:
            g, season, t, x = cells
            lab = f"{g}/{season}"
            first = pairs.setdefault(lab, (g, season))
            if first != (g, season):
                raise InputError(
                    f"line {lineno}: group {g!r} with season {season!r} and group "
                    f"{first[0]!r} with season {first[1]!r} share the label {lab!r}"
                )
        labels.append(lab)
        times.append(_parse_float(t, "time", lineno))
        # empty cell -> NaN -> the group is excluded by the dataset builder
        values.append(math.nan if x == "" else _parse_float(x, "value", lineno))
    return RegionalDataset.from_columns(labels, times, values)


def read_input_file(path) -> Series | RegionalDataset:
    """read_input_table on a file path."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return read_input_table(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e


def read_density_columns(path) -> tuple[list[float], list[float]]:
    """The x and f(x) columns of a density file (format in the module doc).

    Raises:
        InputError: An unreadable file, or a malformed row with its line number.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            rows = _read_rows(fh)
    except OSError as e:
        raise InputError(f"cannot read density file {path}: {e}") from e
    if rows and not _is_numeric(rows[0][1]):
        del rows[0]  # the optional header
    xs, fs = [], []
    for lineno, cells in rows:
        if len(cells) != 2:
            raise InputError(f"line {lineno}: expected 2 columns, got {len(cells)}")
        xs.append(_parse_float(cells[0], "x", lineno))
        fs.append(_parse_float(cells[1], "f(x)", lineno))
    return xs, fs


def platelet_donations() -> RegionalDataset:
    """The bundled 19-country platelet-donation panel, 2001-2005."""
    ref = resources.files("lrdkendall").joinpath(FIXTURE_NAME)
    with ref.open("r", encoding="utf-8") as fh:
        data = read_input_table(fh)
    assert isinstance(data, RegionalDataset)
    return data
