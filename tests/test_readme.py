"""The README's Python examples run as written and print what it says."""

import contextlib
import io
import re
from pathlib import Path

from lrdkendall import LrdRule, Series, run_test

from test_core import DBP

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def run_block(code: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    return out.getvalue()


def test_readme_has_two_python_blocks():
    assert len(python_blocks()) == 2


def test_quick_start_prints_what_the_readme_says():
    quick_start = python_blocks()[0]
    assert "# 14 0.2327..." in quick_start
    assert re.fullmatch(r"14 0\.2327\d*\n", run_block(quick_start))


def test_grouped_example_runs():
    s_regional, p = run_block(python_blocks()[1]).split()
    assert int(s_regional) > 0 and 0.0 < float(p) < 1.0


def test_boundaries_agree_on_the_quick_start_series():
    # 95.8 - 95.2 rounds below 0.6, so no pair is exactly d apart in binary
    assert 95.8 - 95.2 == 0.5999999999999943
    series = Series.from_values(DBP)
    leq = run_test(series, LrdRule(d=0.6, boundary="leq"))
    lt = run_test(series, LrdRule(d=0.6, boundary="lt"))
    assert lt.s_extended == leq.s_extended == 14
    assert lt.variance == leq.variance and lt.p == leq.p
