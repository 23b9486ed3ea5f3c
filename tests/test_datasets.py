"""CSV ingestion and the bundled donation panel."""

import numpy as np
import pytest

from lrdkendall import (
    InputError,
    NoUsableData,
    RegionalDataset,
    Series,
    platelet_donations,
    read_input_file,
    read_input_table,
)
from lrdkendall.datasets import read_density_columns


def bom_twins(tmp_path, text):
    """Two files holding text, the second behind a UTF-8 byte-order mark."""
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    return plain, bom


def test_two_columns_give_a_series():
    got = read_input_table(["t,v", "2001,4.0", "2002,5.0", "2003,4.5"])
    assert isinstance(got, Series)
    assert list(got.times) == [2001.0, 2002.0, 2003.0]
    assert list(got.values) == [4.0, 5.0, 4.5]


def test_rows_are_sorted_by_time():
    got = read_input_table(["t,v", "2003,1.0", "2001,3.0", "2002,2.0"])
    assert list(got.values) == [3.0, 2.0, 1.0]


def test_missing_value_dropped_from_series():
    got = read_input_table(["t,v", "1,1.0", "2,", "3,3.0"])
    assert len(got) == 2


def test_duplicate_times_rejected():
    with pytest.raises(InputError, match=r"rejected\), got 1\.0 then 1\.0$"):
        read_input_table(["t,v", "2,1.0", "1,1.0", "1,2.0"])


def test_header_is_mandatory():
    with pytest.raises(InputError, match="header"):
        read_input_table(["1,2.0", "2,3.0"])


def test_ragged_rows_flagged_with_line_number():
    with pytest.raises(InputError, match="line 3"):
        read_input_table(["t,v", "1,1.0", "2,3.0,9"])


def test_unparseable_cell_flagged_with_line_number():
    with pytest.raises(InputError, match="line 3"):
        read_input_table(["t,v", "1,1.0", "2,oops"])


def test_five_columns_rejected():
    with pytest.raises(InputError, match="expected 2, 3, or 4 columns, got 5"):
        read_input_table(["a,b,c,d,e", "1,2,3,4,5"])


def test_one_usable_value_is_no_series():
    with pytest.raises(NoUsableData, match="fewer than 2"):
        read_input_table(["t,v", "1,1.0", "2,"])


def test_empty_input():
    with pytest.raises(NoUsableData):
        read_input_table([])
    with pytest.raises(NoUsableData):
        read_input_table(["t,v"])


def test_three_columns_give_groups():
    got = read_input_table([
        "g,t,v",
        "a,1,1.0", "a,2,2.0",
        "b,1,4.0", "b,2,3.0",
    ])
    assert isinstance(got, RegionalDataset)
    assert sorted(got.groups) == ["a", "b"]
    assert got.periods == 2


def test_missing_value_excludes_the_group():
    got = read_input_table([
        "g,t,v",
        "a,1,1.0", "a,2,2.0",
        "b,1,", "b,2,3.0",
    ])
    assert list(got.groups) == ["a"]
    assert got.excluded == ("b",)


def test_four_columns_split_by_season():
    got = read_input_table([
        "g,s,t,v",
        "x,winter,1,1.0", "x,winter,2,2.0",
        "x,summer,1,5.0", "x,summer,2,4.0",
    ])
    assert sorted(got.groups) == ["x/summer", "x/winter"]


def test_group_season_pairs_with_one_label_rejected():
    # both rows became group 'a/b/c', refused as a duplicate time 1.0
    with pytest.raises(InputError) as info:
        read_input_table(["g,s,t,v", "a/b,c,1,1", "a,b/c,1,5"])
    assert str(info.value) == (
        "line 3: group 'a' with season 'b/c' and group 'a/b' with season 'c' "
        "share the label 'a/b/c'"
    )


def test_file_round_trip(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("t,v\n1,1.5\n2,2.5\n")
    got = read_input_file(path)
    assert isinstance(got, Series)
    assert list(got.values) == [1.5, 2.5]


def test_byte_order_mark_is_not_data(tmp_path):
    # the mark made the first row "\ufeff0,90" a header, so a headerless
    # file lost that row and was accepted with n = 2
    errors = []
    for path in bom_twins(tmp_path, "0,90\n1,95\n2,97\n"):
        with pytest.raises(InputError) as info:
            read_input_file(path)
        errors.append(str(info.value))
    assert errors == ["line 1: header row required, got numbers"] * 2


def test_density_file_byte_order_mark_is_not_data(tmp_path):
    # the mark made a headerless file's first grid point its header
    plain, bom = bom_twins(tmp_path, "-1,0\n0,1\n1,0\n")
    assert read_density_columns(bom) == read_density_columns(plain) == (
        [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]
    )


class TestBundledPanel:
    def test_shape(self):
        data = platelet_donations()
        assert len(data.groups) == 19
        assert data.periods == 5
        assert data.excluded == ()

    def test_spot_values(self):
        data = platelet_donations()
        assert list(data.groups["Belgium"].values) == [4.65, 4.57, 4.87, 5.82, 6.98]
        assert list(data.groups["Belgium"].times) == [2001.0, 2002.0, 2003.0, 2004.0, 2005.0]
        assert np.mean(data.groups["Greece"].values) == pytest.approx(13.596)

    def test_loads_fresh_each_call(self):
        assert platelet_donations() is not platelet_donations()

