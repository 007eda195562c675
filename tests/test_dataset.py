"""CSV round trips and the error cases the loader must catch."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spnstream.dataset import DatasetError, _load_numpy, _load_reference, load_csv, save_csv


def test_round_trip_without_header(tmp_path):
    path = tmp_path / "plain.csv"
    rows = np.random.default_rng(0).normal(size=(40, 3))
    save_csv(path, rows)
    got, names = load_csv(path)
    assert names is None
    # repr() of a float round-trips exactly.
    assert np.array_equal(got, rows)


def test_round_trip_with_header(tmp_path):
    path = tmp_path / "named.csv"
    rows = np.arange(12.0).reshape(4, 3)
    save_csv(path, rows, names=["a", "b", "c"])
    got, names = load_csv(path)
    assert names == ["a", "b", "c"]
    assert np.array_equal(got, rows)


def test_header_is_sniffed_not_assumed(tmp_path):
    path = tmp_path / "numeric_first_line.csv"
    path.write_text("1.5,2.5\n3.5,4.5\n")
    got, names = load_csv(path)
    assert names is None
    assert got.shape == (2, 2)
    assert got[0, 0] == 1.5


def test_a_quoted_header_cell_over_several_lines_is_one_record(tmp_path):
    # The quote opens a cell that runs to the end of the file, so the file
    # is a header and nothing else, however many numeric lines follow.
    for i, text in enumerate(['"1\n0.0', '"x\n1.0,2.0\n3.0,4.0\n']):
        path = tmp_path / f"quoted{i}.csv"
        path.write_text(text)
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("x,y\n\n1,2\n\n3,4\n")
    got, names = load_csv(path)
    assert names == ["x", "y"]
    assert got.shape == (2, 2)


def test_non_numeric_body_line_reports_its_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_csv(path)


def test_ragged_row_reports_expected_width(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(DatasetError, match="expected 3 columns, got 2"):
        load_csv(path)


def test_empty_file_is_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DatasetError, match="no data rows"):
        load_csv(path)


def test_header_only_file_is_rejected(tmp_path):
    path = tmp_path / "header_only.csv"
    path.write_text("x,y,z\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not leak
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(path)


def test_non_finite_values_are_rejected(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1,2\ninf,4\n")
    with pytest.raises(DatasetError, match="line 2: contains non-finite"):
        load_csv(path)
    # The line counts the header and blank lines.
    path.write_text("x,y\n\n1,2\nnan,4\n")
    with pytest.raises(DatasetError, match="line 4: contains non-finite"):
        load_csv(path)


def test_header_width_mismatch_is_rejected(tmp_path):
    path = tmp_path / "short_header.csv"
    path.write_text("x,y\n1,2,3\n")
    with pytest.raises(DatasetError, match="header has 2 names for 3 columns"):
        load_csv(path)


def test_save_rejects_wrong_header_length(tmp_path):
    with pytest.raises(DatasetError):
        save_csv(tmp_path / "x.csv", np.zeros((2, 3)), names=["only", "two"])


def test_save_promotes_single_row(tmp_path):
    path = tmp_path / "one.csv"
    save_csv(path, np.array([1.0, 2.0]))
    got, _ = load_csv(path)
    assert got.shape == (1, 2)


def test_undecodable_bytes_report_their_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1,2\n\xff\xfe,3\n")
    with pytest.raises(DatasetError, match="line 2: not valid UTF-8"):
        load_csv(path)


def numpy_decides(path) -> bool:
    """Whether load_csv takes numpy's result for the file."""
    try:
        return _load_numpy(path) is not None
    except ValueError:
        return False


@pytest.mark.parametrize("cell", ["3.0", '"3.0"'], ids=["numpy", "reference"])
def test_a_byte_order_mark_is_not_part_of_the_first_cell(tmp_path, cell):
    # A quoted cell makes numpy's reader give the file to the reference.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + f"1.0,2.0\n{cell},4.0\n5.0,6.0\n".encode())
    assert numpy_decides(path) != cell.startswith('"')
    data, names = load_csv(path)
    assert data.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]] and names is None
    path.write_bytes(b"\xef\xbb\xbf" + f"a,b\n1.0,2.0\n{cell},4.0\n".encode())
    assert numpy_decides(path) != cell.startswith('"')
    data, names = load_csv(path)
    assert data.tolist() == [[1.0, 2.0], [3.0, 4.0]] and names == ["a", "b"]


def test_oversized_cell_reports_its_line(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("1,2\n3," + "4" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(DatasetError, match="line 2: field larger than field limit"):
        load_csv(path)


def outcome(load, path):
    """What a loader gives: the array's exact bits and the names, or the error."""
    try:
        data, names = load(path)
    except DatasetError as exc:
        return ("error", str(exc))
    return ("rows", data.dtype.str, data.shape, data.flags.c_contiguous, data.tobytes(), names)


@pytest.mark.parametrize("write", [
    lambda path, rows: np.savetxt(path, rows, fmt="%.17g", delimiter=","),
    lambda path, rows: save_csv(path, rows, names=[f"x{i}" for i in range(rows.shape[1])]),
], ids=["savetxt-17g", "save_csv-repr"])
@pytest.mark.parametrize("shape", [(300, 24), (1, 5), (7, 1)])
def test_numpy_reader_takes_well_formed_files_bit_for_bit(tmp_path, write, shape):
    path = tmp_path / "rows.csv"
    rows = np.random.default_rng(5).normal(scale=1e3, size=shape)
    rows[0, 0] = 5e-324  # smallest subnormal
    write(path, rows)
    fast = _load_numpy(path)
    assert fast is not None
    assert np.array_equal(fast[0].view(np.uint64), rows.view(np.uint64))
    assert outcome(_load_numpy, path) == outcome(_load_reference, path)


NUMBERS = st.builds(lambda x, fmt: fmt(x), st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([repr, "{:.17g}".format]))
PADDED = st.builds("".join, st.tuples(st.sampled_from(["", " ", "\t", "  "]), NUMBERS,
                                      st.sampled_from(["", " ", "\t"])))
ODD_CELLS = st.sampled_from([
    "", " ", "1_0", "0x1p3", "-0x1.8p1", "nan", "-inf", "Infinity", "NaN", "#", "#1", "abc",
    '"2.5"', '"1,5"', '"', "1e400", "4.9e-324", "+.5", "1.", "\u0661", "\xa07\xa0", "1 2",
])
NAMES = st.text(alphabet="ab1,\" #\t\ufeff", max_size=6)


@st.composite
def csv_files(draw):
    """Bytes of a CSV file.  A clean file has at least one row and the numpy
    reader must take it; any other may hold every oddity the loader meets."""
    clean = draw(st.booleans())
    width = draw(st.integers(1, 4))
    cell = PADDED if clean else st.one_of(PADDED, ODD_CELLS)
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(f" v{i} " for i in range(width)) if clean else draw(NAMES))
    for _ in range(draw(st.integers(1 if clean else 0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank"] +
                                    ([] if clean else ["spaces", "commas", "ragged"])))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(" \t ")
        elif kind == "commas":
            lines.append("," * width)
        else:
            w = draw(st.integers(1, 5)) if kind == "ragged" else width
            lines.append(",".join(draw(cell) for _ in range(w)))
    if clean and lines[-1] == "":
        lines.append(",".join(draw(cell) for _ in range(width)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join(lines) + draw(st.sampled_from(["", newline]))).encode("utf-8")
    if not clean and draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if not clean and data and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return clean, data


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files())
def test_numpy_reader_agrees_with_the_reference(tmp_path, case):
    clean, data = case
    path = tmp_path / "case.csv"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(load_csv, path)
    assert got == outcome(_load_reference, path)
    if clean:
        assert _load_numpy(path) is not None
