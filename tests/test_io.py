import re

import numpy as np
import pytest

from sparseclust.io import (
    CsvFormatError,
    load_csv,
    parse_config_file,
    preprocess_expression,
    save_matrix_csv,
    standardize_columns,
    write_csv,
)
from sparseclust.model import DataMatrix


def test_load_csv_basic(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("a,b\n1,2\n3,4\n")
    dm = load_csv(f)
    assert dm.names == ["a", "b"]
    np.testing.assert_array_equal(dm.y, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_skips_byte_order_mark(tmp_path):
    """A file saved as "CSV UTF-8" by a spreadsheet starts with a byte-order
    mark, which must not become part of the first attribute name."""
    f = tmp_path / "m.csv"
    f.write_bytes("a,b\n1,2\n3,4\n".encode("utf-8-sig"))
    dm = load_csv(f)
    assert dm.names == ["a", "b"]
    np.testing.assert_array_equal(dm.y, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_names_cell_on_error(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("a,b\n1,NA\n3,4\n")
    with pytest.raises(CsvFormatError, match="row 2, column 2"):
        load_csv(f)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_csv_names_non_finite_cell(tmp_path, cell):
    """Row and column are 1-based with the header as row 1, as for any
    other bad cell, and the file is named."""
    f = tmp_path / "m.csv"
    f.write_text(f"a,b\n1,2\n3,{cell}\n")
    with pytest.raises(CsvFormatError, match=r"m\.csv: non-finite cell .* at row 3, column 2"):
        load_csv(f)


def test_load_csv_ragged_row(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("a,b\n1,2\n3\n")
    with pytest.raises(CsvFormatError, match="row 3"):
        load_csv(f)


def test_load_csv_too_few_rows(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("a,b\n1,2\n")
    with pytest.raises(CsvFormatError, match="at least 2"):
        load_csv(f)


def test_save_load_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    y = rng.standard_normal((5, 7)) * np.pi
    f = tmp_path / "m.csv"
    save_matrix_csv(f, y, [f"g{j}" for j in range(7)])
    back = load_csv(f)
    np.testing.assert_array_equal(back.y, y)  # 17 significant digits suffice


def _write_csv_oracle(path, y, names, index):
    """``write_csv`` of a matrix cell by cell, as ``save_matrix_csv`` must
    write it; ``names=None`` stands for the default x1..xp."""
    rows = np.asarray(y, dtype=float).tolist()
    header = [f"x{j + 1}" for j in range(np.shape(y)[1])] if names is None else names
    if index is None:
        write_csv(path, header, rows)
    else:
        write_csv(path, ["row", *header], ([i, *r] for i, r in zip(index, rows)))


def _nan(payload):
    return np.array([payload], dtype=np.uint64).view(np.float64)[0]


@pytest.mark.parametrize("indexed", [False, True])
def test_save_matrix_csv_bytes_equal_write_csv(tmp_path, indexed):
    """One %-format per distinct row writes the bytes the csv writer writes
    cell by cell: signed zero, nan, infinities, a subnormal, a 17-digit
    fraction, int index labels, and a header name that needs quoting. A
    repeated row reuses the text of its first copy, keyed by its bytes, so
    a 0.0 row and an otherwise equal -0.0 row, and nan rows whose payloads
    differ, stay apart. Memory order, strides and dtype do not change the
    text; a matrix without rows writes the header alone, one without
    columns writes its labels alone (``1``, not ``1,``)."""
    y = np.array([[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 1.0 / 3.0], [1e300, -2.5, 7.0]])
    names = ["a", 'b,"c"', "d"]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    if indexed:
        save_matrix_csv(got, y, names, index_name="row", index=range(1, 4))
        write_csv(want, ["row", *names], ([i, *r] for i, r in zip(range(1, 4), y.tolist())))
    else:
        save_matrix_csv(got, y, names)
        write_csv(want, names, y.tolist())
    assert got.read_bytes() == want.read_bytes()
    assert b'"b,""c"""' in got.read_bytes()

    big = np.arange(48.0).reshape(6, 8) / 7.0
    repeated = y[[0, 1, 0, 2, 1, 0, 0]]
    nans = [_nan(0x7FF8000000000001), _nan(0x7FF8000000000002), _nan(0xFFF8000000000000)]
    cases = {
        "repeated rows": (repeated, names),
        "equal but the last cell": (np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0],
                                              [1.0, 2.0, 3.0]]), None),
        "signed zero": (np.array([[1.5, 0.0], [1.5, -0.0], [1.5, 0.0], [1.5, -0.0]]), None),
        "nan payloads": (np.array([[nans[0], 2.0], [nans[1], 2.0], [nans[0], 2.0],
                                   [nans[2], 2.0]]), ["a", "b"]),
        "fortran order": (np.asfortranarray(repeated), names),
        "sliced": (big[::2, 1::3], None),
        "integer": (np.array([[1, -2], [1, -2], [3, 4]]), None),
        "zero rows": (np.empty((0, 3)), names),
        "zero columns": (np.empty((3, 0)), []),
    }
    assert len({r.tobytes() for r in cases["nan payloads"][0]}) == 3
    for case, (matrix, case_names) in cases.items():
        index = range(1, len(matrix) + 1) if indexed else None
        save_matrix_csv(got, matrix, case_names, index_name="row", index=index)
        _write_csv_oracle(want, matrix, case_names, index)
        assert got.read_bytes() == want.read_bytes(), case
    assert got.read_bytes() == (b"row\r\n1\r\n2\r\n3\r\n" if indexed else b"\r\n" * 4)


@pytest.mark.parametrize("kwargs, message", [
    ({"index": range(1, 2)}, "1 index labels for 3 rows"),
    ({"index": range(1, 5)}, "4 index labels for 3 rows"),
    ({"names": ["a", "b"]}, "2 column names for 3 columns"),
    ({"names": ["a", "b", "c", "d"], "index": range(1, 4)}, "4 column names for 3 columns"),
], ids=["short_index", "long_index", "short_names", "long_names"])
def test_save_matrix_csv_rejects_labels_that_do_not_fit(tmp_path, kwargs, message):
    """An index or a names list of the wrong length is an error naming the
    file and both lengths, and nothing is written: the rows are neither
    dropped nor shifted under a header of another width."""
    f = tmp_path / "m.csv"
    with pytest.raises(ValueError, match=re.escape(f"{f}: {message}")):
        save_matrix_csv(f, np.ones((3, 3)), index_name="row", **kwargs)
    assert not f.exists()


def test_preprocess_hand_fixture():
    """10-gene fixture filtered by hand (drop iff ratio<=5 OR spread<=500,
    evaluated after clamping to [100, 16000]), then log10.

      g0 constant 5 -> 100              ratio 1,    spread 0     -> drop
      g1 1..4 -> all 100                ratio 1,    spread 0     -> drop
      g2 100..600                       ratio 6,    spread 500   -> drop (spread)
      g3 100..601                       ratio 6.01, spread 501   -> keep
      g4 3000..8000                     ratio 2.7,  spread 5000  -> drop (ratio)
      g5 1..20000 -> 100..16000         ratio 160,  spread 15900 -> keep
      g6 4000..30000 -> 4000..16000     ratio 4,    spread 12000 -> drop (ceiling)
      g7 10..600 -> 100..600            ratio 6,    spread 500   -> drop (floor)
      g8 200..1000                      ratio 5,    spread 800   -> drop (ratio)
      g9 120..2000                      ratio 16.7, spread 1880  -> keep
    Survivors in original order: g3, g5, g9.
    """
    cols = {
        "g0": [5, 5, 5, 5],
        "g1": [1, 2, 3, 4],
        "g2": [100, 200, 400, 600],
        "g3": [100, 200, 400, 601],
        "g4": [3000, 5000, 6000, 8000],
        "g5": [1, 10, 100, 20000],
        "g6": [4000, 5000, 10000, 30000],
        "g7": [10, 100, 300, 600],
        "g8": [200, 300, 500, 1000],
        "g9": [120, 200, 500, 2000],
    }
    names = list(cols)
    y = np.array([[cols[g][i] for g in names] for i in range(4)], dtype=float)
    dm = DataMatrix(y, names)
    out = preprocess_expression(dm, top=3)
    assert out.names == ["g3", "g5", "g9"]
    clamped = np.array([[100, 100, 120], [200, 100, 200], [400, 100, 500], [601, 16000, 2000]],
                       dtype=float)
    np.testing.assert_array_equal(out.y, np.log10(clamped))
    assert out.y[:, 1].tolist()[:3] == [2.0, 2.0, 2.0]


def test_preprocess_top_variance_selection():
    """The top-variance cut ranks log10 values: by raw variance gB and gA
    would be kept, by log10 variance gA (0.317) and gC (0.152) are, ahead
    of gB (0.133)."""
    cols = {
        "gA": [100, 200, 400, 800, 1600, 3200],
        "gB": [2000, 4000, 8000, 12000, 16000, 16000],
        "gC": [100, 100, 100, 100, 100, 900],
    }
    dm = DataMatrix(np.array(list(cols.values()), dtype=float).T, list(cols))
    out = preprocess_expression(dm, top=2)
    assert out.names == ["gA", "gC"]  # original column order retained
    np.testing.assert_array_equal(out.y, np.log10(dm.y[:, [0, 2]]))


def test_preprocess_unnamed_data_keeps_no_names():
    """A matrix without names (a simulated design) stays without names on
    both branches, the top-variance cut and keep-all, and keeps the columns
    that its named copy keeps."""
    y = np.array([[100, 2000, 100, 5], [200, 4000, 100, 5], [400, 8000, 100, 6],
                  [800, 12000, 100, 7], [1600, 16000, 100, 8], [3200, 16000, 900, 9]],
                 dtype=float)
    named = DataMatrix(y, ["gA", "gB", "gC", "flat"])
    for top, kept in ((2, ["gA", "gC"]), (3, ["gA", "gB", "gC"])):
        want = preprocess_expression(named, top=top)
        got = preprocess_expression(DataMatrix(y), top=top)
        assert want.names == kept
        assert got.names is None
        np.testing.assert_array_equal(got.y, want.y)


def test_preprocess_warns_when_top_exceeds_survivors():
    y = np.array([[1.0, 1000.0], [800.0, 1.0], [400.0, 500.0]])
    dm = DataMatrix(y, ["a", "b"])
    with pytest.warns(UserWarning, match="keeping all"):
        out = preprocess_expression(dm, top=5)
    assert out.p == 2


def test_standardize_columns():
    rng = np.random.default_rng(2)
    dm = DataMatrix(rng.normal(3.0, 2.5, size=(9, 4)))
    out = standardize_columns(dm)
    np.testing.assert_allclose(out.y.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.y.std(axis=0, ddof=1), 1.0, rtol=1e-12)


def test_parse_config_file(tmp_path):
    f = tmp_path / "cfg"
    f.write_text("# comment\niterations = 500\nseed=9\nslab_a=9.0\n\n")
    cfg = parse_config_file(f)
    assert cfg == {"iterations": "500", "seed": "9", "slab_a": "9.0"}
    bad = tmp_path / "bad"
    bad.write_text("not a pair\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        parse_config_file(bad)


def test_parse_config_file_skips_byte_order_mark(tmp_path):
    f = tmp_path / "cfg"
    f.write_bytes("iterations = 500\nseed=9\n".encode("utf-8-sig"))
    assert parse_config_file(f) == {"iterations": "500", "seed": "9"}
