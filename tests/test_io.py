import numpy as np
import pytest

from sparseclust.io import (
    CsvFormatError,
    load_csv,
    parse_config_file,
    preprocess_expression,
    save_matrix_csv,
    standardize_columns,
)
from sparseclust.model import DataMatrix


def test_load_csv_basic(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("a,b\n1,2\n3,4\n")
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


def test_preprocess_hand_fixture():
    """10-gene fixture filtered by hand (drop iff ratio<=5 AND spread<=500,
    evaluated after clamping to [1, 16000]).

      g0 constant 5             ratio 1,   spread 0    -> drop
      g1 1..4                   ratio 4,   spread 3    -> drop
      g2 1..600                 ratio 600, spread 599  -> keep
      g3 100..450               ratio 4.5, spread 350  -> drop
      g4 3000..8000             ratio 2.7, spread 5000 -> keep
      g5 1..20000 (clamped)     ratio 16000            -> keep
      g6 15999..16001 (clamped) ratio ~1,  spread 1    -> drop
      g7 0.5->1 vs 400          ratio 400, spread 399  -> keep (ratio fails AND)
      g8 2..9                   ratio 4.5, spread 7    -> drop
      g9 10..80                 ratio 8,   spread 70   -> keep (ratio fails AND)
    Survivors in original order: g2, g4, g5, g7, g9.
    """
    cols = {
        "g0": [5, 5, 5, 5],
        "g1": [1, 2, 3, 4],
        "g2": [1, 200, 400, 600],
        "g3": [100, 200, 300, 450],
        "g4": [3000, 5000, 6000, 8000],
        "g5": [1, 10, 100, 20000],
        "g6": [15999, 16000, 16001, 16000],
        "g7": [0.5, 100, 200, 400],
        "g8": [2, 4, 6, 9],
        "g9": [10, 20, 40, 80],
    }
    names = list(cols)
    y = np.array([[cols[g][i] for g in names] for i in range(4)], dtype=float)
    dm = DataMatrix(y, names)
    out = preprocess_expression(dm, top=5)
    assert out.names == ["g2", "g4", "g5", "g7", "g9"]
    assert out.y.max() <= 16000.0 and out.y.min() >= 1.0


def test_preprocess_top_variance_selection():
    rng = np.random.default_rng(1)
    base = rng.uniform(10, 100, size=(6, 8))
    base[:, 2] += np.linspace(0, 4000, 6)  # large variance
    base[:, 5] += np.linspace(0, 9000, 6)  # largest variance
    dm = DataMatrix(base, [f"g{j}" for j in range(8)])
    out = preprocess_expression(dm, top=2)
    assert out.names == ["g2", "g5"]  # original column order retained


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
