"""CSV ingestion, expression preprocessing, config parsing, result emission.

All numeric output is printed with 17 significant digits so that emitted
files round-trip float64 values exactly.
"""

import csv
import math
import warnings

import numpy as np

from .model import DataMatrix


class CsvFormatError(ValueError):
    pass


def _fmt(x):
    return f"{float(x):.17g}"


def load_csv(path):
    """Read a header + numeric-rows CSV into a DataMatrix.

    Errors name the offending row and column (1-based, header = row 1).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        rows = []
        for r, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise CsvFormatError(
                    f"{path}: row {r} has {len(rec)} cells, expected {len(header)}"
                )
            vals = []
            for c, cell in enumerate(rec, start=1):
                try:
                    v = float(cell)
                except ValueError:
                    v = None
                if v is None or not math.isfinite(v):
                    kind = "non-numeric" if v is None else "non-finite"
                    raise CsvFormatError(f"{path}: {kind} cell {cell!r} at row {r}, column {c}")
                vals.append(v)
            rows.append(vals)
    if len(rows) < 2:
        raise CsvFormatError(f"{path}: need at least 2 data rows, found {len(rows)}")
    return DataMatrix(np.array(rows), names=header)


def write_csv(path, header, rows):
    """Write a header row, then ``rows``; float cells get 17 significant
    digits, other cells their ``str``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def save_matrix_csv(path, matrix, names=None, index_name=None, index=None):
    """Write a 2-d array as CSV; optional leading index column."""
    matrix = np.asarray(matrix, dtype=float)  # a float64 entry is a float
    if names is None:
        names = [f"x{j + 1}" for j in range(matrix.shape[1])]
    if index is None:
        write_csv(path, names, matrix)
    else:
        write_csv(path, [index_name, *names], ([label, *row] for label, row in zip(index, matrix)))


def preprocess_expression(data, floor=1.0, ceil=16000.0, ratio=5.0, spread=500.0, top=2000):
    """Standard expression filtering: clamp to [floor, ceil], drop attributes
    that are flat in both relative and absolute terms, keep the ``top``
    attributes by across-sample variance (original column order)."""
    y = np.clip(data.y, floor, ceil)
    col_max = y.max(axis=0)
    col_min = y.min(axis=0)
    keep = ~((col_max / col_min <= ratio) & (col_max - col_min <= spread))
    y = y[:, keep]
    names = [nm for nm, k in zip(data.names, keep) if k] if data.names else None
    if y.shape[1] == 0:
        raise CsvFormatError("no attributes survive the flatness filter")
    if top >= y.shape[1]:
        if top > y.shape[1]:
            warnings.warn(
                f"requested top {top} attributes but only {y.shape[1]} survive; keeping all"
            )
        return DataMatrix(y, names)
    variances = y.var(axis=0, ddof=1)
    order = np.argsort(-variances, kind="stable")[:top]
    sel = np.sort(order)
    return DataMatrix(y[:, sel], [names[j] for j in sel] if names else None)


def standardize_columns(data):
    """Column-standardize to mean 0 / sd 1 (opt-in preprocessing)."""
    mean = data.y.mean(axis=0)
    sd = data.y.std(axis=0, ddof=1)
    if np.any(sd == 0.0):
        warnings.warn("constant columns left centered but unscaled")
        sd = np.where(sd == 0.0, 1.0, sd)
    return DataMatrix((data.y - mean) / sd, data.names)


def parse_config_file(path):
    """Flat key=value lines; '#' starts a comment, blank lines are skipped.
    A key may appear once."""
    out = {}
    first_line = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CsvFormatError(f"{path}: line {lineno} is not a key=value pair")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise CsvFormatError(
                    f"{path}: key {key} on line {lineno} repeats line {first_line[key]}")
            out[key] = value
            first_line[key] = lineno
    return out


def write_manifest(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            if isinstance(value, float):
                value = _fmt(value)
            fh.write(f"{key}={value}\n")
