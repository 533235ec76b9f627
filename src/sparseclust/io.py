"""CSV ingestion, expression preprocessing, config parsing, result emission.

All numeric output is printed with 17 significant digits so that emitted
files round-trip float64 values exactly.
"""

import csv
import itertools
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

    Errors name the offending row and column (1-based, header = row 1). A
    UTF-8 byte-order mark, as spreadsheet programs write, is not part of the
    first name.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    """Write a 2-d array as CSV; optional leading column of integer index
    labels, one per row. The bytes equal ``write_csv``'s: the header goes
    through the csv writer, and each row is one %-format of 17-digit cells.

    Each distinct row is formatted once: a row whose float64 bytes equal an
    earlier row's reuses that row's text. Samples that always share a
    cluster have equal rows in the co-clustering and fitted-mean tables.
    Raises ValueError naming ``path`` when ``names`` or ``index`` does not
    match the matrix; no file is written then."""
    matrix = np.ascontiguousarray(matrix, dtype=float)
    n, p = matrix.shape
    if names is None:
        names = [f"x{j + 1}" for j in range(p)]
    if len(names) != p:
        raise ValueError(f"{path}: {len(names)} column names for {p} columns")
    if index is None:
        labels = itertools.repeat("", n)
    else:
        sep = "," if p else ""  # write_csv writes a label-only row as "1"
        labels = [f"{label}{sep}" for label in index]
        if len(labels) != n:
            raise ValueError(f"{path}: {len(labels)} index labels for {n} rows")
        names = [index_name, *names]
    line = ",".join(["%.17g"] * p) + "\r\n"  # the csv writer's line terminator
    texts = {}  # row bytes -> row text; not values, as 0.0 == -0.0 prints apart
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(names)
        for label, row in zip(labels, matrix):
            key = bytes(row)
            text = texts.get(key)
            if text is None:
                text = texts[key] = line % tuple(row.tolist())
            fh.write(label + text)


# The published leukemia-data thresholds of Dudoit, Fridlyand & Speed
# (2002, JASA 97:77): expression is clamped to [FLOOR, CEIL], and an
# attribute is dropped when max/min <= RATIO or max - min <= SPREAD.
FLOOR = 100.0
CEIL = 16000.0
RATIO = 5.0
SPREAD = 500.0


def preprocess_expression(data, top=2000):
    """The leukemia-data preprocessing of Dudoit, Fridlyand & Speed (2002):
    clamp to [FLOOR, CEIL], drop attributes with max/min <= RATIO or
    max - min <= SPREAD, take log10, and keep the ``top`` attributes by
    across-sample variance of the log10 values (original column order)."""
    y = np.clip(data.y, FLOOR, CEIL)
    col_max = y.max(axis=0)
    col_min = y.min(axis=0)
    keep = (col_max / col_min > RATIO) & (col_max - col_min > SPREAD)
    y = np.log10(y[:, keep])
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
    A key may appear once. A leading UTF-8 byte-order mark is skipped."""
    out = {}
    first_line = {}
    with open(path, encoding="utf-8-sig") as fh:
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
