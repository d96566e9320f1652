"""Matrix document serialization.

The canonical on-disk format is JSON: {"rows": r, "cols": c, "data": [...]}
with every entry a two-element [re, im] array of decimals, or null for an
unspecified entry in a partial document. Writing uses shortest round-trip
decimals, so any document produced here reparses to bit-identical values. A
CSV reader (cells like "1.5-2i") is accepted on input only; there is no
second canonical writer.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .core import ComplexMatrix, as_matrix
from .errors import DocumentFormatError

if TYPE_CHECKING:  # loaded where a partial document is read, which few requests do
    from .completion import PartialMatrix

__all__ = [
    "complex_cells",
    "matrix_to_document",
    "partial_to_document",
    "document_to_matrix",
    "document_to_partial",
    "dumps_document",
    "loads_matrix",
    "loads_partial",
    "read_matrix_csv",
    "load_matrix_file",
    "load_partial_file",
    "load_scaling_file",
    "load_table_file",
]


def complex_cells(z) -> list:
    """Nested [re, im] float pairs of a complex array, in its shape; -0.0 is kept."""
    z = np.asarray(z, dtype=np.complex128)
    return np.stack((z.real, z.imag), -1).tolist()


def matrix_to_document(a) -> dict:
    m = as_matrix(a)
    return {"rows": m.rows, "cols": m.cols, "data": complex_cells(m.data)}


def partial_to_document(partial: PartialMatrix) -> dict:
    data = [
        [cell if known else None for cell, known in zip(row, mask_row)]
        for row, mask_row in zip(complex_cells(partial.entries), partial.mask.tolist())
    ]
    return {"rows": partial.n, "cols": partial.n, "data": data}


def dumps_document(doc: dict) -> str:
    """Canonical serialization: compact separators, keys in insertion order."""
    return json.dumps(doc, separators=(",", ":"))


class _CellError(DocumentFormatError):  # a malformed cell; ``column`` is 0-based
    def __init__(self, i: int, j: int, problem: str):
        super().__init__(f"entry ({i + 1},{j + 1}) {problem}")
        self.column = j


def _parse_entry(cell, i: int, j: int) -> complex:
    if (
        not isinstance(cell, (list, tuple))
        or len(cell) != 2
        or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in cell)
    ):
        raise _CellError(i, j, f"must be a two-element [re, im] array, got {cell!r}")
    try:
        return complex(float(cell[0]), float(cell[1]))
    except OverflowError as exc:
        raise _CellError(i, j, f"is out of range: {exc}") from exc


def _cells(data: list) -> tuple[np.ndarray, np.ndarray]:
    """Entries and known-mask of a rectangular grid of [re, im] cells and nulls (read as 0).

    A grid of number pairs only (bool excluded) is converted by numpy in one
    pass; anything else, or an int beyond the double range, goes through the
    cell-by-cell loop, which names the first bad cell.
    """
    cells = list(chain.from_iterable(data))
    if (
        set(map(type, cells)) <= {list}
        and set(map(len, cells)) <= {2}
        and set(map(type, chain.from_iterable(cells))) <= {int, float}
    ):
        try:
            pairs = np.fromiter(chain.from_iterable(cells), np.float64, count=2 * len(cells))
        except OverflowError:
            pass
        else:
            shape = (len(data), len(data[0]))
            return pairs.view(np.complex128).reshape(shape), np.ones(shape, dtype=bool)
    entries = [
        [0j if cell is None else _parse_entry(cell, i, j) for j, cell in enumerate(row)]
        for i, row in enumerate(data)
    ]
    known = [[cell is not None for cell in row] for row in data]
    return np.array(entries, dtype=np.complex128), np.array(known, dtype=bool)


def _validated_grid(doc) -> tuple[int, int, list]:
    if not isinstance(doc, dict):
        raise DocumentFormatError("document must be a JSON object")
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except KeyError as exc:
        raise DocumentFormatError(f"document missing field {exc}") from exc
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in (rows, cols)):
        raise DocumentFormatError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows:
        raise DocumentFormatError(f"data must contain exactly {rows} rows")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentFormatError(f"row {i + 1} must contain exactly {cols} entries")
    return rows, cols, data


def document_to_matrix(doc) -> ComplexMatrix:
    entries, known = _cells(_validated_grid(doc)[2])
    if not known.all():
        i, j = np.argwhere(~known)[0] + 1
        raise DocumentFormatError(
            f"entry ({i},{j}) is null; nulls are only allowed in partial documents"
        )
    try:
        return ComplexMatrix(entries)
    except ValueError as exc:
        raise DocumentFormatError(str(exc)) from exc


def document_to_partial(doc) -> PartialMatrix:
    rows, cols, data = _validated_grid(doc)
    if rows != cols:
        raise DocumentFormatError("partial documents must be square")
    entries, known = _cells(data)
    from .completion import PartialMatrix

    try:
        return PartialMatrix(entries=entries, mask=known)
    except ValueError as exc:
        raise DocumentFormatError(str(exc)) from exc


def loads_matrix(text: str) -> ComplexMatrix:
    return document_to_matrix(_loads(text))


def loads_partial(text: str) -> PartialMatrix:
    return document_to_partial(_loads(text))


def _loads(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise DocumentFormatError(f"invalid JSON: {exc}") from exc


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DocumentFormatError(f"file is not UTF-8 text: {exc}") from exc


def _load_json_file(path: str):
    return _loads(_read_text(path))


def _parse_csv_cell(cell: str, i: int, j: int) -> complex:
    text = cell.strip().replace(" ", "")
    if not text:
        raise DocumentFormatError(f"empty cell at ({i + 1},{j + 1})")
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise DocumentFormatError(
            f"cannot parse cell ({i + 1},{j + 1}): {cell!r}"
        ) from exc


def read_matrix_csv(text: str) -> ComplexMatrix:
    """Parse comma-separated rows of complex cells written like "1.5-2i"."""
    rows = []
    for i, line in enumerate(filter(None, (ln.strip() for ln in text.splitlines()))):
        rows.append([_parse_csv_cell(c, i, j) for j, c in enumerate(line.split(","))])
    if not rows:
        raise DocumentFormatError("CSV input is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DocumentFormatError("CSV rows have unequal lengths")
    try:
        return ComplexMatrix(np.array(rows, dtype=np.complex128))
    except ValueError as exc:
        raise DocumentFormatError(str(exc)) from exc


def load_matrix_file(path: str) -> ComplexMatrix:
    """Read a matrix from a JSON document, or CSV when the path ends in .csv."""
    text = _read_text(path)
    if path.lower().endswith(".csv"):
        return read_matrix_csv(text)
    return loads_matrix(text)


def load_partial_file(path: str) -> PartialMatrix:
    return document_to_partial(_load_json_file(path))


def load_scaling_file(path: str) -> np.ndarray:
    """Read a nonempty JSON array of scaling values, each a number or [re, im]."""
    obj = _load_json_file(path)
    if not isinstance(obj, list) or not obj:
        raise DocumentFormatError("scaling file must hold a nonempty JSON array")
    try:  # a value that is not a list is read as the cell [value, 0]
        entries, _ = _cells([[v if isinstance(v, list) else [v, 0.0] for v in obj]])
    except _CellError as exc:
        k = exc.column
        raise DocumentFormatError(
            f"scaling value {k + 1} must be a number or [re, im], got {obj[k]!r}"
        ) from exc
    return entries[0]


def load_table_file(path: str) -> ComplexMatrix:
    """Read a generator table: a matrix document, or its bare nested ``data`` array."""
    obj = _load_json_file(path)
    if isinstance(obj, list):
        cols = len(obj[0]) if obj and isinstance(obj[0], list) else 0
        obj = {"rows": len(obj), "cols": cols, "data": obj}
    elif not isinstance(obj, dict):
        raise DocumentFormatError("table file must hold a document or a nested array")
    return document_to_matrix(obj)
