"""Matrix document serialization.

The canonical on-disk format is JSON: {"rows": r, "cols": c, "data": [...]}
with every entry a two-element [re, im] array of decimals, or null for an
unspecified entry in a partial document. Writing uses shortest round-trip
decimals, so any document produced here reparses to bit-identical values. A
CSV reader (cells like "1.5-2i") is accepted on input only; there is no
second canonical writer.

The writer shares rows. ``matrix_to_document`` gives bitwise-equal rows one
cell list, and ``dumps_document`` encodes each distinct row list once and
repeats its text, so a sign matrix s s^T (two distinct rows, s and -s) costs
two row encodings and O(n^2) bytes of joining. A row is encoded by one C
encoder built at import (``_ROW_CHUNKS``), the one ``json.JSONEncoder``
builds afresh on every ``encode`` call; where the ``_json`` accelerator is
missing it is None and each row goes through ``_ENCODER.encode``, the same
text in pure Python.

Reading pauses the cyclic garbage collector while JSON text is parsed: the
parse builds one list per cell, and no list it builds can form a cycle.

``load_matrix_file`` reads a JSON document as bytes. Where it holds at least
``2 * _PIECE_MIN_BYTES`` bytes, the process runs no other Python thread, and
the bytes are a canonical document as ``dumps_document`` writes it, they are
read one piece per usable CPU, in forked children, without being decoded;
``loads_matrix`` sends a text's ASCII encoding the same way. Each piece is
read without ``json``: a numpy scanner checks every byte against the
canonical layout and JSON's number grammar before it converts anything, and
gives each number bitwise the double ``json.loads`` gives, by Clinger's fast
path in x87 extended precision with ``float`` for the few numbers that path
cannot round exactly; where ``np.longdouble`` is not the x87 format, no
document is split. Any other document, and any failure, is parsed whole by
``json.loads`` from the text a text-mode ``open(path, encoding="utf-8")``
gives: UTF-8 with universal newlines, from the same decoder (``_decode``), so
every error message, its character offsets and the "file is not UTF-8 text"
message are a text-mode read's. ``_parallel_load`` holds the rule, the
checks, the exactness argument and the serial fallback. It is loaded only
for large documents, so a small request does not compile it.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from io import BytesIO, TextIOWrapper
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
    """The canonical document of a matrix; bitwise-equal rows share one cell list."""
    z = as_matrix(a).data
    rows, cols = z.shape
    cells = np.ascontiguousarray(z).view(np.float64).reshape(rows, cols, 2)
    bits = cells.tobytes()  # keyed by bits, not values: 0.0 == -0.0, but they are written apart
    width = len(bits) // rows
    shared = {}
    data = []
    for i in range(rows):
        key = bits[i * width:(i + 1) * width]
        row = shared.get(key)
        if row is None:
            row = shared[key] = cells[i].tolist()
        data.append(row)
    return {"rows": rows, "cols": cols, "data": data}


def partial_to_document(partial: PartialMatrix) -> dict:
    data = [
        [cell if known else None for cell, known in zip(row, mask_row)]
        for row, mask_row in zip(complex_cells(partial.entries), partial.mask.tolist())
    ]
    return {"rows": partial.n, "cols": partial.n, "data": data}


_ENCODER = json.JSONEncoder(separators=(",", ":"))
# The C encoder ``_ENCODER.iterencode`` builds on every call, built once. It
# keeps no circular-reference set: a document from ``matrix_to_document`` or
# ``partial_to_document`` cannot hold a cycle. None where ``_json`` is missing.
_make_encoder = json.encoder.c_make_encoder
_ROW_CHUNKS = None if _make_encoder is None else _make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring_ascii, None, ":", ",", False, False, True
)


def dumps_document(doc: dict) -> str:
    """Canonical serialization of a document built by ``matrix_to_document`` or
    ``partial_to_document``: keys ``rows``, ``cols``, ``data`` in that order,
    the sizes Python ints.

    The text equals ``json.dumps(doc, separators=(",", ":"))`` byte for byte;
    each distinct row object of ``data`` is encoded once.
    """
    texts = {}
    parts = []
    for row in doc["data"]:
        text = texts.get(id(row))
        if text is None:
            text = "".join(_ROW_CHUNKS(row, 0)) if _ROW_CHUNKS else _ENCODER.encode(row)
            texts[id(row)] = text
        parts.append(text)
    return '{"rows":%d,"cols":%d,"data":[%s]}' % (doc["rows"], doc["cols"], ",".join(parts))


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
    """The matrix of a JSON document.

    A large canonical document is read one piece per usable CPU in forked
    children, by a scanner that builds no Python object per number (see
    ``_parallel_load``); the matrix is bitwise the serial parse's, and any
    failure falls back to the serial parse, which raises the document's one
    ``DocumentFormatError``.
    """
    ascii_text = isinstance(text, str) and text.isascii()  # only ASCII bytes can split
    matrix = _load_split(text.encode("ascii")) if ascii_text else None
    return matrix if matrix is not None else document_to_matrix(_loads(text))


def loads_partial(text: str) -> PartialMatrix:
    return document_to_partial(_loads(text))


def _loads(text: str):
    """``json.loads`` with the cyclic GC paused; its previous state is restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer literal too long to convert, or arrays
        # nested deeper than the interpreter's recursion limit
        raise DocumentFormatError(f"invalid JSON: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


# Fewest bytes worth one piece of a split read, so a document splits from
# 512 KiB on. Loading a file once in a fresh process on a 2-vCPU host
# (``load_matrix_file``, bytes in), the scanner in two pieces against the
# decode and one serial ``json.loads`` loses 21 of 21 runs at 167 K bytes
# (9.4 against 3.9 ms median: about 5.5 ms of fixed cost, mostly the
# module's import, the fork and the pipe) and 20 of 21 at 262 K, breaks even
# at 318-444 K (6, 8 and 10 of 21) and wins 16 of 21 runs at 515 K, 18 of 21
# at 592 K and 21 of 21 at 674 K.
_PIECE_MIN_BYTES = 256 * 1024


def _load_split(raw: bytes) -> ComplexMatrix | None:
    """The matrix of the document ``raw`` read in pieces, one per usable CPU
    and each at least ``_PIECE_MIN_BYTES``, or None where the serial parse
    must decide: fewer than two pieces, forking not available or not safe
    (another Python thread runs), or a split read that fails."""
    size = len(raw)
    if size < 2 * _PIECE_MIN_BYTES or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return None
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return None
    pieces = min(len(os.sched_getaffinity(0)), size // _PIECE_MIN_BYTES)
    if pieces < 2:
        return None
    from ._parallel_load import load_in_pieces

    return load_in_pieces(raw, pieces)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decode(raw: bytes) -> str:
    """The text ``open(path, encoding="utf-8").read()`` gives for a file holding
    ``raw``: the same decoder, fed the whole file at once, with universal
    newlines, so a decode error names the same bytes and offset."""
    try:
        return TextIOWrapper(BytesIO(raw), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise DocumentFormatError(f"file is not UTF-8 text: {exc}") from exc


def _load_json_file(path: str):
    return _loads(_decode(_read_bytes(path)))


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
    """Read a matrix from a JSON document, or CSV when the path ends in .csv.

    A JSON document is read as bytes; a large canonical one is read in pieces
    without being decoded (``_load_split``), and any other is decoded as a
    text-mode read decodes it and parsed serially.
    """
    raw = _read_bytes(path)
    if path.lower().endswith(".csv"):
        return read_matrix_csv(_decode(raw))
    matrix = _load_split(raw)
    return matrix if matrix is not None else document_to_matrix(_loads(_decode(raw)))


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
