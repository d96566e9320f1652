"""Parse a large canonical matrix document one piece per CPU.

``io.loads_matrix`` calls ``load_in_pieces`` with k >= 2 pieces, one per
usable CPU, each at least ``io._PIECE_MIN_CHARS`` characters, where the
process runs no other Python thread. The text must read
``{"rows":R,"cols":C,"data":[`` ... ``]}`` exactly, as ``io.dumps_document``
writes it; trailing JSON whitespace is allowed. It is cut where one row ends
and the next begins (``]],[[``), nearest each 1/k of the data. The parent
parses the first piece and each forked child one more, under the row-length
check and the ``_cells`` of the serial path, and a child sends its rows back
as complex128 bytes through a pipe. JSON arrays concatenate, so pieces that
all parse and validate hold exactly the rows the whole text does.

Any failure returns None, and ``loads_matrix`` reparses the whole text
serially, which gives the one message and exit code the document has always
had: another layout, no row break, ``fork`` refused, a piece that does not
parse or validate or holds a null, a child that exits nonzero, a row count
other than R, a non-finite value.

Forking is safe here: no other Python thread can hold a lock the child
needs, and a child runs no BLAS call, flushes no inherited stdio buffer and
runs no atexit handler; it leaves by ``os._exit`` whatever happens. Where
the parent's own piece fails, or a fork or a read does, the parent sends each
child ``SIGKILL`` at once, since the serial parse decides without them. The
parent closes every pipe before it waits, so a child blocked writing to a
pipe nobody reads gets EPIPE and exits, and reaps every child before it
returns.
"""

from __future__ import annotations

import os
import re
import signal

import numpy as np

from .core import ComplexMatrix
from .errors import DocumentFormatError
from .io import _cells, _check_row_lengths, _loads

_CANONICAL_HEAD = re.compile(r'\{"rows":([1-9][0-9]*),"cols":([1-9][0-9]*),"data":\[')
_ROW_BREAK = "]],[["


def _row_spans(text: str, start: int, end: int, k: int) -> list[tuple[int, int]] | None:
    """``k`` spans of ``text[start:end]``, cut at the row break nearest each
    1/k of it; each span but the last ends with ``]]``, each but the first
    starts with ``[[``, and the ``,`` between them belongs to neither."""
    spans, lo = [], start
    for i in range(1, k):
        target = start + (end - start) * i // k
        found = [p for p in (text.rfind(_ROW_BREAK, lo, target + len(_ROW_BREAK) - 1),
                             text.find(_ROW_BREAK, max(target, lo), end)) if p >= 0]
        if not found:
            return None
        cut = min(found, key=lambda p: abs(p - target))
        spans.append((lo, cut + 2))
        lo = cut + 3
    spans.append((lo, end))
    return spans


def _piece_entries(text: str, start: int, end: int, cols: int) -> np.ndarray:
    """The (rows, cols) complex128 entries of the rows in ``text[start:end]``.

    Raises ``DocumentFormatError`` where the piece does not parse, a row is not
    ``cols`` entries long, or a cell is not a number pair.
    """
    data = _loads("[" + text[start:end] + "]")
    _check_row_lengths(data, cols)
    entries, known = _cells(data)
    if not known.all():
        raise DocumentFormatError("null entry")
    return entries


def load_in_pieces(text: str, k: int) -> ComplexMatrix | None:
    """The matrix of a canonical document parsed in ``k`` pieces, or None
    where the serial parse must decide."""
    head = _CANONICAL_HEAD.match(text)
    end = len(text.rstrip(" \t\n\r")) - 2  # the newline ``complete`` prints is allowed
    if head is None or text[end:end + 2] != "]}":
        return None
    rows, cols = int(head[1]), int(head[2])
    spans = _row_spans(text, head.end(), end, k)
    if spans is None:
        return None
    children = []  # (pid, read end of its pipe)
    try:
        for start, stop in spans[1:]:
            children.append(_fork_piece(text, start, stop, cols, children))
        parts = [_piece_entries(text, *spans[0], cols)]
        parts += [_read_all(fd) for _, fd in children]
    except (OSError, DocumentFormatError):
        parts = None
        for pid, _ in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # reaped already (SIGCHLD ignored)
                pass
    finally:
        reaped = _reap(children)
    if parts is None or not reaped:
        return None
    try:  # ValueError: a part that is not whole rows, or a non-finite value
        entries = np.concatenate(
            [parts[0]] + [np.frombuffer(blob, np.complex128).reshape(-1, cols) for blob in parts[1:]]
        )
        return ComplexMatrix(entries) if entries.shape[0] == rows else None
    except ValueError:
        return None


def _fork_piece(text: str, start: int, end: int, cols: int, children: list) -> tuple[int, int]:
    """Fork a child that parses ``text[start:end]`` and writes its entries to a
    pipe; returns its pid and the pipe's read end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:  # the exit status is the child's only other result
            for fd in [r] + [fd for _, fd in children]:
                os.close(fd)
            view = memoryview(_piece_entries(text, start, end, cols).tobytes())
            while view:
                view = view[os.write(w, view):]
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return pid, r


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def _reap(children: list) -> bool:
    """Close each child's pipe, so none stays blocked writing, then wait for
    each; True when every child exited 0."""
    for _, fd in children:
        os.close(fd)
    ok = True
    for pid, _ in children:
        try:
            ok = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0 and ok
        except ChildProcessError:  # reaped elsewhere (SIGCHLD ignored): its status is lost
            ok = False
    return ok
