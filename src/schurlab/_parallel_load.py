"""Parse a large canonical matrix document one piece per CPU.

``io.load_matrix_file`` and ``io.loads_matrix`` call ``load_in_pieces`` with
a document's bytes (a file's as read, a text's ASCII encoding) and k >= 2
pieces, one per usable CPU, each at least ``io._PIECE_MIN_BYTES`` bytes,
where the process runs no other Python thread. Nothing here decodes text:
the bytes must be ASCII and read ``{"rows":R,"cols":C,"data":[`` ... ``]}``
exactly, as ``io.dumps_document`` writes it; trailing JSON whitespace is
allowed. They are cut where one row ends and the next begins (``]],[[``),
nearest each 1/k of the data. The parent reads the first piece and each
forked child one more (``_piece_entries``), and a child sends its rows back
as complex128 bytes through a pipe. Pieces that all read hold exactly the
rows the whole document does. The parent copies each block's rows once, into
the one (R, C) array the matrix then keeps, checked for finiteness once.

A piece is read by ``_scan_rows`` in blocks of about ``_BLOCK_BYTES``,
cut at row breaks as well, which builds no Python object per number. Before it
converts anything it checks that every byte is a digit or one of
``[],-+.eE``, that the brackets and commas are exactly the canonical sequence
of rows of C cells of two numbers, and that each number between them reads
``-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][+-]?[0-9]+)?``, JSON's grammar. It then
gives for each number bitwise the double ``float`` gives for its text, which
is the value ``json.loads`` gives and ``_cells`` keeps (for the integer
literal ``-0``, which ``json`` reads as the int 0, +0.0).

The conversion is exact. A number is m * 10^k, with m its digits without the
point (an integer read by ``np.fromstring``) and k its exponent less its
count of fraction digits. Where m has at most 18 significant digits and
|k| <= 27, m and 10^|k| = 5^|k| * 2^|k| are exact in the x87 extended format
(64 significand bits), so m * 10^k, or m / 10^-k, is one correctly rounded
operation (Clinger's fast path, 1990). Rounding that again to a double gives
the correctly rounded double unless the extended value lies exactly halfway
between two doubles, its 11 low significand bits reading 0x400: every such
midpoint is an extended number, so the first rounding cannot carry a value
across one. The values lie in [1e-27, 1e45], where every double is normal.
Midpoints, longer mantissas and wider exponents take ``float`` of their text.
Where ``np.longdouble`` is not that format, or its arithmetic does not round
to 64 bits (``_extended``, checked at import), ``load_in_pieces`` returns
None at once: such a host forks nothing and parses every document serially,
as a host without ``fork`` or ``sched_getaffinity`` does.

Any failure returns None, and the caller parses the whole document serially
from the text a text-mode ``open`` gives (``io._decode``), which gives the
one message and exit code the document has always had: another layout, no
row break, ``fork`` refused, a piece that is not canonical rows, a child that
exits nonzero, a row count other than R, a non-finite value.

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

_CANONICAL_HEAD = re.compile(rb'\{"rows":([1-9][0-9]*),"cols":([1-9][0-9]*),"data":\[')
_ROW_BREAK = b"]],[["

# Bytes per block of ``_scan_rows``: its arrays then stay within a few
# MB whatever the document's size. Reading all of an n = 512 document
# (10.8 MB) in one process on a 2-vCPU host took 156 ms in one block, 106 ms
# in 1 MiB blocks, 78 ms in 256 KiB blocks and 91 ms in 64 KiB blocks (best
# of 9).
_BLOCK_BYTES = 256 * 1024


def _extended() -> bool:
    """Whether ``np.longdouble`` is the x87 extended format, kept in 16 bytes
    with its 64-bit significand first, and its arithmetic rounds to 64 bits."""
    one = np.longdouble(1)
    return (
        np.finfo(np.longdouble).nmant == 63
        and np.dtype(np.longdouble).itemsize == 16
        and int(np.array([1.5], np.longdouble).view(np.uint64)[0]) == 0xC000000000000000
        and one + np.longdouble(2.0**-63) > one
    )


_EXTENDED = _extended()

# 10^0 ... 10^27, each product exact: 10^k = 5^k 2^k and 5^27 < 2^63
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))

# The bytes that may stand between the digits of canonical rows, in classes.
_OPEN, _COMMA, _CLOSE, _MINUS, _DOT, _EXP, _SIGN, _OTHER = range(8)
_CLASS = np.full(256, _OTHER, np.uint8)
_CLASS[list(b"[,]-.eE+")] = [_OPEN, _COMMA, _CLOSE, _MINUS, _DOT, _EXP, _EXP, _SIGN]

# For two consecutive non-digits x, y of valid rows, _PAIR[8 x + y] is 1 where
# no digit stands between them and 2 where at least one does; 0 marks a pair
# JSON's number grammar never allows. A '-' right after an exponent mark is a
# _SIGN. Brackets and commas open and close each number; within one, the
# classes come in the order -, ., e, sign, each at most once.
_PAIR = np.zeros(64, np.uint8)
for _x, _y, _need in [
    (_OPEN, _OPEN, 1), (_OPEN, _COMMA, 2), (_COMMA, _OPEN, 1), (_COMMA, _CLOSE, 2),
    (_CLOSE, _COMMA, 1), (_CLOSE, _CLOSE, 1),
    (_OPEN, _MINUS, 1), (_COMMA, _MINUS, 1), (_OPEN, _DOT, 2), (_COMMA, _DOT, 2),
    (_OPEN, _EXP, 2), (_COMMA, _EXP, 2),
    (_MINUS, _DOT, 2), (_MINUS, _EXP, 2), (_MINUS, _COMMA, 2), (_MINUS, _CLOSE, 2),
    (_DOT, _EXP, 2), (_DOT, _COMMA, 2), (_DOT, _CLOSE, 2),
    (_EXP, _SIGN, 1), (_EXP, _COMMA, 2), (_EXP, _CLOSE, 2),
    (_SIGN, _COMMA, 2), (_SIGN, _CLOSE, 2),
]:
    _PAIR[8 * _x + _y] = _need

_FIELDS = bytes.maketrans(b"eE", b",,")  # with [ ] . deleted: mantissas and exponents


def _row_spans(raw: bytes, start: int, end: int, k: int) -> list[tuple[int, int]] | None:
    """``k`` spans of ``raw[start:end]``, cut at the row break nearest each
    1/k of it; each span but the last ends with ``]]``, each but the first
    starts with ``[[``, and the ``,`` between them belongs to neither."""
    spans, lo = [], start
    for i in range(1, k):
        target = start + (end - start) * i // k
        found = [p for p in (raw.rfind(_ROW_BREAK, lo, target + len(_ROW_BREAK) - 1),
                             raw.find(_ROW_BREAK, max(target, lo), end)) if p >= 0]
        if not found:
            return None
        cut = min(found, key=lambda p: abs(p - target))
        spans.append((lo, cut + 2))
        lo = cut + 3
    spans.append((lo, end))
    return spans


def _scan_rows(raw: bytes, cols: int) -> np.ndarray | None:
    """The (rows, cols) complex128 entries of ``raw``, ASCII rows of ``cols``
    cells joined by ``,`` as ``io.dumps_document`` writes them, or None where
    ``raw`` is not such rows or a value is not finite."""
    b = np.frombuffer(raw, np.uint8)
    pos = np.flatnonzero(np.subtract(b, 48, dtype=np.uint8) >= 10)  # the non-digits
    cls = _CLASS.take(b[pos])
    structs = np.flatnonzero(cls <= _CLOSE)
    stride = 4 * cols + 2  # a row's brackets and commas, and the comma after it
    rows, rest = divmod(structs.size + 1, stride)
    row = bytes([_OPEN] + [_OPEN, _COMMA, _CLOSE, _COMMA] * cols)[:-1] + bytes([_CLOSE, _COMMA])
    if rest or not rows or cls[structs].tobytes() != (row * rows)[:-1]:
        return None
    if pos[0] != 0 or pos[-1] != b.size - 1:
        return None
    prev, nxt = cls[:-1], cls[1:]
    nxt[(nxt == _MINUS) & (prev == _EXP)] = _SIGN
    gap = np.diff(pos) > 1  # a digit between two non-digits
    if not np.array_equal(_PAIR.take(prev * 8 + nxt), gap.view(np.uint8) + 1):
        return None

    # each number lies between the structs at 1 + 4c and 2 + 4c of its row
    at = (np.arange(rows)[:, None] * stride + np.arange(1, 4 * cols, 4)).reshape(-1, 1) + (0, 1)
    opener = structs[at.ravel()]
    closer = structs[at.ravel() + 1]
    neg = cls[opener + 1] == _MINUS
    point = opener + 1 + neg  # the point, the exponent mark or the closer
    dot = cls[point] == _DOT
    mark = point + dot  # the exponent mark or the closer
    exp = cls[mark] == _EXP
    first = pos[opener] + 1 + neg  # the integer part's first digit
    zero = b[first] == 48
    if (zero & (pos[point] - first > 1)).any():  # a leading zero
        return None
    digits = pos[mark] - first - dot
    significant = digits - zero
    # in "0.000ddd" the zeros after the point are not significant either
    long = np.flatnonzero(significant > 18)
    lead = long[zero[long]]
    p = pos[point[lead]] + 1
    while lead.size:
        keep = b[p] == 48
        lead, p = lead[keep], p[keep] + 1
        significant[lead] -= 1

    fields = np.fromstring(raw.translate(_FIELDS, b"[]."), dtype=np.int64, sep=",")
    marks = np.flatnonzero(exp)
    if fields.size != opener.size + marks.size:
        return None
    index = np.arange(opener.size) + np.cumsum(exp) - exp
    m = fields[index]
    k = -(pos[mark] - pos[point] - 1) * dot
    k[marks] += fields[index[marks] + 1]
    fast = (significant <= 18) & (np.abs(k) <= 27)
    wide = pos[closer[marks]] - pos[mark[marks]] - 1 - (cls[mark[marks] + 1] == _SIGN) > 18
    fast[marks[wide]] = False  # an exponent field int64 may not hold
    k[~fast] = 0
    q = m.astype(np.longdouble)
    q /= _POW10[np.maximum(-k, 0)]
    up = np.flatnonzero(k > 0)
    q[up] *= _POW10[k[up]]
    d = q.astype(np.float64)
    slow = np.flatnonzero(~fast | ((q.view(np.uint64)[::2] & 0x7FF) == 0x400))
    if slow.size:
        ends = zip((pos[opener[slow]] + 1).tolist(), pos[closer[slow]].tolist())
        d[slow] = [float(raw[lo:hi]) for lo, hi in ends]
        if not np.isfinite(d[slow]).all():
            return None
    zeros = np.flatnonzero(d == 0)  # -0.0 and the JSON integer -0, which reads +0.0
    d[zeros] = np.where(neg[zeros] & (dot | exp)[zeros], -0.0, 0.0)
    return d.view(np.complex128).reshape(rows, cols)


def _piece_entries(raw: bytes, start: int, end: int, cols: int) -> list[np.ndarray]:
    """The complex128 entries of the rows in ``raw[start:end]``, ASCII bytes,
    read by ``_scan_rows`` a block at a time: one (rows, cols) array per block.

    Raises ``DocumentFormatError`` where a block is not canonical rows of
    ``cols`` finite number pairs.
    """
    parts = []
    blocks = _row_spans(raw, start, end, max(1, (end - start) // _BLOCK_BYTES))
    for lo, hi in blocks or [(start, end)]:
        part = _scan_rows(raw[lo:hi], cols)
        if part is None:
            raise DocumentFormatError("not canonical rows")
        parts.append(part)
    return parts


def load_in_pieces(raw: bytes, k: int) -> ComplexMatrix | None:
    """The matrix of the canonical document ``raw`` parsed in ``k`` pieces, or
    None where the serial parse must decide."""
    if not _EXTENDED:  # the scanner's rounding argument needs the x87 format
        return None
    head = _CANONICAL_HEAD.match(raw)
    end = len(raw.rstrip(b" \t\n\r")) - 2  # the newline ``complete`` prints is allowed
    if head is None or not raw.isascii() or raw[end:end + 2] != b"]}":
        return None
    rows, cols = int(head[1]), int(head[2])
    spans = _row_spans(raw, head.end(), end, k)
    if spans is None:
        return None
    children = []  # (pid, read end of its pipe)
    try:
        for start, stop in spans[1:]:
            children.append(_fork_piece(raw, start, stop, cols, children))
        parts = _piece_entries(raw, *spans[0], cols)
        blobs = [_read_all(fd) for _, fd in children]
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
    try:  # ValueError: a child's part that is not whole rows, or a non-finite value
        parts += [np.frombuffer(blob, np.complex128).reshape(-1, cols) for blob in blobs]
        if sum(map(len, parts)) != rows:  # checked before R rows are allocated
            return None
        # copied once, into the array the matrix keeps
        entries = np.concatenate(parts, out=np.empty((rows, cols), np.complex128))
        return ComplexMatrix._block(entries[None])[0]
    except ValueError:
        return None


def _fork_piece(raw: bytes, start: int, end: int, cols: int, children: list) -> tuple[int, int]:
    """Fork a child that parses ``raw[start:end]`` and writes its entries to a
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
            for part in _piece_entries(raw, start, end, cols):
                view = memoryview(part.reshape(-1).view(np.uint8))
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
