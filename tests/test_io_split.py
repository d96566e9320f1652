"""The split parse of large canonical documents: bitwise the serial parse, the
serial messages on every failure, no child left behind, no fork where forking
does not pay or is not safe."""

import gc
import json
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab import DocumentFormatError, _parallel_load, io
from schurlab.io import document_to_matrix, dumps_document, loads_matrix, matrix_to_document

from test_cli_transcript import INPUTS

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 1.5, -2.25]


def reference(text: str):
    """What the serial parse gives: the matrix, or the message it raises."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    try:
        return document_to_matrix(doc)
    except DocumentFormatError as exc:
        return str(exc)


def outcome(text: str):
    try:
        return loads_matrix(text)
    except DocumentFormatError as exc:
        return str(exc)


def same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.data.shape == b.data.shape and a.data.tobytes() == b.data.tobytes()


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class ForkSpy:
    def __init__(self, monkeypatch, fail: bool = False):
        self.calls = 0
        real = os.fork

        def fork():
            self.calls += 1
            if fail:
                raise OSError(11, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, "fork", fork)


def split_everything(mp, cpus: int = 2) -> None:
    mp.setattr(io, "_PIECE_MIN_BYTES", 1)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def document(rows: int, cols: int, seed: int = 0) -> str:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return dumps_document(matrix_to_document(a))


# cells: number pairs from the specials, random doubles and integer literals
number = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
    st.sampled_from([10**400, -(10**309)]),  # integer literals beyond the double range
)

# a cell replacing one near a cut, and a text edit made near a cut
BAD_CELL = [None, [float("nan"), 0.0], [0.0, float("inf")], [float("-inf"), 1.0], ["]],[[", 0.0],
            [1.0], [1.0, 2.0, 3.0], [True, 0.0], "x"]
TEXT_EDITS = ["truncate", "drop", "double", "space", "newline"]


def cut_positions(text: str, k: int) -> list[int]:
    raw = text.encode()  # ASCII: the document's characters are its bytes
    head = _parallel_load._CANONICAL_HEAD.match(raw)
    spans = _parallel_load._row_spans(raw, head.end(), len(raw) - 2, k) if head else None
    return [end for _, end in spans[:-1]] if spans else [len(text) // 2]


def edit_text(text: str, edit: str, at: int) -> str:
    at = max(1, min(at, len(text) - 1))
    if edit == "truncate":
        return text[:at]
    brackets = [i for i in range(max(0, at - 8), min(len(text), at + 8)) if text[i] in "[]"]
    i = brackets[0] if brackets else at
    if edit == "drop":
        return text[:i] + text[i + 1:]
    if edit == "double":
        return text[:i] + text[i] + text[i:]
    return text[:at] + (" " if edit == "space" else "\n") + text[at:]


@st.composite
def documents(draw):
    rows = draw(st.integers(1, 64))
    cols = draw(st.integers(1, 64))
    k = draw(st.integers(2, 4))
    fill = draw(st.lists(st.tuples(number, number), min_size=1, max_size=8))
    data = [[list(fill[(i * cols + j) % len(fill)]) for j in range(cols)] for i in range(rows)]
    mutation = draw(st.sampled_from(
        ["none", "cell", "row_long", "row_short", "rows_wrong", "text", "reorder", "duplicate",
         "trailing"]
    ))
    near = draw(st.integers(0, 3))
    shift = draw(st.integers(-12, 12))
    row = min(rows - 1, max(0, rows * (near % k + 1) // k + (shift % 3) - 1))
    if mutation == "cell":
        data[row][draw(st.integers(0, cols - 1))] = draw(st.sampled_from(BAD_CELL))
    elif mutation == "row_long":
        data[row] = data[row] + [[0.0, 0.0]]
    elif mutation == "row_short" and cols > 1:
        data[row] = data[row][:-1]
    text = dumps_document({"rows": rows, "cols": cols, "data": data})
    if mutation == "text":
        cuts = cut_positions(text, k)
        text = edit_text(text, draw(st.sampled_from(TEXT_EDITS)), cuts[near % len(cuts)] + shift)
    elif mutation == "reorder":
        text = text.replace('{"rows":%d,"cols":%d,' % (rows, cols), '{"cols":%d,"rows":%d,' % (cols, rows), 1)
    elif mutation == "duplicate":  # a second "data" that the object keeps, or a second "rows"
        if draw(st.booleans()):
            text = text[:-1] + ',"data":[[[7.0,0.0]]]}'
        else:
            text = text.replace('"cols":', '"rows":%d,"cols":' % (rows + 1), 1)
    elif mutation == "trailing":
        text += draw(st.sampled_from([" ", "\n", "\r\n\t", " x"]))
    elif mutation == "rows_wrong":
        text = text.replace('"rows":%d' % rows, '"rows":%d' % (rows + draw(st.sampled_from([-1, 1]))), 1)
    return text, k, mutation


@given(documents())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_split_parse_is_the_serial_parse(case):
    text, k, mutation = case
    with pytest.MonkeyPatch.context() as mp:
        split_everything(mp, k)
        got = outcome(text)
    assert same(got, reference(text))
    if mutation in ("none", "trailing") and not isinstance(got, str) and got.rows >= 2:
        assert _parallel_load.load_in_pieces(text.encode(), 2) is not None  # the split path ran
    no_child_left()


@given(documents())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_json_pieces_are_the_serial_parse(case):
    """Where ``np.longdouble`` is not the x87 format, no document is split:
    nothing forks, and the outcome is the serial parse's."""
    text, k, _ = case
    with pytest.MonkeyPatch.context() as mp:
        split_everything(mp, k)
        mp.setattr(_parallel_load, "_EXTENDED", False)
        spy = ForkSpy(mp)
        got = outcome(text)
    assert spy.calls == 0
    assert same(got, reference(text))
    no_child_left()


def test_values_round_trip_bitwise(monkeypatch):
    split_everything(monkeypatch)
    cells = [[[x, y] for y in SPECIAL] for x in SPECIAL]
    text = dumps_document({"rows": len(cells), "cols": len(SPECIAL), "data": cells})
    spy = ForkSpy(monkeypatch)
    got = loads_matrix(text)
    assert spy.calls == 1
    assert same(got, reference(text))
    assert np.signbit(got.data.real[1]).all() and np.signbit(got.data.imag[:, 1]).all()
    no_child_left()


def test_a_large_document_splits_at_the_size_constant(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    text = document(128, 128)
    assert len(text) >= 2 * io._PIECE_MIN_BYTES
    spy = ForkSpy(monkeypatch)
    assert same(loads_matrix(text), reference(text))
    assert spy.calls == 1
    no_child_left()


def test_pieces_follow_the_usable_cpus(monkeypatch):
    split_everything(monkeypatch, cpus=4)
    text = document(40, 3)
    spy = ForkSpy(monkeypatch)
    assert same(loads_matrix(text), reference(text))
    assert spy.calls == 3
    no_child_left()


def test_pieces_are_cut_at_row_breaks():
    text = document(9, 2).encode()
    head = _parallel_load._CANONICAL_HEAD.match(text)
    spans = _parallel_load._row_spans(text, head.end(), len(text) - 2, 3)
    assert len(spans) == 3
    rows = []
    for start, end in spans:
        assert text[start:start + 2] == b"[["
        assert text[end - 2:end] == b"]]"
        rows += json.loads(b"[" + text[start:end] + b"]")
    assert rows == json.loads(text)["data"]
    one_row = document(1, 5).encode()
    head = _parallel_load._CANONICAL_HEAD.match(one_row)
    assert _parallel_load._row_spans(one_row, head.end(), len(one_row) - 2, 2) is None


def scanned(tokens: list[str], cols: int = 2) -> np.ndarray | None:
    """``_scan_rows`` of rows of ``cols`` cells holding ``tokens`` in order."""
    cells = ["[%s,%s]" % pair for pair in zip(tokens[::2], tokens[1::2])]
    rows = [cells[i:i + cols] for i in range(0, len(cells), cols)]
    text = ",".join("[" + ",".join(row) + "]" for row in rows)
    return _parallel_load._scan_rows(text.encode("ascii"), cols)


# a midpoint, 10^22 and 10^23, exponents +-27 and +-28, mantissas of 18, 19
# and 22 digits, the least subnormal, the zeros, a 23-digit integer, E+, a
# 19-digit mantissa int64 cannot hold, exponents int64 cannot hold
EXACT_TOKENS = [
    "9007199254740993.0", "9007199254740993", "1e22", "1e23", "1e27", "1e-27", "1e28", "1e-28",
    "123456789012345678e-27", "123456789012345678e10", "0.123456789012345678",
    "1234567890123456789", "0.1234567890123456789", "0.0001234567890123456789",
    "1234567890.123456789012", "5e-324", "-5e-324", "-0", "-0.0", "0e5", "-0e5", "0.000",
    "12345678901234567890123", "1E+5", "1e+05", "2.2250738585072014e-308",
    "1.7976931348623157e308", "4.9406564584124654e-324", "0.1", "0.2", "0.3", "-2.5", "1e-5",
    "7E-0", "100000000000000000", "9999999999999999999", "0.9999999999999999999",
    "9223372036854775808", "1e0000000000000000000005", "1e99999999999999999999",
    "1e-99999999999999999999", "-1e-400",
]

# text that is not a JSON number token, in place of one (JSON reads the
# two with a space, which the scanner refuses too)
BAD_TOKENS = [
    "01", "-01", "00", "-00.5", "1.", ".5", "-", "1e", "1e+", "1E-", "+1", "1.5.2", "1e5e5",
    "1e5.5", "--1", "1-2", "1+2", "1e--5", "1e+-5", "0x1", " 1", "1 ", "Infinity", "-Infinity",
    "NaN", "1.e5", "-.5", "1ee5", "e5", "1.5e", "true", "null", "\u0661", "1\u00e9", "[1]", "",
]


@pytest.mark.parametrize("token", EXACT_TOKENS)
def test_scanner_reads_what_float_reads(token):
    tokens = [token, "1.5", "-" + token.lstrip("-"), token]
    got = scanned(tokens)
    want = np.array([json.loads(t) for t in tokens], dtype=np.float64)
    if np.isfinite(want).all():
        assert got is not None and got.view(np.float64).ravel().tobytes() == want.tobytes()
    else:
        assert got is None


# JSON numbers, exponents wide enough to overflow and underflow
json_number = st.from_regex(r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,24})?([eE][+-]?[0-9]{1,3})?",
                            fullmatch=True)


@given(st.lists(json_number, min_size=2, max_size=8).filter(lambda t: len(t) % 2 == 0))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_scanner_reads_json_numbers_bitwise(tokens):
    want = np.array([float(json.loads(t)) for t in tokens])
    got = scanned(tokens, cols=1)
    if np.isfinite(want).all():
        assert got is not None and got.view(np.float64).ravel().tobytes() == want.tobytes()
    else:
        assert got is None


@pytest.mark.parametrize("token", BAD_TOKENS, ids=repr)
def test_other_tokens_take_the_serial_parse(monkeypatch, token):
    if token.isascii():
        assert scanned(["1.5", token, token, "2"]) is None
    split_everything(monkeypatch)
    for row in (0, 9):  # the parent's piece and the child's
        doc = json.loads(document(10, 3))
        doc["data"][row][1][1] = 12345.5
        bad = dumps_document(doc).replace("12345.5", token)
        assert same(outcome(bad), reference(bad))
    no_child_left()


@pytest.mark.parametrize("where", ["head", "tail", "parent", "child"])
def test_layout_outside_the_numbers_is_checked(monkeypatch, where):
    """A digit before the first row or after the last, and rows of C + 1 and
    C - 1 cells whose brackets count as two rows of C, fall back to the
    serial parse."""
    split_everything(monkeypatch)
    text = document(10, 3)
    if where == "head":
        bad = text.replace('"data":[', '"data":[5', 1)
    elif where == "tail":
        bad = text[:-2] + "5" + text[-2:]
    else:
        doc = json.loads(text)
        row = 0 if where == "parent" else 8
        doc["data"][row].append(doc["data"][row + 1].pop())
        bad = dumps_document(doc)
    want = reference(bad)
    assert isinstance(want, str)
    assert outcome(bad) == want
    no_child_left()


def test_non_ascii_text_is_parsed_serially(monkeypatch):
    split_everything(monkeypatch)
    text = document(10, 3)
    for at in (40, len(text) - 40):
        bad = text[:at] + "\u00e9" + text[at:]
        assert outcome(bad) == reference(bad)
    no_child_left()


def test_scanner_reads_random_doubles_bitwise():
    rng = np.random.default_rng(20)
    x = rng.integers(0, 2**64, size=60000, dtype=np.uint64).view(np.float64)
    x = np.concatenate([x[np.isfinite(x)], rng.standard_normal(60000), rng.random(60000) * 1e-3])
    tokens = [repr(v) for v in x.tolist()] + ["%.17e" % v for v in x[:20000].tolist()]
    tokens += ["%.25f" % v for v in x[-20000:].tolist()]
    tokens = tokens[: len(tokens) // 100 * 100]
    got = scanned(tokens, cols=50)
    want = np.array([float(t) for t in tokens])
    assert got is not None and got.view(np.float64).ravel().tobytes() == want.tobytes()


MUTATION_BYTES = "0123456789.eE+-[], x"


@st.composite
def mutated_documents(draw):
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.tuples(number, number), min_size=rows * cols, max_size=rows * cols))
    data = [[list(cells[i * cols + j]) for j in range(cols)] for i in range(rows)]
    text = dumps_document({"rows": rows, "cols": cols, "data": data})
    # half the edits next to a non-digit, where most of the grammar lies
    edges = [i + d for i, c in enumerate(text) if not c.isdigit() for d in (0, 1)]
    edges = [i for i in edges if i < len(text)]
    at = draw(st.one_of(st.integers(0, len(text) - 1), st.sampled_from(edges)))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    byte = draw(st.sampled_from(MUTATION_BYTES))
    if edit == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + byte + text[at + (edit == "replace"):]


@given(mutated_documents())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_single_byte_mutations_read_as_the_serial_parse(text):
    with pytest.MonkeyPatch.context() as mp:
        split_everything(mp)
        mp.setattr(_parallel_load, "_BLOCK_BYTES", 40)
        got = outcome(text)
    assert same(got, reference(text))
    no_child_left()


def test_pieces_are_read_in_blocks_cut_at_row_breaks(monkeypatch):
    split_everything(monkeypatch)
    monkeypatch.setattr(_parallel_load, "_BLOCK_BYTES", 300)
    blocks = []
    real = _parallel_load._scan_rows
    monkeypatch.setattr(_parallel_load, "_scan_rows",
                        lambda raw, cols: blocks.append(raw) or real(raw, cols))
    text = document(30, 4)
    assert same(loads_matrix(text), reference(text))
    assert len(blocks) >= 3  # the parent's piece alone
    assert all(raw.startswith(b"[[") and raw.endswith(b"]]") for raw in blocks)
    no_child_left()


@pytest.mark.parametrize(
    "case", ["valid", "specials", "null", "nan", "spaced", "truncated", "long row"]
)
def test_without_extended_precision_pieces_parse_with_json(monkeypatch, case):
    """Where ``np.longdouble`` is not the x87 format, there are no pieces: the
    whole document is parsed once by ``json.loads``, never by the scanner,
    nothing forks, and the outcomes are the serial parse's."""
    split_everything(monkeypatch)
    monkeypatch.setattr(_parallel_load, "_EXTENDED", False)
    doc = json.loads(document(12, 5))
    if case == "specials":
        doc["data"][0] = [[x, -x] for x in SPECIAL[:5]]
    elif case == "null":
        doc["data"][-1][2] = None
    elif case == "nan":
        doc["data"][-1][2] = [float("nan"), 0.0]
    elif case == "long row":
        doc["data"][-1].append([1.0, 2.0])
    text = dumps_document(doc)
    if case == "spaced":
        text = text.replace("],[", "], [")
    elif case == "truncated":
        text = text[:-5]
    parsed = []
    real = io._loads
    monkeypatch.setattr(io, "_loads", lambda s: parsed.append(len(s)) or real(s))
    scans = []
    monkeypatch.setattr(_parallel_load, "_scan_rows", lambda *args: scans.append(1))
    spy = ForkSpy(monkeypatch)
    assert same(outcome(text), reference(text))
    assert scans == []
    assert spy.calls == 0
    assert parsed == [len(text)]
    no_child_left()


class TestNoFork:
    def test_below_the_size_constant(self, monkeypatch):
        spy = ForkSpy(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        for text in INPUTS.values():
            assert same(outcome(text), reference(text))
        text = document(64, 64)
        assert len(text) < 2 * io._PIECE_MIN_BYTES
        assert same(loads_matrix(text), reference(text))
        assert spy.calls == 0

    def test_one_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(io, "_PIECE_MIN_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        spy = ForkSpy(monkeypatch)
        text = document(20, 20)
        assert same(loads_matrix(text), reference(text))
        assert spy.calls == 0

    def test_another_thread_runs(self, monkeypatch):
        split_everything(monkeypatch)
        spy = ForkSpy(monkeypatch)
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            text = document(20, 20)
            assert same(loads_matrix(text), reference(text))
        finally:
            stop.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert spy.calls == 0

    def test_fork_refused(self, monkeypatch):
        split_everything(monkeypatch, cpus=3)
        spy = ForkSpy(monkeypatch, fail=True)
        text = document(20, 20)
        assert same(loads_matrix(text), reference(text))
        assert spy.calls == 1
        no_child_left()


class TestFallback:
    def test_failing_child_falls_back_to_the_serial_parse(self, monkeypatch):
        split_everything(monkeypatch)
        parent = os.getpid()
        real = _parallel_load._piece_entries

        def fail_in_child(*args):
            if os.getpid() != parent:
                raise DocumentFormatError("child failed")
            return real(*args)

        monkeypatch.setattr(_parallel_load, "_piece_entries", fail_in_child)
        text = document(20, 20)
        assert same(loads_matrix(text), reference(text))
        no_child_left()
        doc = json.loads(text)
        doc["data"][-1][-1] = None  # in the child's piece
        bad = dumps_document(doc)
        want = reference(bad)
        assert isinstance(want, str)
        assert outcome(bad) == want
        no_child_left()

    def test_failing_parent_piece_reaps_its_children(self, monkeypatch):
        """Each child's rows overflow a pipe buffer, so a child blocks writing
        until the parent reads or closes its pipe."""
        split_everything(monkeypatch, cpus=3)
        text = document(150, 150)
        bad = text[:200] + "]" + text[200:]  # breaks the parent's own piece
        want = reference(bad)
        assert isinstance(want, str)

        def hung(signum, frame):
            raise TimeoutError("the parent waits on a child blocked writing")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            assert outcome(bad) == want
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        no_child_left()

    def test_failing_parent_piece_stops_its_children(self, monkeypatch):
        """The serial parse decides without the children, so a child still
        parsing is stopped, not waited for."""
        split_everything(monkeypatch)
        parent = os.getpid()
        real = _parallel_load._piece_entries

        def slow_in_child(*args):
            if os.getpid() != parent:
                time.sleep(30)
            return real(*args)

        monkeypatch.setattr(_parallel_load, "_piece_entries", slow_in_child)
        text = document(20, 20)
        bad = text[:200] + "]" + text[200:]  # breaks the parent's own piece
        want = reference(bad)
        assert isinstance(want, str)
        start = time.monotonic()
        assert outcome(bad) == want
        assert time.monotonic() - start < 10
        no_child_left()

    @pytest.mark.parametrize("cell", BAD_CELL, ids=repr)
    @pytest.mark.parametrize("row", [0, 8, 9, 19])  # the parent's piece and the child's
    def test_bad_cell_gives_the_serial_message(self, monkeypatch, cell, row):
        split_everything(monkeypatch)
        doc = json.loads(document(20, 6))
        doc["data"][row][3] = cell
        text = dumps_document(doc)
        want = reference(text)
        assert isinstance(want, str)
        assert outcome(text) == want
        no_child_left()

    @pytest.mark.parametrize("change", [-1, 1])
    def test_row_count_other_than_the_header(self, monkeypatch, change):
        split_everything(monkeypatch, cpus=3)
        doc = json.loads(document(20, 6))
        doc["rows"] += change
        text = dumps_document(doc)
        assert outcome(text) == reference(text) == f"data must contain exactly {20 + change} rows"
        no_child_left()

    def test_child_exit_status_counts(self, monkeypatch):
        """A child that writes all its rows but exits nonzero is not trusted."""
        split_everything(monkeypatch)
        real = os.write

        def write_then_fail(fd, data):
            written = real(fd, data)
            if written == len(data):
                raise OSError("failed after the last write")
            return written

        monkeypatch.setattr(os, "write", write_then_fail)
        serial = []
        monkeypatch.setattr(io, "document_to_matrix",
                            lambda doc: serial.append(1) or document_to_matrix(doc))
        text = document(20, 20)
        assert same(loads_matrix(text), reference(text))
        assert serial == [1]
        no_child_left()

    def test_non_finite_value_gives_the_serial_message(self, monkeypatch):
        split_everything(monkeypatch)
        for value in (float("nan"), float("inf"), 1e999):
            doc = json.loads(document(10, 10))
            doc["data"][-1][-1] = [value, 0.0]
            text = dumps_document(doc)
            assert outcome(text) == reference(text) == (
                "matrix entries must be finite (no NaN/Inf components)"
            )
        no_child_left()


CANONICAL = document(20, 20)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", [CANONICAL, '{"rows":1,"cols":1,"data":[[[1,0]]]}',
                                  "{not json", CANONICAL[:-3], CANONICAL.replace(",", ", ")])
def test_gc_state_is_restored(monkeypatch, enabled, text):
    """The split path reads the canonical text without ``json``; every other
    text, the spaced one among them, is parsed by ``json.loads``."""
    split_everything(monkeypatch)
    seen = []
    real = json.loads

    def spy(s, *args, **kwargs):
        seen.append(gc.isenabled())
        return real(s, *args, **kwargs)

    monkeypatch.setattr(io.json, "loads", spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        outcome(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert not any(seen)  # every parse in this process ran with the GC paused
    assert bool(seen) is (text != CANONICAL or not _parallel_load._EXTENDED)
    no_child_left()


def file_reference(path) -> object:
    """What a text-mode read and the serial parse give for a file: the matrix,
    or the message raised."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        return f"file is not UTF-8 text: {exc}"
    return reference(text)


def file_outcome(path) -> object:
    try:
        return io.load_matrix_file(str(path))
    except DocumentFormatError as exc:
        return str(exc)


LARGE = document(128, 128)


def at_fraction(raw: bytes, fraction: float) -> int:
    """The index of the first digit at or after ``fraction`` of ``raw``."""
    at = int(len(raw) * fraction)
    while not raw[at:at + 1].isdigit():
        at += 1
    return at


def large_variant(name: str) -> bytes:
    raw = LARGE.encode()
    first, last = at_fraction(raw, 0.1), at_fraction(raw, 0.9)  # in the first piece, the last
    return {
        "crlf": raw.replace(b"]],[[", b"]],\r\n[["),
        "crlf truncated": raw.replace(b"]],[[", b"]],\r\n[[")[:-7],
        "cr truncated": raw.replace(b"]],[[", b"]],\r[[")[:-7],
        "crlf before an error": raw.replace(b"]],[[", b"]],\r\n[[", 40)[:last] + b"x" + raw[last:],
        "bom": b"\xef\xbb\xbf" + raw,
        "invalid utf-8 in the first piece": raw[:first] + b"\xff" + raw[first:],
        "invalid utf-8 in the last piece": raw[:last] + b"\xc3\x28" + raw[last:],
        "utf-8 cut short at the end": raw + b"\xe2\x82",
        "trailing crlf": raw + b"\r\n",
        "trailing cr": raw + b"\r",
        "trailing crlf and space": raw + b"\r\n \r\n",
        "non-ascii digit": raw[:last] + "٣".encode() + raw[last + 1:],
        "non-ascii digit after crlf": raw.replace(b"]],[[", b"]],\r\n[[")[:first]
        + "٣".encode() + raw.replace(b"]],[[", b"]],\r\n[[")[first + 1:],
        "non-ascii space": raw.replace(b"]],[[", "]], [[".encode(), 1),
    }[name]


SPLITS = {"trailing crlf", "trailing cr", "trailing crlf and space"}  # canonical up to whitespace


@pytest.mark.parametrize("name", [
    "crlf", "crlf truncated", "cr truncated", "crlf before an error", "bom",
    "invalid utf-8 in the first piece", "invalid utf-8 in the last piece",
    "utf-8 cut short at the end", "trailing crlf", "trailing cr", "trailing crlf and space",
    "non-ascii digit", "non-ascii digit after crlf", "non-ascii space",
])
def test_large_files_read_as_bytes_give_the_text_reads_outcome(monkeypatch, tmp_path, name):
    """A large file is read as bytes; where it does not split, it is decoded
    as a text-mode read decodes it, so the matrix, the message and its
    character offsets are the text read's."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    raw = large_variant(name)
    assert len(raw) >= 2 * io._PIECE_MIN_BYTES
    path = tmp_path / "large.json"
    path.write_bytes(raw)
    decoded = []
    real = io._decode
    monkeypatch.setattr(io, "_decode", lambda raw: decoded.append(1) or real(raw))
    got, want = file_outcome(path), file_reference(path)
    assert same(got, want)
    assert isinstance(want, str) is (name not in ("crlf", *SPLITS))
    assert bool(decoded) is (name not in SPLITS)  # a split read decodes nothing
    no_child_left()


@pytest.mark.parametrize("kind", ["canonical", "exponents"])
def test_large_text_and_file_loads_are_the_json_parse(monkeypatch, tmp_path, kind):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    text = LARGE
    if kind == "exponents":
        doc = json.loads(LARGE)
        rows = ",".join("[" + ",".join("[%.16e,%.16e]" % tuple(cell) for cell in row) + "]"
                        for row in doc["data"])
        text = '{"rows":128,"cols":128,"data":[%s]}' % rows
    path = tmp_path / "large.json"
    path.write_text(text)
    want = document_to_matrix(json.loads(text)).data.tobytes()
    spy = ForkSpy(monkeypatch)
    assert loads_matrix(text).data.tobytes() == want
    assert io.load_matrix_file(str(path)).data.tobytes() == want
    assert spy.calls == 2
    no_child_left()


@pytest.mark.parametrize("raw", [b"1,2i\r\n3,4\r\n", b"1,2i\r3,4", b"\xff1,2\n", b"1,\xe2\x82"],
                         ids=["crlf", "cr", "invalid utf-8", "cut short"])
def test_csv_files_read_as_the_text_read(tmp_path, raw):
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    try:
        with open(path, encoding="utf-8") as fh:
            want = io.read_matrix_csv(fh.read())
    except UnicodeDecodeError as exc:
        want = f"file is not UTF-8 text: {exc}"
    assert same(file_outcome(path), want)
