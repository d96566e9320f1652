import json
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import BytesIO, StringIO, TextIOWrapper

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schurlab import (
    ENUMERATION_LIMIT,
    ComplexMatrix,
    DocumentFormatError,
    PartialMatrix,
    all_ones,
    is_positive_semidefinite,
)
from schurlab import cli
from schurlab import io as schur_io
from schurlab.cli import main, parse_generator_spec
from schurlab.io import (
    complex_cells,
    document_to_matrix,
    dumps_document,
    loads_matrix,
    loads_partial,
    matrix_to_document,
    partial_to_document,
    read_matrix_csv,
)

UNIT_CIRCLE_DOC = {
    "rows": 2,
    "cols": 2,
    "data": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]],
}

OFF_DIAGONAL_DOC = {  # a_12 a_21 = 2: not multiplicative
    "rows": 2,
    "cols": 2,
    "data": [[[1.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
}


# doubles the writer must keep bit for bit: signed zeros, subnormals, the range ends
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, -1.0]
) | st.floats(allow_nan=False, allow_infinity=False)


def flip_zero_signs(z: complex) -> complex:
    """z with the sign of each zero part flipped: equal by value, not bitwise."""
    return complex(-z.real if z.real == 0 else z.real, -z.imag if z.imag == 0 else z.imag)


@st.composite
def repeated_row_grids(draw, square=False, floats=EDGE_FLOATS):
    """Complex grids whose rows are drawn from a small pool, so rows repeat."""
    if square:
        rows = cols = draw(st.integers(1, 6))
    else:
        shapes = st.sampled_from([(1, 1), (1, 5), (5, 1)])
        rows, cols = draw(shapes | st.tuples(st.integers(1, 6), st.integers(1, 6)))
    cell = st.builds(complex, floats, floats)
    pool = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=1, max_size=3))
    if draw(st.booleans()):
        pool.append([flip_zero_signs(z) for z in pool[0]])
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows))
    return np.array([pool[k] for k in picks], dtype=np.complex128)


def canonical_dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


# integral floats too: shortest repr writes 3.0 and 1e+16, never 3 or 1e16
WRITER_FLOATS = EDGE_FLOATS | st.integers(-(2**60), 2**60).map(float) | st.sampled_from([1e16, -1e22])


@st.composite
def written_documents(draw):
    """Documents as the writer receives them: a matrix's (rows shared where
    bitwise equal, some equal only by value) or a partial's (null cells)."""
    grid = draw(repeated_row_grids(square=draw(st.booleans()), floats=WRITER_FLOATS))
    if grid.shape[0] != grid.shape[1] or draw(st.booleans()):
        return matrix_to_document(ComplexMatrix(grid))
    n = grid.shape[0]
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    mask = mask.reshape(n, n) & (np.abs(grid) != 0)  # specified entries are nonzero
    return partial_to_document(PartialMatrix(entries=grid, mask=mask))


def write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


class TestDocuments:
    def test_roundtrip_is_bit_identical(self):
        rng = np.random.default_rng(0)
        m = ComplexMatrix(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
        text = dumps_document(matrix_to_document(m))
        back = loads_matrix(text)
        assert np.array_equal(back.data, m.data)
        assert dumps_document(matrix_to_document(back)) == text

    @settings(max_examples=200, deadline=None)
    @given(repeated_row_grids())
    def test_writer_matches_json_dumps_bytewise(self, grid):
        doc = matrix_to_document(ComplexMatrix(grid))
        unshared = {"rows": grid.shape[0], "cols": grid.shape[1], "data": complex_cells(grid)}
        assert dumps_document(doc) == canonical_dumps(doc) == canonical_dumps(unshared)

    @settings(max_examples=200, deadline=None)
    @given(repeated_row_grids(square=True), st.data())
    def test_partial_writer_matches_json_dumps_bytewise(self, grid, data):
        n = grid.shape[0]
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
        mask = mask.reshape(n, n) & (np.abs(grid) != 0)  # specified entries are nonzero
        doc = partial_to_document(PartialMatrix(entries=grid, mask=mask))
        assert dumps_document(doc) == canonical_dumps(doc)

    @pytest.mark.parametrize("encoder", ["reused", "fallback"])
    @settings(max_examples=300, deadline=None)
    @given(doc=written_documents())
    def test_dumps_document_is_json_dumps_with_either_row_encoder(self, encoder, doc):
        """The C encoder built once, and the pure-Python ``encode`` taken where
        ``_json`` is missing, write the same bytes as ``json.dumps``."""
        with pytest.MonkeyPatch.context() as mp:
            if encoder == "fallback":
                mp.setattr(schur_io, "_ROW_CHUNKS", None)
            else:
                assert schur_io._ROW_CHUNKS is not None
            assert dumps_document(doc) == canonical_dumps(doc)

    def test_sign_matrix_document_holds_two_row_lists(self):
        s = np.array([1.0, -1.0, -1.0, 1.0, -1.0])
        doc = matrix_to_document(ComplexMatrix(np.outer(s, s)))
        assert len({id(row) for row in doc["data"]}) == 2
        assert dumps_document(doc) == canonical_dumps(doc)

    def test_rows_equal_by_value_but_not_bitwise_stay_apart(self):
        doc = matrix_to_document(ComplexMatrix([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]))
        assert doc["data"][0] is doc["data"][2] and doc["data"][0] is not doc["data"][1]
        assert dumps_document(doc) == (
            '{"rows":3,"cols":2,"data":[[[0.0,0.0],[1.0,0.0]],'
            '[[-0.0,0.0],[1.0,0.0]],[[0.0,0.0],[1.0,0.0]]]}'
        )

    def test_complex_cells_keep_shape_and_negative_zero(self):
        row = np.array([complex(1.0, -0.0), complex(-0.0, 2.5)])
        assert json.dumps(complex_cells(row)) == "[[1.0, -0.0], [-0.0, 2.5]]"
        grid = np.array([[1j, 2.0], [complex(-0.0, 0.0), complex(0.0, -4.0)]])
        assert json.dumps(complex_cells(grid)) == (
            "[[[0.0, 1.0], [2.0, 0.0]], [[-0.0, 0.0], [0.0, -4.0]]]"
        )
        assert complex_cells(grid) == [[[float(v.real), float(v.imag)] for v in r] for r in grid]

    def test_bulk_read_matches_the_cell_loop_bitwise(self):
        # the one-pass numpy read of an all-numeric grid gives the entries
        # complex(float(re), float(im)) would, signed zeros and big ints included
        values = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 0.1, 7,
                  2**53 + 1, 2**63 + 2**11 + 1, 2**64 + 1, -(10**300), 3**500]
        rng = np.random.default_rng(3)
        data = [[[values[k] for k in rng.integers(len(values), size=2)] for _ in range(5)]
                for _ in range(4)]
        back = document_to_matrix({"rows": 4, "cols": 5, "data": data}).data
        want = np.array([[complex(float(re), float(im)) for re, im in row] for row in data])
        assert back.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "cell, problem",
        [
            ([True, 0.0], "must be a two-element [re, im] array, got [True, 0.0]"),
            ([10**400, 0], "is out of range: int too large to convert to float"),
            ([1.0], "must be a two-element [re, im] array, got [1.0]"),
        ],
    )
    def test_bad_cell_in_numeric_grid_is_named(self, cell, problem):
        data = [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], cell]]
        with pytest.raises(DocumentFormatError) as err:
            document_to_matrix({"rows": 2, "cols": 2, "data": data})
        assert str(err.value) == f"entry (2,2) {problem}"

    def test_null_rejected_in_full_document(self):
        doc = {"rows": 1, "cols": 2, "data": [[[1.0, 0.0], None]]}
        with pytest.raises(DocumentFormatError):
            document_to_matrix(doc)

    def test_partial_roundtrip(self):
        entries = np.array([[0, 2.0], [0, 0]], dtype=complex)
        mask = np.array([[False, True], [False, False]])
        p = PartialMatrix(entries=entries, mask=mask)
        doc = partial_to_document(p)
        assert doc["data"][0][0] is None
        back = loads_partial(json.dumps(doc))
        assert back.mask[0, 1] and not back.mask[1, 0]
        assert back.entries[0, 1] == 2.0

    @pytest.mark.parametrize(
        "doc",
        [
            "[1,2",
            {"rows": 2, "cols": 2},
            {"rows": 2, "cols": 2, "data": [[[1, 0]]]},
            {"rows": 1, "cols": 1, "data": [[[1, 0, 0]]]},
            {"rows": 1, "cols": 1, "data": [["1"]]},
        ],
    )
    def test_malformed_documents(self, doc):
        text = doc if isinstance(doc, str) else json.dumps(doc)
        with pytest.raises(DocumentFormatError):
            loads_matrix(text)

    def test_csv_reader(self):
        m = read_matrix_csv("1+2i, 3\n-i, 0.5\n")
        assert np.allclose(m.data, [[1 + 2j, 3], [-1j, 0.5]])

    def test_csv_rejects_bad_cell(self):
        with pytest.raises(DocumentFormatError):
            read_matrix_csv("1, flower\n2, 3\n")

    def test_csv_rejects_ragged_rows(self):
        with pytest.raises(DocumentFormatError):
            read_matrix_csv("1,2\n3\n")


class TestCheckCommand:
    def test_unit_circle_passes_with_star(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", UNIT_CIRCLE_DOC)
        assert main(["check", path, "--star"]) == 0
        out = capsys.readouterr().out
        assert "multiplicative: yes" in out
        assert "star-preserving: yes" in out

    def test_all_ones(self, tmp_path):
        path = write(tmp_path, "j.json", matrix_to_document(all_ones(3)))
        assert main(["check", path]) == 0

    def test_zero_entry_fails(self, tmp_path, capsys):
        doc = matrix_to_document(ComplexMatrix([[1, 1], [0, 1]]))
        path = write(tmp_path, "z.json", doc)
        assert main(["check", path]) == 1
        assert "multiplicative: no" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path):
        path = write(tmp_path, "bad.json", "{nope")
        assert main(["check", path]) == 2

    def test_missing_file(self):
        assert main(["check", "/does/not/exist.json"]) == 2

    def test_non_square_rejected(self, tmp_path):
        doc = {"rows": 1, "cols": 2, "data": [[[1.0, 0.0], [1.0, 0.0]]]}
        assert main(["check", write(tmp_path, "r.json", doc)]) == 2

    def test_json_output(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", UNIT_CIRCLE_DOC)
        assert main(["check", path, "--star", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True
        assert payload["multiplicative"]["conditions"]["cocycle"]["pass"] is True
        assert payload["star"]["verdict"] is True

    def test_json_reports_an_inapplicable_battery_on_stdout(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", matrix_to_document(ComplexMatrix(np.zeros((2, 2)))))
        assert main(["check", path, "--json"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        payload = json.loads(out)
        assert payload["verdict"] is False
        assert payload["multiplicative"] == {
            "applicable": False,
            "reason": "the zero Schur map is excluded from certification",
        }
        assert payload["star"]["applicable"] is False

    def test_star_gate_changes_exit_code(self, tmp_path):
        doc = matrix_to_document(ComplexMatrix([[1, 0.5], [2, 1]]))
        path = write(tmp_path, "m.json", doc)
        assert main(["check", path]) == 0
        assert main(["check", path, "--star"]) == 1

    def test_csv_input(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1, i\n-i, 1\n")
        assert main(["check", str(path), "--star"]) == 0


class TestFactorCommand:
    def test_real_pair(self, tmp_path, capsys):
        doc = matrix_to_document(ComplexMatrix([[1, 0.5], [2, 1]]))
        assert main(["factor", write(tmp_path, "m.json", doc)]) == 0
        out = capsys.readouterr().out
        assert "f = (1+0i, 2+0i)" in out
        assert "diag(f)" in out

    def test_unit_circle(self, tmp_path, capsys):
        assert main(["factor", write(tmp_path, "m.json", UNIT_CIRCLE_DOC), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scaling"] == [[1.0, 0.0], [-0.0, -1.0]]

    def test_unit_circle_human_output(self, tmp_path, capsys):
        assert main(["factor", write(tmp_path, "m.json", UNIT_CIRCLE_DOC)]) == 0
        assert "f = (1+0i, 0-1i)" in capsys.readouterr().out

    def test_not_multiplicative(self, tmp_path, capsys):
        doc = matrix_to_document(ComplexMatrix([[1, 1], [1, -1]]))
        assert main(["factor", write(tmp_path, "m.json", doc)]) == 1
        assert "ratio identity fails" in capsys.readouterr().err

    def test_zero_matrix_is_refused_not_malformed(self, tmp_path, capsys):
        # a well-formed file: exit 1 with one line, as check and norm do
        path = write(tmp_path, "m.json", matrix_to_document(ComplexMatrix(np.zeros((2, 2)))))
        assert main(["factor", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "not multiplicative (ratio identity fails with residual 1.000e+00 at witness (1, 1, None))\n"
        )
        assert main(["check", path]) == 1
        assert main(["norm", path]) == 1


class TestCompleteCommand:
    def test_chain_fills_in(self, tmp_path, capsys):
        doc = {
            "rows": 3,
            "cols": 3,
            "data": [
                [None, [2.0, 0.0], None],
                [None, None, [3.0, 0.0]],
                [None, None, None],
            ],
        }
        assert main(["complete", write(tmp_path, "p.json", doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["data"][0][2] == [6.0, 0.0]

    def test_contradiction_exits_one(self, tmp_path, capsys):
        doc = {
            "rows": 3,
            "cols": 3,
            "data": [
                [None, [2.0, 0.0], [5.0, 0.0]],
                [None, None, [3.0, 0.0]],
                [None, None, None],
            ],
        }
        assert main(["complete", write(tmp_path, "p.json", doc)]) == 1
        assert "cycle (1,2,3)" in capsys.readouterr().err

    def test_underdetermined_exits_three(self, tmp_path, capsys):
        doc = {
            "rows": 4,
            "cols": 4,
            "data": [
                [None, [0.0, 1.0], None, None],
                [None, None, None, None],
                [None, None, None, None],
                [None, None, None, None],
            ],
        }
        assert main(["complete", write(tmp_path, "p.json", doc)]) == 3
        err = capsys.readouterr().err
        assert "component {1,2}" in err
        assert "component {3}" in err

    def test_malformed_exits_two(self, tmp_path):
        assert main(["complete", write(tmp_path, "p.json", "{oops")]) == 2

    def test_star_mode_round_trip(self, tmp_path, capsys):
        doc = {
            "rows": 2,
            "cols": 2,
            "data": [[None, [0.0, 1.0]], [None, None]],
        }
        assert main(["complete", write(tmp_path, "p.json", doc), "--star"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["data"][1][0] == [-0.0, -1.0] or out["data"][1][0] == [0.0, -1.0]


class TestEnumerateCommand:
    def test_three_gives_four_documents(self, capsys):
        assert main(["enumerate", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        docs = [json.loads(line) for line in lines]
        assert all(doc["rows"] == 3 for doc in docs)

    def test_one(self, capsys):
        assert main(["enumerate", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "rows": 1,
            "cols": 1,
            "data": [[[1.0, 0.0]]],
        }

    def test_array_format(self, capsys):
        assert main(["enumerate", "2", "--format", "array"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 2

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_each_format_writes_one_document_at_a_time(self, n):
        class Spy(StringIO):
            def write(self, text):
                self.writes.append(text)
                return super().write(text)

        jsonl, array = Spy(), Spy()
        jsonl.writes, array.writes = [], []
        with redirect_stdout(jsonl):
            assert main(["enumerate", str(n)]) == 0
        with redirect_stdout(array):
            assert main(["enumerate", str(n), "--format", "array"]) == 0
        lines = jsonl.getvalue().splitlines()
        assert jsonl.writes == [line + "\n" for line in lines]
        assert array.getvalue() == "[" + ",".join(lines) + "]\n"
        assert max(map(len, array.writes)) <= max(map(len, lines)) + 1

    @pytest.mark.parametrize("array", [False, True], ids=["jsonl", "array"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_line_is_one_writer_call_through_cli_io(self, monkeypatch, n, array):
        """One ``cli.io.dumps_document`` call per member, whose texts are stdout
        byte for byte: the benchmark counts the writer's bytes through
        ``cli.io``, so a path around it would go unmeasured."""
        texts = []

        class CountingIO:
            def __getattr__(self, name):
                return getattr(schur_io, name)

            def dumps_document(self, doc):
                texts.append(schur_io.dumps_document(doc))
                return texts[-1]

        monkeypatch.setattr(cli, "io", CountingIO())
        raw = BytesIO()
        out = TextIOWrapper(raw, encoding="utf-8", write_through=True)
        with redirect_stdout(out):
            assert main(["enumerate", str(n)] + ["--format", "array"] * array) == 0
        out.flush()
        count = 1 << (n - 1)
        assert len(texts) == count
        # member k is s s^T, s = (1, signs): bit j of k, from the top, negates s_(j+2)
        cell = {1: "[1.0,0.0]", -1: "[-1.0,0.0]"}
        docs = []
        for k in range(count):
            s = [1] + [-1 if k >> (n - 2 - j) & 1 else 1 for j in range(n - 1)]
            rows = ("[" + ",".join(cell[si * sj] for sj in s) + "]" for si in s)
            docs.append('{"rows":%d,"cols":%d,"data":[%s]}' % (n, n, ",".join(rows)))
        assert texts == docs
        joined = "[" + ",".join(texts) + "]\n" if array else "".join(t + "\n" for t in texts)
        assert raw.getvalue() == joined.encode()

    @pytest.mark.parametrize("n", ["0", "25"])
    def test_out_of_range(self, n, capsys):
        assert main(["enumerate", n]) == 2

    def test_one_past_the_limit_is_refused_in_one_line(self, capsys):
        assert main(["enumerate", str(ENUMERATION_LIMIT + 1)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert f"limit is n={ENUMERATION_LIMIT}" in err

    def test_pipeline_every_member_checks_star(self, capsys, tmp_path):
        assert main(["enumerate", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 16
        for k, line in enumerate(lines):
            path = tmp_path / f"m{k}.json"
            path.write_text(line)
            assert main(["check", str(path), "--star"]) == 0
        capsys.readouterr()


class TestNormCommand:
    def test_multiplicative_matrix(self, tmp_path, capsys):
        doc = matrix_to_document(ComplexMatrix([[1, 2], [0.5, 1]]))
        assert main(["norm", write(tmp_path, "m.json", doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["operator_norm"] == pytest.approx(2.5)
        assert payload["schur_map_norm"] == pytest.approx(2.0)

    def test_non_multiplicative_exits_one(self, tmp_path, capsys):
        doc = matrix_to_document(ComplexMatrix([[1, 1], [1, -1]]))
        assert main(["norm", write(tmp_path, "m.json", doc), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schur_map_norm"] is None


class TestWitnessCommand:
    def test_all_ones_generator(self, capsys):
        assert main(["witness", "10", "--gen", "toeplitz:1,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower_bound"] >= 10 * (1 - 1e-10)
        assert len(payload["x"]) == 10

    def test_alternating_generator_csv(self, capsys):
        assert main(["witness", "4", "--gen", "toeplitz:-1,0", "--csv"]) == 0
        n, lb = capsys.readouterr().out.strip().split(",")
        assert n == "4"
        assert float(lb) >= 4 * (1 - 1e-10)

    def test_non_multiplicative_table(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        table = (rng.standard_normal((4, 4)) + 3).tolist()
        doc = {"rows": 4, "cols": 4, "data": [[[v, 0.0] for v in row] for row in table]}
        path = write(tmp_path, "t.json", doc)
        assert main(["witness", "4", "--gen", f"table:{path}"]) == 1
        assert "not multiplicative" in capsys.readouterr().err

    def test_scaling_file(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert main(["witness", "3", "--gen", f"scaling:{path}"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower_bound"] >= 3 * (1 - 1e-10)

    @pytest.mark.parametrize("spec", ["toeplitz:0,0", "toeplitz:1", "bogus:1", "scaling:/nope"])
    def test_bad_generator_specs(self, spec):
        assert main(["witness", "3", "--gen", spec]) == 2

    def test_parse_generator_labels(self):
        gen = parse_generator_spec("toeplitz:0,1")
        assert gen.rule(1, 2) == 1j


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        assert main(["verify", "--suite", "prop26", "--trials", "10", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == []
        assert payload["suite"] == "prop26"
        assert payload["trials"] == 10

    def test_all_suites_complete_quickly(self, capsys):
        assert main(["verify", "--suite", "all", "--trials", "10", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == []
        assert payload["timing"]["elapsed"] < 60.0
        assert payload["tolerance"] == {"rel": 1e-10, "abs": 1e-12}

    def test_unknown_suite_exits_two(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_reproducible_reports(self, capsys):
        """Two runs print the same bytes but for the ``timing`` object."""
        outs = []
        for _ in range(2):
            main(["verify", "--suite", "completion", "--trials", "6", "--seed", "9"])
            outs.append(capsys.readouterr().out)
        assert all(set(json.loads(out)["timing"]) == {"elapsed"} for out in outs)
        timing = re.compile(r'"timing": \{"elapsed": [^}]*\}')
        assert timing.sub("", outs[0]) == timing.sub("", outs[1])


class TestToleranceHandling:
    def test_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCHURLAB_TOL", "1e-6")
        path = write(tmp_path, "m.json", UNIT_CIRCLE_DOC)
        assert main(["check", path]) == 0
        assert "rel=1e-06" in capsys.readouterr().out

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCHURLAB_TOL", "1e-6")
        path = write(tmp_path, "m.json", UNIT_CIRCLE_DOC)
        assert main(["check", path, "--tol", "1e-9"]) == 0
        assert "rel=1e-09" in capsys.readouterr().out

    def test_bad_env_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCHURLAB_TOL", "plenty")
        path = write(tmp_path, "m.json", UNIT_CIRCLE_DOC)
        assert main(["check", path]) == 2

    def test_env_is_ignored_without_tol(self, capsys, monkeypatch):
        # enumerate takes no tolerance, so a bad SCHURLAB_TOL cannot fail it
        monkeypatch.setenv("SCHURLAB_TOL", "bad")
        assert main(["enumerate", "2"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 2
        assert err == ""

    def test_loose_tolerance_changes_verdict(self, tmp_path):
        wobbled = ComplexMatrix([[1, 0.5 * (1 + 1e-7)], [2, 1]])
        path = write(tmp_path, "m.json", matrix_to_document(wobbled))
        assert main(["check", path]) == 1
        assert main(["check", path, "--tol", "1e-4"]) == 0


def test_overflowed_sampling_residual_fails_closed(tmp_path, capsys):
    # f = (1, 1e-308): exactly multiplicative, but the sampled products overflow
    doc = {"rows": 2, "cols": 2, "data": [[[1.0, 0.0], [1e308, 0.0]], [[1e-308, 0.0], [1.0, 0.0]]]}
    assert main(["check", write(tmp_path, "m.json", doc), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["multiplicative"]["conditions"]["product_sampling"] == {
        "pass": False,
        "residual": None,
    }
    assert payload["star"]["conditions"]["rank_one_normal_unit_diag"]["residual"] is None


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["check", "{m}", "--json"], [[1.0, 1e308], [1e-308, 1.0]]),
        (["check", "{m}", "--star", "--json"], [[1.0, 1e308], [1e-308, 1.0]]),
        (["factor", "{m}"], [[1.0, 1e200], [1e200, 1.0]]),
        (["norm", "{m}", "--json"], [[1.0, 1e200], [1e200, 1.0]]),
    ],
)
def test_overflow_raises_no_runtime_warning(tmp_path, capsys, argv, doc):
    path = write(tmp_path, "m.json", matrix_to_document(ComplexMatrix(doc)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([arg.format(m=path) for arg in argv]) == 1
    capsys.readouterr()


def test_off_unit_diagonal_fails_every_command(tmp_path, capsys):
    # f = (1, 1000, 1) with a_11 = 1 + 1e-8: the ratio residual passes its
    # threshold tol * max|a|^2, the diagonal fails its threshold tol
    a = np.outer([1.0, 1000.0, 1.0], [1.0, 1e-3, 1.0])
    a[0, 0] += 1e-8
    path = write(tmp_path, "m.json", matrix_to_document(a))
    for argv in (["check", path], ["factor", path], ["witness", "3", "--gen", f"table:{path}"]):
        assert main(argv) == 1
    capsys.readouterr()
    assert main(["norm", path, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["schur_map_norm"] is None


@pytest.mark.parametrize(
    "doc, overflowed",
    [
        ([[1.0, 1e200], [1e200, 1.0]], "rank_one_normal_unit_diag"),  # A A* overflows
        ([[1.0, 1e308], [-1e308, 1.0]], "star_and_multiplicative"),  # A - A* overflows
    ],
)
def test_overflowing_star_operand_fails_closed(tmp_path, capsys, doc, overflowed):
    path = write(tmp_path, "m.json", matrix_to_document(ComplexMatrix(doc)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", path]) == 1
        capsys.readouterr()
        assert main(["check", path, "--star", "--json"]) == 1
    star = json.loads(capsys.readouterr().out)["star"]["conditions"]
    assert star[overflowed] == {"pass": False, "residual": None}


def test_overflowing_hermitian_part_fails_closed(tmp_path, capsys):
    # A + A* and ||A||_2 overflow, so positivity is decided on A * 2^-1000:
    # eigenvalues 1 +- 1e308 give the residual |lambda_min| / ||A||_2 = 1,
    # the condition fails, and nothing warns
    doc = [[1.0, 1e308], [1e308, 1.0]]
    path = write(tmp_path, "m.json", matrix_to_document(ComplexMatrix(doc)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not is_positive_semidefinite(doc)
        assert main(["check", path, "--star", "--json"]) == 1
    star = json.loads(capsys.readouterr().out)["star"]["conditions"]
    for name in ("schur_pair_positive", "cp_isomorphism_proxy"):
        assert star[name]["pass"] is False
        assert star[name]["residual"] == pytest.approx(1.0, rel=1e-12)


def test_witness_of_an_overflowing_scaling_norm(capsys):
    # f = (1, 1e300): the corner is multiplicative, only sum |f(i)|^2 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["witness", "2", "--gen", "toeplitz:1e-300,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_bound"] == 2.0
    assert payload["x"][1] == [1.0, 0.0]


def test_overflowing_scaling_file_exits_two_without_warning(tmp_path, capsys):
    path = write(tmp_path, "f.json", [1e300, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["witness", "2", "--gen", f"scaling:{path}"]) == 2
    assert capsys.readouterr().err == "error: generator entry (1,2) is not finite\n"


DEEP_ARRAY = "[" * 200_000 + "]" * 200_000
DEEP_DOC = '{"rows":1,"cols":1,"data":' + DEEP_ARRAY + "}"


@pytest.mark.parametrize(
    "argv, files",
    [
        pytest.param(["check", "{m}"], {"m": {"rows": True, "cols": 1, "data": [[[1.0, 0.0]]]}},
                     id="bool-size"),
        pytest.param(["check", "{m}"], {"m": {"rows": 1, "cols": 1, "data": [[[10**400, 0]]]}},
                     id="entry-overflows-float"),
        pytest.param(["check", "{m}"],
                     {"m": '{"rows": 1, "cols": 1, "data": [[[' + "1" * 5000 + ", 0]]]}"},
                     id="integer-literal-too-long"),
        pytest.param(["check", "{m}"], {"m": b"\xff\xfe"}, id="not-utf8"),
        pytest.param(["complete", "{p}"],
                     {"p": {"rows": 2, "cols": 2,
                            "data": [[None, [float("nan"), 0.0]], [None, None]]}},
                     id="partial-nan"),
        pytest.param(["complete", "{p}"],
                     {"p": {"rows": 3, "cols": 3,
                            "data": [[None, [1e200, 0.0], None], [None, None, [1e200, 0.0]],
                                     [None, None, None]]}},
                     id="completion-overflows"),
        pytest.param(["witness", "3", "--gen", "toeplitz:1e-300,0"], {}, id="toeplitz-underflow"),
        pytest.param(["witness", "3", "--gen", "toeplitz:1e200,0"], {}, id="toeplitz-overflow"),
        pytest.param(["witness", "3", "--gen", "toeplitz:inf,0"], {}, id="toeplitz-inf"),
        pytest.param(["witness", "3", "--gen", "toeplitz:nan,0"], {}, id="toeplitz-nan"),
        pytest.param(["witness", "3", "--gen", "scaling:{f}"], {"f": [1.0, 10**400]},
                     id="scaling-overflows-float"),
        pytest.param(["witness", "3", "--gen", "scaling:{f}"], {"f": "[1, 2"},
                     id="scaling-bad-json"),
        pytest.param(["check", "{m}", "--trials", "0"], {"m": UNIT_CIRCLE_DOC}, id="check-trials-0"),
        pytest.param(["verify", "--suite", "group", "--trials", "0"], {}, id="verify-trials-0"),
        # a rejected input runs the product sampling, whose generator refuses -1
        pytest.param(["check", "{m}", "--seed", "-1"], {"m": OFF_DIAGONAL_DOC}, id="check-seed-neg"),
        pytest.param(["verify", "--suite", "thm21", "--trials", "2", "--seed", "-1"], {},
                     id="verify-seed-neg"),
        pytest.param(["witness", "100000000", "--gen", "toeplitz:1,0"], {}, id="witness-142-PiB"),
        # arrays nested past the interpreter's recursion limit, one per reader
        *(pytest.param(argv, {"d": DEEP_DOC if doc else DEEP_ARRAY}, id=f"deep-{name}")
          for name, argv, doc in [
              ("check", ["check", "{d}"], True),
              ("factor", ["factor", "{d}"], True),
              ("complete", ["complete", "{d}"], True),
              ("table", ["witness", "3", "--gen", "table:{d}"], True),
              ("scaling", ["witness", "3", "--gen", "scaling:{d}"], False),
          ]),
    ],
)
def test_malformed_input_exits_two_with_one_line(tmp_path, capsys, argv, files):
    paths = {key: write(tmp_path, f"{key}.json", content) for key, content in files.items()}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err


# Fuzzing the CLI at n <= 4: well-formed multiplicative documents with a few
# cells, or the header, swapped for malformed or extreme values.
_specials = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, 1e-300, 1e300, 10**400, True, None, "1", [1.0]]
)
_scalars = st.complex_numbers(min_magnitude=0.25, max_magnitude=4)


@st.composite
def _documents(draw, partial: bool = False):
    if draw(st.integers(0, 7)) == 0:
        return draw(st.text(max_size=8))
    f = draw(st.lists(_scalars, min_size=1, max_size=4))
    n = len(f)
    data = [[[(fi / fj).real, (fi / fj).imag] for fj in f] for fi in f]
    if partial:
        data = [[None if draw(st.booleans()) else cell for cell in row] for row in data]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        cell = st.one_of(_specials, st.lists(_specials, min_size=2, max_size=2))
        data[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(cell)
    doc = {"rows": n, "cols": n, "data": data}
    if draw(st.integers(0, 5)) == 0:
        doc[draw(st.sampled_from(["rows", "cols", "data"]))] = draw(_specials)
    return json.dumps(doc)


_ratio_parts = st.one_of(
    st.floats(-3, 3).map(repr), st.sampled_from(["inf", "nan", "1e-300", "1e200", "0", "x"])
)


@st.composite
def _invocations(draw):
    """An argv, with {f} standing for the input file, and that file's content."""
    kind = draw(st.sampled_from(["check", "factor", "norm", "complete", "witness"]))
    if kind == "complete":
        return ["complete", "{f}"] + draw(st.sampled_from([[], ["--star"]])), draw(
            _documents(partial=True)
        )
    if kind != "witness":
        flags = draw(st.sampled_from([[], ["--json"]]))
        if kind == "check":
            flags = flags + draw(st.sampled_from([[], ["--star"]]))
        return [kind, "{f}"] + flags, draw(_documents())
    spec = draw(st.sampled_from(["toeplitz", "scaling", "table", "junk"]))
    argv = ["witness", str(draw(st.integers(0, 4))), "--gen"]
    if spec == "toeplitz":
        return argv + [f"toeplitz:{draw(_ratio_parts)},{draw(_ratio_parts)}"], ""
    if spec == "scaling":
        values = draw(st.lists(st.one_of(st.floats(0.25, 4), _specials), max_size=4))
        return argv + ["scaling:{f}"], json.dumps(values)
    if spec == "table":
        return argv + ["table:{f}"], draw(_documents())
    return argv + [draw(st.text(max_size=8))], ""


@settings(
    derandomize=True,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_invocations())
def test_cli_fuzz_exit_codes(tmp_path, invocation):
    argv, content = invocation
    path = tmp_path / "input.json"
    path.write_text(content)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.replace("{f}", str(path)) for arg in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
