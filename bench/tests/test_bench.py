"""Tests of the benchmark itself: oracle, tail percentile, self-time arithmetic.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import harness
import inputs
import oracle
import replay
from children import run_child
from metrics import END_TO_END, PER_LAYER, Outcome, summarize, tail
from spans import (
    NullTracer,
    Span,
    Tracer,
    layer_metrics,
    request_time_without_probes,
    self_times,
)

ROOT = Path(__file__).resolve().parents[2]


def _case(kind="unimodular", n=5, seed=0):
    return inputs.matrix_case(np.random.default_rng(seed), n, kind)


def _pairs(f):
    return [[float(v.real), float(v.imag)] for v in f]


def _check_payload(case, mult=None, star=None):
    mult = case.multiplicative if mult is None else mult
    star = case.star if star is None else star
    return json.dumps({
        "verdict": mult and star,
        "multiplicative": {"verdict": mult, "scaling": _pairs(case.f) if case.f is not None else None},
        "star": {"verdict": star},
    })


# --- oracle -------------------------------------------------------------------

@pytest.mark.parametrize("kind", inputs.KINDS)
def test_check_oracle_accepts_the_truth(kind):
    case = _case(kind)
    code = 0 if case.multiplicative and case.star else 1
    assert oracle.check_check(case, code, _check_payload(case)) is None


@pytest.mark.parametrize("kind", inputs.KINDS)
def test_check_oracle_rejects_a_flipped_verdict(kind):
    case = _case(kind)
    code = 0 if case.multiplicative and case.star else 1
    flipped = _check_payload(case, mult=not case.multiplicative)
    assert "multiplicative verdict" in oracle.check_check(case, code, flipped)
    flipped_star = _check_payload(case, star=not case.star)
    assert "star verdict" in oracle.check_check(case, code, flipped_star)
    assert "exit code" in oracle.check_check(case, 1 - code, _check_payload(case))


def test_factor_oracle_rejects_a_wrong_scaling_vector():
    case = _case("mixed")
    good = json.dumps({"scaling": _pairs(case.f / case.f[0])})
    assert oracle.check_factor(case, 0, good) is None
    wrong = case.f.copy()
    wrong[2] *= 1 + 1e-6
    reason = oracle.check_factor(case, 0, json.dumps({"scaling": _pairs(wrong)}))
    assert "does not rebuild" in reason
    short = json.dumps({"scaling": _pairs(case.f[:-1])})
    assert "does not rebuild" in oracle.check_factor(case, 0, short)


def test_factor_oracle_expects_exit_1_off_the_ratio_identity():
    case = _case("perturbed")
    assert oracle.check_factor(case, 1, "") is None
    assert "exit code" in oracle.check_factor(case, 0, json.dumps({"scaling": [[1, 0]] * 5}))


def test_witness_oracle_checks_the_lower_bound():
    n = 6
    x = np.full(n, 1 / np.sqrt(n))
    payload = {"n": n, "lower_bound": float(n), "x": _pairs(x)}
    assert oracle.check_witness(n, 0, json.dumps(payload)) is None
    payload["lower_bound"] = n - 1e-6
    assert "lower bound" in oracle.check_witness(n, 0, json.dumps(payload))


def _stream(n):
    return b"".join(oracle.expected_line(n, k) + b"\n" for k in range(1 << (n - 1)))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_expected_stream_is_the_programs_stream(n):
    from schurlab import io
    from schurlab.groups import enumerate_real_positive

    program = "".join(io.dumps_document(io.matrix_to_document(m)) + "\n"
                      for m in enumerate_real_positive(n)).encode()
    assert program == _stream(n)
    assert oracle.EnumerateOracle().check(n, 0, program) is None


def test_enumerate_oracle_rejects_truncated_and_reordered_streams():
    n = 5
    judge = oracle.EnumerateOracle()
    good = _stream(n)
    lines = good.split(b"\n")[:-1]
    assert "15 lines, expected 16" in judge.check(n, 0, b"\n".join(lines[:-1]) + b"\n")
    assert "truncated" in judge.check(n, 0, good[:-7])
    swapped = lines[:]
    swapped[3], swapped[4] = swapped[4], swapped[3]
    assert "line 3 holds the pattern of index 4 (reordered)" in judge.check(
        n, 0, b"\n".join(swapped) + b"\n")
    garbled = lines[:]
    garbled[2] = garbled[2].replace(b"-1.0", b"1.0", 1)
    assert "not the +-1 pattern" in judge.check(n, 0, b"\n".join(garbled) + b"\n")
    assert "exit code" in judge.check(n, 1, good)


def test_pattern_index_inverts_sign_pattern():
    for k in range(8):
        assert oracle.pattern_index(4, oracle.expected_line(4, k)) == k


# --- inputs carry the truth the program must report ------------------------------

@pytest.mark.parametrize("mask", inputs.MASKS)
@pytest.mark.parametrize("data", inputs.PARTIAL_DATA)
@pytest.mark.parametrize("n", [2, 3, 7])
def test_partial_cases_complete_to_their_labelled_status(mask, data, n):
    from schurlab.completion import PartialMatrix, complete_partial

    case = inputs.partial_case(np.random.default_rng(n), n, mask, data)
    report = complete_partial(PartialMatrix(entries=case.entries, mask=case.mask))
    assert report.status == case.status


def test_log_uniform_sizes_stay_in_range_and_cover_it():
    for seed in range(20):
        sizes = inputs.log_uniform_sizes(np.random.default_rng(seed), 48, 2, 32)
        # the top stratum starts at 1.5 * (32.5 / 1.5) ** (47 / 48) > 30
        assert len(sizes) == 48 and min(sizes) == 2 and 30 <= max(sizes) <= 32


def test_document_writer_round_trips_through_the_program():
    from schurlab import io

    case = _case("mixed", n=3)
    assert np.array_equal(io.loads_matrix(inputs.document_text(case.matrix)).data, case.matrix)


# --- latency tail ---------------------------------------------------------------

def test_tail_is_omitted_below_ten_samples_beyond_p90():
    assert tail([0.1] * 9) is None
    assert tail(list(range(99))) is None  # p90 is rank 90, 9 beyond


def test_tail_reports_the_highest_percentile_with_ten_beyond():
    t = tail([float(x) for x in range(100)])
    assert (t["percentile"], t["value"], t["beyond"]) == (90.0, 89.0, 10)
    t = tail([float(x) for x in range(1000)])
    assert (t["percentile"], t["beyond"]) == (99.0, 10)


def test_summary_omits_tail_and_counts_failures():
    outcomes = [Outcome("a", 1.0, 4, key=0), Outcome("b", 3.0, 9, failure="wrong", key=1)]
    s = summarize(outcomes, setup_s=0.5, peak_rss_mb=10.0)
    assert "latency_tail_s" not in s
    assert s["latency_p50_s"] == 2.0
    assert s["throughput_rps"] == 0.25  # one completed in 4 s of requests
    assert s["entries_per_s"] == 1.0
    assert s["failed_frac"] == 0.5


def test_summary_takes_each_requests_fastest_repeat():
    outcomes = [Outcome("a", 2.0, 4, key=0), Outcome("b", 1.0, 4, key=1),
                Outcome("a", 1.0, 4, key=0), Outcome("b", 3.0, 4, failure="wrong", key=1)]
    s = summarize(outcomes, setup_s=0.5, peak_rss_mb=10.0)
    assert s["latency_p50_s"] == 1.0
    assert s["throughput_rps"] == 0.5  # "b" failed once, so only "a" completed
    assert s["failed_frac"] == 0.25


# --- spans ----------------------------------------------------------------------

def _span(sid, name, start, end, parent, probe=False, **counts):
    return Span(sid, name, start, end, parent, 0, probe, counts)


def test_self_time_on_nested_and_probe_spans():
    spans = [
        _span(0, "request.check", 0.0, 10.0, None),
        _span(1, "io.load_matrix_file", 0.0, 2.0, 0, bytes=100),
        _span(2, "multiplicative.certify_multiplicative", 2.0, 8.0, 0),
        _span(3, "multiplicative.check_cocycle", 5.0, 7.0, 2, probe=True),
        _span(4, "core.eigenvalues", 7.0, 7.5, 2, probe=True),
        _span(5, "core.multiset_distance", 7.5, 8.0, 2, probe=True),
    ]
    st = self_times(spans)
    assert st == {0: 2.0, 1: 2.0, 2: 3.0, 3: 2.0, 4: 0.5, 5: 0.5}
    m = layer_metrics(spans)
    assert m["cli.glue.self_s"] == 2.0
    assert m["multiplicative.certify_multiplicative.busy_s"] == 3.0
    assert m["multiplicative.certify_unprobed_s"] == 0.0  # 3 s busy minus 3 s of probes
    assert m["io.load_matrix_file.bytes"] == 100
    assert request_time_without_probes(spans) == 7.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "a", 0.0, 10.0, None),
        _span(1, "b", 1.0, 4.0, 0),
        _span(2, "c", 3.0, 6.0, 0),
        _span(3, "d", 8.0, 12.0, 0),  # clipped to the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_links_parents_and_requests():
    t = Tracer()
    with t.request("request.x", "first"):
        with t.span("outer"):
            with t.span("inner", probe=True):
                pass
    with t.request("request.x", "second"):
        pass
    by_name = {sp.name: sp for sp in t.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["outer"].parent == t.spans[0].sid
    assert [sp.request for sp in t.spans] == [0, 0, 0, 1]
    assert t.labels == {0: "first", 1: "second"}
    assert all(sp.end >= sp.start for sp in t.spans)


# --- in-process CLI replay --------------------------------------------------------

def _check_text(case, code, stdout):
    return oracle.check_check(case, code, stdout.decode())


def test_cli_replay_runs_the_programs_main_under_spans(tmp_path):
    from schurlab import cli

    case = _case("unimodular", n=6)
    path = tmp_path / "m.json"
    inputs.write_document(path, case.matrix)
    original = cli.certify_multiplicative
    t = Tracer()
    with t.request("request.check", "check"):
        res = replay.run_cli(t, ["check", str(path), "--star", "--json"], tmp_path / "out")
    assert cli.certify_multiplicative is original  # the patch is undone
    assert harness.judge_cli(partial(_check_text, case), res) is None
    names = [sp.name for sp in t.spans]
    for name in ("io.load_matrix_file", "multiplicative.certify_multiplicative",
                 "star.certify_star_multiplicative", "multiplicative.check_cocycle",
                 "core.operator_norm", "core.multiset_distance"):
        assert name in names
    m = layer_metrics(t.spans)
    assert m["io.load_matrix_file.bytes"] == path.stat().st_size
    assert m["cli.glue.self_s"] > 0


def test_cli_replay_judges_a_wrong_verdict(tmp_path):
    case = _case("perturbed", n=5)
    path = tmp_path / "m.json"
    inputs.write_document(path, case.matrix)
    res = replay.run_cli(NullTracer(), ["check", str(path), "--star", "--json"],
                         tmp_path / "out")
    assert harness.judge_cli(partial(_check_text, case), res) is None
    lie = _case("unimodular", n=5)  # the same output judged against another truth
    assert "exit code" in harness.judge_cli(partial(_check_text, lie), res)


def test_cli_replay_of_enumerate_counts_the_programs_own_writes(tmp_path):
    n = 4
    t = Tracer()
    with t.request("request.enumerate", "enumerate"):
        res = replay.run_cli(t, ["enumerate", str(n)], tmp_path / "out")
    assert oracle.EnumerateOracle().check(n, res.code, res.stdout) is None
    m = layer_metrics(t.spans)
    assert m["groups.enumerate_real_positive.items"] == 8
    assert m["io.dumps_document.bytes"] == len(res.stdout) - 8  # one newline per line


def test_lib_small_replays_enumerate_in_process_and_judges_it(tmp_path):
    import lib_small

    ctx = harness.Context(ROOT, ROOT / "src", tmp_path, seed=0, seconds=0.0)
    reqs = [r for r in lib_small.requests(ctx, np.random.default_rng(0)) if r.op == "enumerate"]
    assert len(reqs) == lib_small.PER_CALL_KIND
    for req in reqs[:6]:
        _, result, crash = harness.run_replay(req, NullTracer())
        assert harness.judge(req, result, crash) is None
    res = reqs[0].replay(NullTracer())
    res.stdout_path.write_bytes(res.stdout[:-1])  # truncated stream
    assert harness.judge(reqs[0], res, None) is not None


def test_closed_loop_repeats_every_request_at_least_three_times(tmp_path):
    ctx = harness.Context(ROOT, ROOT / "src", tmp_path, seed=0, seconds=0.0)
    reqs = [harness.Request("x", f"r{k}", 1, replay=None, verify=None) for k in range(2)]
    between = []
    outcomes = harness.closed_loop(ctx, reqs, lambda req: Outcome(req.label, 0.0, 1),
                                   lambda: between.append(len(between)))
    assert [o.key for o in outcomes] == [0, 1] * harness.MIN_ROUNDS
    assert len(between) == harness.MIN_ROUNDS


# --- children and the manifest ----------------------------------------------------

def test_run_child_reports_exit_code_rss_and_output(tmp_path):
    res = run_child([sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"],
                    env=None, cwd=str(tmp_path), stderr_path=str(tmp_path / "err"),
                    timeout_s=60)
    assert (res.code, res.stdout, res.timed_out) == (3, b"hi\n", False)
    assert res.rss_mb > 1 and res.wall_s > 0


def test_run_child_kills_on_timeout(tmp_path):
    res = run_child([sys.executable, "-c", "import time; time.sleep(30)"], env=None,
                    cwd=str(tmp_path), stderr_path=str(tmp_path / "err"), timeout_s=0.5)
    assert res.timed_out and res.code != 0


def test_manifest_matches_the_metric_catalogue():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == PER_LAYER
    import run

    assert tuple(w["name"] for w in manifest["workloads"]) == run.WORKLOADS
