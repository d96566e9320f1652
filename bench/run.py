"""Run one workload of the schurlab benchmark and print its metrics.

    python3 bench/run.py --workload cli_large --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/`` (the package need not be installed). ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` replays the same requests
in-process under spans and reports the per-layer metrics. Every output is
checked against ground truth. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every figure with its unit, list each failed request with its input,
and stamp the environment. The full result, and the spans of a traced run,
are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_large", "lib_small")

# Hand-measured figures for ``check --star`` at n=512 from ROADMAP.md's
# baseline table (2 cores, OpenBLAS, CPython 3.11), in ms, for comparison
# with the traced shares. Scan, SVD, eig and matching run once per battery.
ROADMAP_CHECK_512_MS = {
    "io.load_matrix_file": 1100.0,
    "multiplicative.check_cocycle": 2 * 2131.0,
    "core.numerical_rank": 2 * 99.0,
    "core.eigenvalues": 2 * 61.0,
    "core.multiset_distance": 2 * 100.0,
    "multiplicative.certify_multiplicative": 2816.0,
    "star.certify_star_multiplicative": 3324.0,
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def check_share_table(tracer) -> list[str]:
    """Layer shares of the traced ``check --star`` request at n=512."""
    rid = next((r for r, label in tracer.labels.items()
                if label.startswith("check ") and label.endswith("n=512")), None)
    if rid is None:
        return []
    spans = [sp for sp in tracer.spans if sp.request == rid]
    selfs = self_times(spans)
    probes = sum(sp.duration for sp in spans if sp.probe)
    total = sum(sp.duration for sp in spans if sp.parent is None) - probes
    lines = [f"check --star n=512 ({tracer.labels[rid]}): {total * 1e3:.1f} ms in-process "
             "without import or probes; ROADMAP end-to-end 6700 ms incl. 160 ms import",
             f"  {'layer':<40} {'traced ms':>10} {'share':>7} {'ROADMAP ms':>11}"]
    for name, base in ROADMAP_CHECK_512_MS.items():
        ms = sum(selfs[sp.sid] for sp in spans if sp.name == name) * 1e3
        lines.append(f"  {name:<40} {ms:>10.1f} {ms / (total * 1e3):>7.1%} {base:>11.0f}")
    return lines


def end_to_end(ctx, workload, rng, requests):
    """Untraced run: (metric values, outcomes, extra report lines)."""
    import harness
    from metrics import END_TO_END, REPORTED, summarize

    setup = harness.SetupSampler(ctx, workload.warmup_args(ctx, rng))
    if workload.IN_PROCESS:
        outcomes = harness.measure_in_process(ctx, requests, setup.between_rounds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        outcomes = harness.closed_loop(ctx, requests, partial(harness.cli_outcome, ctx),
                                       setup.between_rounds)
        peak = max(o.rss_mb for o in outcomes)
    found = summarize(outcomes, setup.median(), peak)
    report = [f"metric {name} = {found[name]!r} {unit} (reported, not gated)"
              for name, unit in REPORTED.items() if name in found]
    report.append(f"setup_s is the median of {len(setup.times)} set-ups spread over the run")
    if "latency_tail" in found:
        t = found["latency_tail"]
        report.append(f"latency_tail_s is p{t['percentile']:g}: {t['beyond']} of "
                      f"{t['samples']} samples beyond it")
    return {name: found[name] for name in END_TO_END}, outcomes, report


def per_layer(ctx, workload, requests, spans_path: Path):
    """Traced run: (metric values, outcomes, extra report lines, request labels)."""
    import harness
    from metrics import PER_LAYER
    from spans import layer_metrics

    import_s = harness.import_time(ctx, workload.IMPORT_MODULE)
    traced = harness.traced_replay(ctx, requests)
    found = layer_metrics(traced.tracer.spans)
    found.update({"cli.import_s": import_s, "trace.overhead_s": traced.overhead_s,
                  "trace.requests": len(traced.outcomes)})
    with open(spans_path, "w", encoding="utf-8") as fh:
        for sp in traced.tracer.spans:
            fh.write(json.dumps(sp.to_dict()) + "\n")
    values = {name: found.get(name, 0) for name in PER_LAYER}  # 0: layer not called
    return values, traced.outcomes, check_share_table(traced.tracer), traced.tracer.labels


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "schurlab" / "__init__.py").is_file():
        print(f"error: no schurlab sources under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import harness
    from envstamp import environment, reference_loop_s
    from metrics import END_TO_END, PER_LAYER

    workload = importlib.import_module(args.workload)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    ctx = harness.Context(ROOT, SRC, workdir, args.seed, args.seconds)
    stem = f"{args.workload}-seed{args.seed}"
    extra: dict = {"environment": environment(ROOT, SRC, args.seed)}
    loop_before = reference_loop_s()
    try:
        rng = np.random.default_rng(args.seed)
        requests = workload.requests(ctx, rng)
        if args.trace:
            spans_path = out_dir / f"spans-{stem}.jsonl"
            values, outcomes, report, labels = per_layer(ctx, workload, requests, spans_path)
            units = PER_LAYER
            extra.update(spans_file=str(spans_path.relative_to(ROOT)), request_labels=labels)
        else:
            values, outcomes, report = end_to_end(ctx, workload, rng, requests)
            units = END_TO_END
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra["environment"]["reference_loop_s"] = {"before": loop_before,
                                                "after": reference_loop_s()}
    failures = [(o.label, o.failure) for o in outcomes if o.failure is not None]
    for name, value in values.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for line in report:
        print(line)
    for label, reason in failures:
        print(f"FAILED {label}: {reason}")
    print("environment " + json.dumps(extra["environment"]))
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    extra.update(workload=args.workload, seconds=args.seconds, trace=args.trace, report=report,
                 failures=failures, requests=[[o.label, o.latency_s] for o in outcomes])
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(json.dumps({**result, **extra}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
