"""Command-line front end.

Exit codes are part of the contract: 0 the property holds / output produced,
1 the property is false, 2 malformed input, 3 underdetermined completion.
Machine output is UTF-8 JSON on stdout; diagnostics go to stderr. The
default tolerance is 1e-10 relative, overridable by SCHURLAB_TOL or --tol.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

from . import io
from .completion import COMPLETED, INCONSISTENT, complete_partial
from .core import Tolerance, operator_norm, require_square
from .errors import (
    DocumentFormatError,
    NotMultiplicativeError,
    PreconditionError,
    SchurError,
    ZeroEntryError,
)
from .groups import enumerate_real_positive
from .multiplicative import certify_multiplicative, schur_map_norm
from .star import certify_star_multiplicative
from .truncation import (
    CoefficientGenerator,
    scaling_generator,
    table_generator,
    toeplitz_generator,
    unboundedness_witness,
)
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_UNDERDETERMINED = 3


def _resolve_tolerance(args) -> Tolerance:
    rel = getattr(args, "tol", None)
    if rel is None:
        env = os.environ.get("SCHURLAB_TOL")
        if env is not None:
            rel = float(env)
    return Tolerance(rel=rel) if rel is not None else Tolerance()


def _fmt_complex(z: complex) -> str:
    return f"{z.real + 0.0:g}{z.imag + 0.0:+g}i"  # +0.0 folds away negative zeros


def _tolerance_line(tol: Tolerance) -> str:
    return f"tolerance: rel={tol.rel:g} abs={tol.abs:g}"


def _print_conditions(conditions) -> None:
    for name, r in conditions.items():
        res = f"{r.residual:.3e}" if math.isfinite(r.residual) else "n/a"
        state = "pass" if r.passed else "FAIL"
        print(f"  {name:<30} {state:<4}  residual {res}")


def _cmd_check(args, tol: Tolerance) -> int:
    matrix = io.load_matrix_file(args.path)
    require_square(matrix)
    try:
        cert = certify_multiplicative(matrix, tol, trials=args.trials, seed=args.seed)
    except PreconditionError as exc:
        print(f"multiplicative: no ({exc})", file=sys.stderr)
        return EXIT_FALSE

    star_cert = None
    star_reason = None
    try:
        star_cert = certify_star_multiplicative(matrix, tol)
    except PreconditionError as exc:
        star_reason = str(exc)

    star_verdict = star_cert.verdict if star_cert is not None else False
    ok = cert.verdict and (star_verdict if args.star else True)

    if args.json:
        payload = {
            "verdict": bool(ok),
            "multiplicative": cert.to_dict(),
            "star": star_cert.to_dict() if star_cert is not None
            else {"applicable": False, "reason": star_reason},
        }
        print(json.dumps(payload))
    else:
        print(_tolerance_line(tol))
        print(f"multiplicative: {'yes' if cert.verdict else 'no'}")
        _print_conditions(cert.conditions)
        if cert.witness is not None:
            i, j, k = cert.witness
            where = f"({i},{j},{k})" if k is not None else f"({i},{j},.)"
            print(f"  worst violation at {where}")
        if cert.inconsistent:
            print("  warning: equivalent conditions disagree (conditioning)")
        if star_cert is not None:
            print(f"star-preserving: {'yes' if star_cert.verdict else 'no'}")
            _print_conditions(star_cert.conditions)
        else:
            print(f"star-preserving: n/a ({star_reason})")
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_factor(args, tol: Tolerance) -> int:
    cert = certify_multiplicative(io.load_matrix_file(args.path), tol)
    if not cert.verdict or cert.scaling is None:
        failing = [name for name, r in cert.conditions.items() if not r.passed]
        print(f"not multiplicative; failing conditions: {', '.join(failing)}",
              file=sys.stderr)
        return EXIT_FALSE
    values = cert.scaling.values
    if args.json:
        print(json.dumps({
            "scaling": io.complex_cells(values),
            "tolerance": tol.to_dict(),
        }))
    else:
        print(_tolerance_line(tol))
        print("f = (" + ", ".join(_fmt_complex(v) for v in values) + ")")
        print("S_A(B) = diag(f) B diag(f)^{-1}")
    return EXIT_OK


def _cmd_complete(args, tol: Tolerance) -> int:
    report = complete_partial(io.load_partial_file(args.path), tol, star_preserving=args.star)
    if report.status == COMPLETED:
        print(io.dumps_document(io.matrix_to_document(report.matrix)))
        return EXIT_OK
    if report.status == INCONSISTENT:
        for v in report.violations:
            cycle = ",".join(str(x) for x in v.cycle)
            print(f"inconsistent cycle ({cycle}) residual {v.residual:.6e}",
                  file=sys.stderr)
        return EXIT_FALSE
    for comp in report.components:
        print("component {" + ",".join(str(x) for x in comp) + "}", file=sys.stderr)
    print("underdetermined: constraint graph is disconnected", file=sys.stderr)
    return EXIT_UNDERDETERMINED


def _cmd_enumerate(args, tol: Tolerance) -> int:
    members = enumerate_real_positive(args.n)
    docs = (io.dumps_document(io.matrix_to_document(m)) for m in members)
    if args.format == "array":
        print("[" + ",".join(docs) + "]")
    else:
        for doc in docs:
            print(doc)
    return EXIT_OK


def _cmd_norm(args, tol: Tolerance) -> int:
    matrix = io.load_matrix_file(args.path)
    require_square(matrix)
    op = operator_norm(matrix)
    map_norm = None
    try:
        map_norm = schur_map_norm(matrix, tol)
    except (NotMultiplicativeError, ZeroEntryError) as exc:
        reason = str(exc)
    if args.json:
        print(json.dumps({
            "operator_norm": op,
            "schur_map_norm": map_norm,
            "tolerance": tol.to_dict(),
        }))
    else:
        print(_tolerance_line(tol))
        print(f"operator_norm: {op:.17g}")
        if map_norm is not None:
            print(f"schur_map_norm: {map_norm:.17g}")
        else:
            print(f"schur_map_norm: n/a ({reason})")
    return EXIT_OK if map_norm is not None else EXIT_FALSE


def parse_generator_spec(spec: str) -> CoefficientGenerator:
    """Build a generator from toeplitz:<re>,<im>, scaling:<file>, table:<file>."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise DocumentFormatError(f"generator spec {spec!r} must look like kind:args")
    if kind == "toeplitz":
        parts = rest.split(",")
        if len(parts) != 2:
            raise DocumentFormatError("toeplitz spec needs two numbers: toeplitz:<re>,<im>")
        try:
            lam = complex(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise DocumentFormatError(f"bad toeplitz ratio: {rest!r}") from exc
        if not cmath.isfinite(lam):
            raise DocumentFormatError(f"toeplitz ratio must be finite, got {rest!r}")
        return toeplitz_generator(lam)
    if kind == "scaling":
        return scaling_generator(io.load_scaling_file(rest))
    if kind == "table":
        return table_generator(io.load_table_file(rest).data)
    raise DocumentFormatError(f"unknown generator kind {kind!r}")


def _cmd_witness(args, tol: Tolerance) -> int:
    gen = parse_generator_spec(args.gen)
    try:
        result = unboundedness_witness(gen, args.n, tol)
    except NotMultiplicativeError as exc:
        print(f"corner is not multiplicative: {exc}", file=sys.stderr)
        return EXIT_FALSE
    ok = result.lower_bound >= args.n - tol.threshold(float(args.n))
    if args.csv:
        print(f"{args.n},{result.lower_bound:.17g}")
    else:
        print(json.dumps({
            "generator": gen.label or args.gen,
            "n": args.n,
            "lower_bound": result.lower_bound,
            "x": io.complex_cells(result.x),
            "tolerance": tol.to_dict(),
        }))
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_verify(args, tol: Tolerance) -> int:
    report = run_suite(args.suite, trials=args.trials, seed=args.seed, tol=tol)
    payload = report.to_dict()
    payload["tolerance"] = tol.to_dict()
    print(json.dumps(payload))
    return EXIT_OK if report.ok else EXIT_FALSE


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 2, like any other malformed input
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schurlab",
        description="Certify, factor, enumerate and complete multiplicative Schur maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=None,
                       help="relative tolerance (default 1e-10 or SCHURLAB_TOL)")

    p = sub.add_parser("check", help="certify a matrix file")
    p.add_argument("path")
    add_tol(p)
    p.add_argument("--star", action="store_true",
                   help="require the star-preserving battery to pass as well")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trials", type=_positive_int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("factor", help="print the scaling vector of a multiplicative matrix")
    p.add_argument("path")
    add_tol(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("complete", help="fill in a partial matrix document")
    p.add_argument("path")
    add_tol(p)
    p.add_argument("--star", action="store_true",
                   help="star-preserving mode: entries unimodular, reciprocals implied")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("enumerate", help="list all real positive members of size n")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("jsonl", "array"), default="jsonl")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("norm", help="print operator norm and Schur-map norm")
    p.add_argument("path")
    add_tol(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("witness", help="norm lower bound witness for a generator corner")
    p.add_argument("n", type=int)
    p.add_argument("--gen", required=True,
                   help="toeplitz:<re>,<im> | scaling:<file> | table:<file>")
    add_tol(p)
    p.add_argument("--csv", action="store_true", help="emit an n,lower_bound row")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="run a seeded property suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_tol(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_INPUT
    try:
        tol = _resolve_tolerance(args)
    except ValueError as exc:
        print(f"error: bad tolerance: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args, tol)
    except (SchurError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
