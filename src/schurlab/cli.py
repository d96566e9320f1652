"""Command-line front end.

Each command returns ``(holds, output)`` or raises ``_Refusal``; ``main``
alone prints and maps the outcome to an exit code. ``output`` is a dict (one
JSON line), a line, a list of lines, or an iterator of text pieces carrying
their own newlines, which ``main`` writes as they come. Exit codes are part of the
contract: 0 the property holds / output produced, 1 the property is false,
2 malformed input, 3 underdetermined completion. Machine output is UTF-8 JSON
on stdout; diagnostics go to stderr, and are dropped where stderr is closed.
The default tolerance is 1e-10 relative, overridable by SCHURLAB_TOL or
--tol. A closed stdout, a broken pipe or a full disk met while writing is an
``OSError`` exit: one ``error:`` line and code 2.

A process started by ``entrypoint`` (the ``schurlab`` script, or ``python -m
schurlab.cli``) ends without interpreter teardown: once ``main`` returns, it
runs the registered atexit handlers, flushes stdout and stderr, and leaves by
``os._exit``, skipping the module and object cleanup that takes 15-25 ms once
numpy is loaded. Where a stream is None or its flush raises, it leaves by
``sys.exit`` instead, so the interpreter reports that failure as it always has.
"""

from __future__ import annotations

import argparse
import atexit
import cmath
import errno
import functools
import json
import math
import os
import sys

from . import _HOME, io
from .core import Tolerance, operator_norm, require_square
from .errors import (
    DocumentFormatError,
    NotMultiplicativeError,
    PreconditionError,
    SchurError,
    ZeroEntryError,
)

# Every other library name is resolved through the package's one name table,
# ``_HOME``, when a command first reaches it (``__getattr__``), so a request
# loads only the modules its subcommand runs. A bare name would skip
# ``__getattr__``, so commands reach those names through the module object; a
# replacement set on the module (a test's spy, a tracer's span) is the one called.
_cli = sys.modules[__name__]
# verify.SUITE_NAMES, copied so that building the parser loads no suite code
# (a test pins the two equal)
_SUITE_CHOICES = ("thm21", "thm24", "prop26", "group", "torus", "completion", "schatten", "extreme")


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_UNDERDETERMINED = 3


def _resolve_tolerance(args) -> Tolerance | None:
    """--tol, else SCHURLAB_TOL, else the default; None for a subcommand without --tol."""
    if not hasattr(args, "tol"):
        return None
    rel = args.tol
    if rel is None and "SCHURLAB_TOL" in os.environ:
        rel = float(os.environ["SCHURLAB_TOL"])
    return Tolerance(rel=rel) if rel is not None else Tolerance()


def _fmt_complex(z: complex) -> str:
    return f"{z.real + 0.0:g}{z.imag + 0.0:+g}i"  # +0.0 folds away negative zeros


def _tolerance_line(tol: Tolerance) -> str:
    return f"tolerance: rel={tol.rel:g} abs={tol.abs:g}"


def _battery_lines(title: str, cert):
    """The verdict line of a battery, then one line per condition."""
    yield f"{title}: {'yes' if cert.verdict else 'no'}"
    for name, r in cert.conditions.items():
        res = f"{r.residual:.3e}" if math.isfinite(r.residual) else "n/a"
        state = "pass" if r.passed else "FAIL"
        yield f"  {name:<30} {state:<4}  residual {res}"


class _Refusal(Exception):
    """A verdict reported on stderr alone: ``args`` are its lines, ``code`` its exit code."""

    def __init__(self, *lines: str, code: int = EXIT_FALSE):
        super().__init__(*lines)
        self.code = code


def _load_square(path: str):
    matrix = io.load_matrix_file(path)
    require_square(matrix)
    return matrix


def _battery(certify, *args, **kwargs):
    """``(certificate, None)``, or ``(None, reason)`` where its precondition fails."""
    try:
        return certify(*args, **kwargs), None
    except PreconditionError as exc:
        return None, str(exc)


def _battery_dict(cert, reason: str | None) -> dict:
    return cert.to_dict() if cert is not None else {"applicable": False, "reason": reason}


def _cmd_check(args, tol: Tolerance):
    matrix = _load_square(args.path)
    cert, reason = _battery(_cli.certify_multiplicative, matrix, tol, trials=args.trials, seed=args.seed)
    star_cert, star_reason = _battery(_cli.certify_star_multiplicative, matrix, tol)

    star_holds = star_cert is not None and star_cert.verdict
    holds = cert is not None and cert.verdict and (star_holds or not args.star)

    if args.json:
        return holds, {
            "verdict": bool(holds),
            "multiplicative": _battery_dict(cert, reason),
            "star": _battery_dict(star_cert, star_reason),
        }
    if cert is None:
        raise _Refusal(f"multiplicative: no ({reason})")
    lines = [_tolerance_line(tol), *_battery_lines("multiplicative", cert)]
    if cert.witness is not None:
        i, j, k = cert.witness
        where = f"({i},{j},{k})" if k is not None else f"({i},{j},.)"
        lines.append(f"  violation at {where}")
    if cert.inconsistent:
        lines.append("  warning: equivalent conditions disagree (conditioning)")
    if star_cert is not None:
        lines += _battery_lines("star-preserving", star_cert)
    else:
        lines.append(f"star-preserving: n/a ({star_reason})")
    return holds, lines


def _cmd_factor(args, tol: Tolerance):
    matrix = _load_square(args.path)
    try:
        values = _cli.factor_scaling(matrix, tol).values
    except (NotMultiplicativeError, ZeroEntryError) as exc:
        raise _Refusal(f"not multiplicative ({exc})") from exc
    if args.json:
        return True, {"scaling": io.complex_cells(values), "tolerance": tol.to_dict()}
    return True, [
        _tolerance_line(tol),
        "f = (" + ", ".join(_fmt_complex(v) for v in values) + ")",
        "S_A(B) = diag(f) B diag(f)^{-1}",
    ]


def _cmd_complete(args, tol: Tolerance):
    report = _cli.complete_partial(io.load_partial_file(args.path), tol, star_preserving=args.star)
    if report.status == _cli.COMPLETED:
        return True, io.dumps_document(io.matrix_to_document(report.matrix))
    if report.status == _cli.INCONSISTENT:
        raise _Refusal(*(
            f"inconsistent cycle ({','.join(str(x) for x in v.cycle)}) residual {v.residual:.6e}"
            for v in report.violations
        ))
    raise _Refusal(
        *("component {" + ",".join(str(x) for x in comp) + "}" for comp in report.components),
        "underdetermined: constraint graph is disconnected",
        code=EXIT_UNDERDETERMINED,
    )


def _json_array(members):
    """The one-line JSON array of the members' documents, a piece at a time."""
    yield "["
    for k, m in enumerate(members):
        yield ("," if k else "") + io.dumps_document(io.matrix_to_document(m))
    yield "]\n"


def _cmd_enumerate(args, tol: None):  # enumerate takes no tolerance
    members = _cli.enumerate_real_positive(args.n)
    if args.format == "array":
        return True, _json_array(members)
    return True, (io.dumps_document(io.matrix_to_document(m)) + "\n" for m in members)


def _cmd_norm(args, tol: Tolerance):
    matrix = _load_square(args.path)
    op = operator_norm(matrix)
    try:
        map_norm = _cli.schur_map_norm(matrix, tol)
    except (NotMultiplicativeError, ZeroEntryError) as exc:
        map_norm, reason = None, str(exc)
    holds = map_norm is not None
    if args.json:
        return holds, {
            "operator_norm": op,
            "schur_map_norm": map_norm,
            "tolerance": tol.to_dict(),
        }
    return holds, [
        _tolerance_line(tol),
        f"operator_norm: {op:.17g}",
        f"schur_map_norm: {map_norm:.17g}" if holds else f"schur_map_norm: n/a ({reason})",
    ]


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
        return _cli.toeplitz_generator(lam)
    if kind == "scaling":
        return _cli.scaling_generator(io.load_scaling_file(rest))
    if kind == "table":
        return _cli.table_generator(io.load_table_file(rest).data)
    raise DocumentFormatError(f"unknown generator kind {kind!r}")


def _cmd_witness(args, tol: Tolerance):
    gen = parse_generator_spec(args.gen)
    try:
        result = _cli.unboundedness_witness(gen, args.n, tol)
    except NotMultiplicativeError as exc:
        raise _Refusal(f"corner is not multiplicative: {exc}") from exc
    holds = result.lower_bound >= args.n - tol.threshold(float(args.n))
    if args.csv:
        return holds, f"{args.n},{result.lower_bound:.17g}"
    return holds, {
        "generator": gen.label or args.gen,
        "n": args.n,
        "lower_bound": result.lower_bound,
        "x": io.complex_cells(result.x),
        "tolerance": tol.to_dict(),
    }


def _cmd_verify(args, tol: Tolerance):
    report = _cli.run_suite(args.suite, trials=args.trials, seed=args.seed, tol=tol)
    return report.ok, {**report.to_dict(), "tolerance": tol.to_dict()}


def _int_from(low: int, kind: str):
    """An argparse type accepting integers >= ``low``, described as ``kind``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_from(1, "positive")
_seed = _int_from(0, "non-negative")  # numpy seeds must be non-negative


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 2, like any other malformed input
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schurlab",
        description="Certify, factor, enumerate and complete multiplicative Schur maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=None,
                       help="relative tolerance (default 1e-10 or SCHURLAB_TOL)")

    # A parent's arguments come first in --help, so witness and verify, which
    # list --tol after their own arguments, add it themselves.
    path_tol = argparse.ArgumentParser(add_help=False)
    path_tol.add_argument("path")
    add_tol(path_tol)
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="certify a matrix file", parents=[path_tol])
    p.add_argument("--star", action="store_true",
                   help="require the star-preserving battery to pass as well")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trials", type=_positive_int, default=8)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("factor", help="print the scaling vector of a multiplicative matrix",
                       parents=[path_tol, as_json])
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("complete", help="fill in a partial matrix document", parents=[path_tol])
    p.add_argument("--star", action="store_true",
                   help="star-preserving mode: entries unimodular, reciprocals implied")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("enumerate", help="list all real positive members of size n")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("jsonl", "array"), default="jsonl")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("norm", help="print operator norm and Schur-map norm",
                       parents=[path_tol, as_json])
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("witness", help="norm lower bound witness for a generator corner")
    p.add_argument("n", type=int)
    p.add_argument("--gen", required=True,
                   help="toeplitz:<re>,<im> | scaling:<file> | table:<file>")
    add_tol(p)
    p.add_argument("--csv", action="store_true", help="emit an n,lower_bound row")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="run a seeded property suite")
    p.add_argument("--suite", required=True, choices=_SUITE_CHOICES + ("all",))
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    add_tol(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command, print its output and map its outcome to an exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_INPUT
    try:
        tol = _resolve_tolerance(args)
    except ValueError as exc:
        _diagnose(f"error: bad tolerance: {exc}")
        return EXIT_INPUT
    try:
        holds, output = args.func(args, tol)
        if isinstance(output, dict):
            output = json.dumps(output)
        if isinstance(output, str):
            output = [output]
        if isinstance(output, list):
            output = (line + "\n" for line in output)
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, "standard output is closed")
        write = sys.stdout.write
        for text in output:
            write(text)
    except _Refusal as refusal:
        _diagnose(*refusal.args)
        return refusal.code
    except (SchurError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # a write cut short by the closing reader
            # leaves bytes in stdout's buffer that no flush can write: drop them,
            # or the final flush fails again and the process exits 120
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        _diagnose(f"error: {exc}")
        return EXIT_INPUT
    return EXIT_OK if holds else EXIT_FALSE


def _diagnose(*lines: str) -> None:
    """Write ``lines`` to stderr. Where fd 2 was closed when the interpreter
    started, ``sys.stderr`` is None and ``print`` would write them to stdout,
    so they are dropped: the exit code still carries the outcome."""
    if sys.stderr is not None:
        print(*lines, sep="\n", file=sys.stderr)


def entrypoint() -> None:
    """Run ``main`` and end the process with its exit code, without teardown."""
    code = main()
    atexit._run_exitfuncs()  # the interpreter's order: atexit handlers, then the streams
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # a stream None or closed, a broken pipe, a full disk
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
