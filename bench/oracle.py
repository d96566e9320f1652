"""Ground-truth checks of the program's outputs.

Each ``check_*`` function returns None when the output is right and a one-line
reason when it is not. A reason is a failed request: it is counted and listed,
never dropped.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from inputs import MatrixCase

REL_TOL = 1e-10  # the CLI's default relative tolerance
REBUILD_TOL = 1e-9  # max |f(i)/f(j) - a_ij| / max |a| accepted for a scaling vector


def _payload(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError:
        return None, f"stdout is not one JSON document: {stdout[:80]!r}"


def _vector(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    return arr[:, 0] + 1j * arr[:, 1]


def rebuild_error(f, a: np.ndarray) -> float:
    """How far outer(f, 1/f) is from ``a``, relative to max |a|."""
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (a.shape[0],) or not np.all(np.isfinite(f)) or np.any(f == 0):
        return float("inf")
    return float(np.abs(np.outer(f, 1.0 / f) - a).max() / np.abs(a).max())


def check_scaling(f, case: MatrixCase) -> str | None:
    err = rebuild_error(f, case.matrix)
    if not err <= REBUILD_TOL:
        return f"scaling vector does not rebuild the matrix (error {err:.3e})"
    return None


def check_check(case: MatrixCase, code: int, stdout: str) -> str | None:
    """``check <doc> --star --json``: verdicts, exit code and the certificate's scaling."""
    want = 0 if case.multiplicative and case.star else 1
    if code != want:
        return f"exit code {code}, expected {want}"
    payload, err = _payload(stdout)
    if err:
        return err
    try:
        mult = payload["multiplicative"]["verdict"]
        star = payload["star"].get("verdict", False)
        verdict = payload["verdict"]
        scaling = payload["multiplicative"]["scaling"]
    except (KeyError, TypeError, AttributeError) as exc:
        return f"payload lacks {exc}"
    if mult is not case.multiplicative:
        return f"multiplicative verdict {mult}, truth {case.multiplicative}"
    if star is not case.star:
        return f"star verdict {star}, truth {case.star}"
    if verdict is not (case.multiplicative and case.star):
        return f"overall verdict {verdict}, truth {case.multiplicative and case.star}"
    if case.multiplicative:
        if scaling is None:
            return "multiplicative certificate carries no scaling vector"
        return check_scaling(_vector(scaling), case)
    return None


def check_factor(case: MatrixCase, code: int, stdout: str) -> str | None:
    """``factor <doc> --json``: exit 0 with f(i)/f(j) rebuilding the input, or exit 1."""
    if not case.multiplicative:
        if code != 1:
            return f"exit code {code}, expected 1 (not multiplicative)"
        return f"unexpected stdout {stdout[:80]!r}" if stdout.strip() else None
    if code != 0:
        return f"exit code {code}, expected 0"
    payload, err = _payload(stdout)
    if err:
        return err
    if not isinstance(payload, dict) or "scaling" not in payload:
        return "payload lacks 'scaling'"
    return check_scaling(_vector(payload["scaling"]), case)


def check_witness_bound(n: int, lower_bound, x) -> str | None:
    if not isinstance(lower_bound, (int, float)) or not lower_bound >= n - REL_TOL * n:
        return f"lower bound {lower_bound!r} below n - tol = {n - REL_TOL * n!r}"
    x = np.asarray(x)
    if x.shape != (n,) or not abs(float(np.linalg.norm(x)) - 1.0) <= 1e-9:
        return "witness vector is not a unit vector of length n"
    return None


def check_witness(n: int, code: int, stdout: str) -> str | None:
    """``witness n --gen toeplitz:..``: exit 0 and lower_bound >= n - tol."""
    if code != 0:
        return f"exit code {code}, expected 0"
    payload, err = _payload(stdout)
    if err:
        return err
    try:
        if payload["n"] != n:
            return f"payload n {payload['n']!r}, expected {n}"
        return check_witness_bound(n, payload["lower_bound"], _vector(payload["x"]))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed witness payload ({exc!r})"


def check_stderr(stderr: str) -> str | None:
    if "Traceback (most recent call last)" not in stderr:
        return None
    return "traceback on stderr: " + stderr.strip().splitlines()[-1][:160]


def sign_pattern(n: int, index: int) -> list[int]:
    """Binary-counter order: bit 0 is +1, s_1 = +1, the leftmost sign is the top bit."""
    width = n - 1
    return [1] + [-1 if (index >> (width - 1 - k)) & 1 else 1 for k in range(width)]


_CELL = {1: json.dumps([1.0, 0.0], separators=(",", ":")),
         -1: json.dumps([-1.0, 0.0], separators=(",", ":"))}


def expected_line(n: int, index: int) -> bytes:
    """The canonical document of s s^T for the index's sign pattern."""
    s = sign_pattern(n, index)
    pos = "[" + ",".join(_CELL[v] for v in s) + "]"
    neg = "[" + ",".join(_CELL[-v] for v in s) + "]"
    rows = ",".join(pos if v == 1 else neg for v in s)
    return f'{{"rows":{n},"cols":{n},"data":[{rows}]}}'.encode()


class EnumerateOracle:
    """Checks an ``enumerate n`` jsonl stream: 2^(n-1) lines, line k the pattern of
    index k, and the sha256 of the whole stream equal to the canonical one."""

    def __init__(self):
        self._digests: dict[int, str] = {}

    def digest(self, n: int) -> str:
        if n not in self._digests:
            h = hashlib.sha256()
            for idx in range(1 << (n - 1)):
                h.update(expected_line(n, idx) + b"\n")
            self._digests[n] = h.hexdigest()
        return self._digests[n]

    def check(self, n: int, code: int, stdout: bytes) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        if hashlib.sha256(stdout).hexdigest() == self.digest(n):
            return None
        return self.diagnose(n, stdout)

    def diagnose(self, n: int, stdout: bytes) -> str:
        lines = stdout.split(b"\n")
        if lines[-1] != b"":
            return "stream does not end with a newline (truncated)"
        lines.pop()
        for idx, line in enumerate(lines):
            if idx >= 1 << (n - 1):
                break
            if line == expected_line(n, idx):
                continue
            found = pattern_index(n, line)
            if found is None:
                return f"line {idx} is not the +-1 pattern of its index"
            return f"line {idx} holds the pattern of index {found} (reordered)"
        want = 1 << (n - 1)
        if len(lines) != want:
            return f"{len(lines)} lines, expected {want}"
        return "stream digest differs from the canonical stream"


def pattern_index(n: int, line: bytes) -> int | None:
    """Index of the sign pattern a line's document holds, or None if it holds none."""
    try:
        doc = json.loads(line)
        data = np.asarray(doc["data"], dtype=np.float64)
    except (ValueError, KeyError, TypeError):
        return None
    if data.shape != (n, n, 2) or np.any(data[:, :, 1] != 0):
        return None
    s = data[0, :, 0]
    if np.any(np.abs(s) != 1) or s[0] != 1 or not np.array_equal(data[:, :, 0], np.outer(s, s)):
        return None
    return int("".join("1" if v < 0 else "0" for v in s[1:]) or "0", 2)
