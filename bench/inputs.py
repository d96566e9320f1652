"""Seeded inputs with their ground truth, and the benchmark's own document writer.

Everything here depends only on numpy and the seed, never on ``schurlab``, so
the truth labels cannot inherit a defect of the program under test.

* Multiplicative matrices are a_ij = f(i)/f(j). ``unimodular`` draws
  |f(i)| = 1 (star-preserving); ``mixed`` draws log|f(i)| uniform on
  [-LOG_MODULUS, LOG_MODULUS] (multiplicative, not star-preserving).
* ``perturbed`` copies multiply one off-diagonal entry by (1 + d e^{i phi})
  with d log-uniform on PERTURBATION, which breaks the ratio identity while
  keeping the unit diagonal: neither multiplicative nor star-preserving.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

LOG_MODULUS = 1.0
PERTURBATION = (1e-6, 1e-3)
KINDS = ("unimodular", "mixed", "perturbed")

COMPLETED = "completed"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


def document_text(a: np.ndarray) -> str:
    """Canonical {"rows","cols","data"} JSON with [re, im] cells, compact separators."""
    rows, cols = a.shape
    data = [[[x, y] for x, y in zip(rr, ir)] for rr, ir in zip(a.real.tolist(), a.imag.tolist())]
    return json.dumps({"rows": rows, "cols": cols, "data": data}, separators=(",", ":"))


def write_document(path, a: np.ndarray) -> int:
    """Write ``a`` as a canonical document; returns the byte count."""
    text = document_text(a)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text)


def scaling(rng: np.random.Generator, n: int, unimodular: bool) -> np.ndarray:
    phase = np.exp(2j * np.pi * rng.random(n))
    if unimodular:
        return phase
    return np.exp(rng.uniform(-LOG_MODULUS, LOG_MODULUS, n)) * phase


def perturbation(rng: np.random.Generator) -> complex:
    lo, hi = PERTURBATION
    d = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return 1.0 + d * complex(np.exp(2j * np.pi * rng.random()))


@dataclass(frozen=True)
class MatrixCase:
    """A square input and its truth. ``f`` is set exactly when it is multiplicative."""

    kind: str
    matrix: np.ndarray
    f: np.ndarray | None

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def multiplicative(self) -> bool:
        return self.f is not None

    @property
    def star(self) -> bool:
        return self.kind == "unimodular"

    @property
    def label(self) -> str:
        return f"{self.kind} n={self.n}"


def matrix_case(rng: np.random.Generator, n: int, kind: str) -> MatrixCase:
    if kind not in KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    unimodular = kind == "unimodular" or (kind == "perturbed" and rng.random() < 0.5)
    f = scaling(rng, n, unimodular)
    a = np.outer(f, 1.0 / f)
    np.fill_diagonal(a, 1.0)
    if kind != "perturbed":
        return MatrixCase(kind, a, f)
    if n < 2:
        raise ValueError("a perturbed copy needs an off-diagonal entry")
    i, j = rng.choice(n, size=2, replace=False)
    a[i, j] *= perturbation(rng)
    return MatrixCase(kind, a, None)


def toeplitz_ratio(rng: np.random.Generator, n: int) -> complex:
    """lambda with |lambda|^(n-1) in [1/e, e], so corner entries stay moderate."""
    log_mod = rng.uniform(-1.0, 1.0) / max(n - 1, 1)
    return complex(np.exp(log_mod + 2j * np.pi * rng.random()))


def toeplitz_spec(lam: complex) -> str:
    return f"toeplitz:{lam.real!r},{lam.imag!r}"


def log_uniform_sizes(rng: np.random.Generator, count: int, lo: int, hi: int) -> list[int]:
    """Stratified log-uniform sizes in [lo, hi], shuffled.

    One draw per stratum keeps the size mix nearly identical from seed to
    seed, so run-to-run spread reflects the program and not the sample.
    """
    u = (np.arange(count) + rng.random(count)) / count
    sizes = np.rint(np.exp(np.log(lo - 0.5) + u * (np.log(hi + 0.5) - np.log(lo - 0.5))))
    sizes = np.clip(sizes, lo, hi).astype(int)
    rng.shuffle(sizes)
    return [int(s) for s in sizes]


@dataclass(frozen=True)
class PartialCase:
    """A partial matrix, its truth and the status ``complete_partial`` must report."""

    mask_kind: str
    data_kind: str
    entries: np.ndarray
    mask: np.ndarray
    truth: np.ndarray
    status: str

    @property
    def n(self) -> int:
        return int(self.mask.shape[0])

    @property
    def label(self) -> str:
        return f"{self.mask_kind}/{self.data_kind} n={self.n}"


MASKS = ("chain", "tree", "dense")
PARTIAL_DATA = ("consistent", "perturbed_cycle", "disconnected")


def _tree_edges(rng: np.random.Generator, n: int, mask_kind: str) -> list[tuple[int, int]]:
    if mask_kind == "chain":
        return [(k, k + 1) for k in range(n - 1)]
    return [(int(rng.integers(0, k)), k) for k in range(1, n)]


def partial_case(rng: np.random.Generator, n: int, mask_kind: str, data_kind: str) -> PartialCase:
    """Specified entries on a chain, random tree or dense mask.

    ``perturbed_cycle`` perturbs one entry that closes a cycle, so the data is
    inconsistent; ``disconnected`` removes an edge (chain, tree) or splits the
    dense mask into two blocks, so the completion is underdetermined.
    """
    f = scaling(rng, n, unimodular=bool(rng.random() < 0.5))
    truth = np.outer(f, 1.0 / f)
    np.fill_diagonal(truth, 1.0)
    mask = np.zeros((n, n), dtype=bool)
    if mask_kind == "dense":
        mask[:] = True
        if data_kind == "disconnected":
            cut = int(rng.integers(1, n))
            mask[:cut, cut:] = False
            mask[cut:, :cut] = False
    else:
        edges = _tree_edges(rng, n, mask_kind)
        if data_kind == "disconnected":
            edges.pop(int(rng.integers(0, len(edges))))
        for i, j in edges:
            if rng.random() < 0.5:
                i, j = j, i
            mask[i, j] = True
    entries = np.where(mask, truth, 0.0)
    status = {"consistent": COMPLETED, "disconnected": UNDERDETERMINED}.get(data_kind)
    if data_kind == "perturbed_cycle":
        status = INCONSISTENT
        off = ~mask & ~np.eye(n, dtype=bool)
        if mask_kind != "dense" and off.any():
            # a chord closes a cycle with the tree (for n = 2, the transposed entry)
            i, j = (int(v) for v in np.argwhere(off)[int(rng.integers(0, int(off.sum())))])
            mask[i, j] = True
        else:
            i, j = rng.choice(n, size=2, replace=False)
        entries[i, j] = truth[i, j] * perturbation(rng)
    if status is None:
        raise ValueError(f"unknown partial data kind {data_kind!r}")
    return PartialCase(mask_kind, data_kind, entries, mask, truth, status)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
