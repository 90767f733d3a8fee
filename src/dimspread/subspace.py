"""Canonical subspaces of GF(p)^n and Grassmannian enumeration/sampling.

A subspace is stored as its reduced-row-echelon basis, so equality is a
plain comparison and sets of subspaces deduplicate for free.  Enumeration
order is fixed once and for all: pivot-column sets in lexicographic order
(one Schubert cell per set), then the free entries of the RREF basis in
lexicographic order, row-major.  Every "first counterexample" or "first
witness" promise downstream refers to this order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExceeded
from .gfp import FieldSpec, Matrix, _rref_dense, kernel_basis, rref

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "Subspace",
    "span_of",
    "apply_map",
    "kernel",
    "grassmann_count",
    "subspace_cells",
    "cell_subspaces",
    "enumerate_subspaces",
    "sample_subspace",
    "sample_with_rng",
]

DEFAULT_ENUMERATION_CAP = 10**8


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(p)^ambient, identified by its canonical RREF basis."""

    field: FieldSpec
    ambient: int
    basis: Matrix

    def __post_init__(self) -> None:
        b = self.basis
        if b.field != self.field:
            raise ValueError("basis field does not match")
        if b.cols != self.ambient:
            raise ValueError("basis width does not match the ambient dimension")
        _check_canonical_basis(b)

    @property
    def dim(self) -> int:
        return self.basis.rows

    @classmethod
    def zero(cls, field: FieldSpec, n: int) -> "Subspace":
        return cls(field, n, Matrix(field, 0, n, ()))

    @classmethod
    def full(cls, field: FieldSpec, n: int) -> "Subspace":
        return cls(field, n, Matrix.identity(field, n))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        stacked = Matrix(
            self.field,
            self.dim + other.dim,
            self.ambient,
            self.basis.entries + other.basis.entries,
        )
        return span_of(stacked)

    def __le__(self, other: "Subspace") -> bool:
        """Containment: self is a subspace of other.  Canonical bases make
        it an equality test."""
        return self + other == other

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient != other.ambient:
            raise ValueError("subspaces live in different spaces")


def _check_canonical_basis(b: Matrix) -> None:
    """Validate a full-row-rank RREF basis (cheap structural check)."""
    last = -1
    for i in range(b.rows):
        row = b.row(i)
        lead = None
        for j, x in enumerate(row):
            if x:
                lead = j
                break
        if lead is None:
            raise ValueError("basis contains a zero row")
        if lead <= last:
            raise ValueError("basis pivots are not strictly increasing")
        if row[lead] != 1:
            raise ValueError("basis pivot is not normalized to 1")
        if b.entries[lead::b.cols].count(0) != b.rows - 1:
            raise ValueError("basis pivot column is not clean")
        last = lead


# ----------------------------------------------------------------------
# constructions
# ----------------------------------------------------------------------


def span_of(vectors: Matrix) -> Subspace:
    """Canonical subspace spanned by the rows of `vectors`."""
    red = rref(vectors)
    basis = Matrix(
        vectors.field, red.rank, vectors.cols, red.matrix.entries[: red.rank * vectors.cols]
    )
    return Subspace(vectors.field, vectors.cols, basis)


def apply_map(m: Matrix, u: Subspace) -> Subspace:
    """Image subspace {m v : v in u}."""
    if m.field != u.field:
        raise ValueError("mixed fields")
    if m.cols != u.ambient:
        raise ValueError("map domain does not match the subspace's ambient space")
    # row i of basis @ m^T is m applied to basis vector i
    return span_of(u.basis @ m.transpose())


def kernel(m: Matrix) -> Subspace:
    """Canonical kernel subspace {v : m v = 0}."""
    return Subspace(m.field, m.cols, kernel_basis(m))


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


def grassmann_count(n: int, s: int, p: int) -> int:
    """Number of s-dimensional subspaces of GF(p)^n (Gaussian binomial)."""
    if not 0 <= s <= n:
        return 0
    num = 1
    den = 1
    for i in range(s):
        num *= p ** (n - i) - 1
        den *= p ** (s - i) - 1
    return num // den


def subspace_cells(n: int, s: int):
    """Schubert cells in canonical order: (pivots, free columns of each row).

    Row i of a cell's RREF basis has its pivot at pivots[i] and a free entry
    in every later column that is not a pivot.
    """
    for pivots in itertools.combinations(range(n), s):
        pivset = set(pivots)
        yield pivots, tuple(
            tuple(c for c in range(pivots[i] + 1, n) if c not in pivset) for i in range(s)
        )


def cell_subspaces(
    field: FieldSpec, n: int, pivots: tuple[int, ...], free: tuple[tuple[int, ...], ...]
) -> Iterator[Subspace]:
    """All subspaces of one Schubert cell, free entries lexicographic, row-major."""
    p = field.modulus
    s = len(pivots)
    base = [0] * (s * n)
    for i, c in enumerate(pivots):
        base[i * n + c] = 1
    slots = [i * n + c for i, cols in enumerate(free) for c in cols]
    for values in itertools.product(range(p), repeat=len(slots)):
        entries = list(base)
        for k, v in zip(slots, values):
            entries[k] = v
        yield Subspace(field, n, Matrix(field, s, n, tuple(entries)))


def enumerate_subspaces(
    n: int,
    s: int,
    field: FieldSpec,
    *,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[Subspace]:
    """All s-dimensional subspaces of GF(p)^n in canonical order.

    Raises BudgetExceeded up front when the Grassmannian is larger than the
    cap; there is never a silent truncation.
    """
    if not 0 <= s <= n:
        raise ValueError(f"dimension {s} is not between 0 and {n}")
    count = grassmann_count(n, s, field.modulus)
    if count > enumeration_cap:
        raise BudgetExceeded("subspace enumeration", count, enumeration_cap)

    def generate() -> Iterator[Subspace]:
        for pivots, free in subspace_cells(n, s):
            yield from cell_subspaces(field, n, pivots, free)

    return generate()


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


def sample_with_rng(n: int, s: int, field: FieldSpec, rng: random.Random, accept=None):
    """A uniform s-dimensional subspace, drawn from an existing RNG stream.

    Rejection sampling: each attempt draws an s x n matrix, row by row, all
    before the rank test; the first attempt of full row rank is the draw.
    Uniformity follows because every s-dimensional subspace has the same
    number of ordered bases.  Each entry is the value rng.randrange(p) gives
    on a `random.Random`, drawn as CPython draws it:
    rng.getrandbits(p.bit_length()), redrawn while it is p or more.  The
    values and the RNG state after each draw are those of randrange(p); the
    loop is inline to save randrange's three Python-level calls per entry.

    accept is the rank test: it takes an attempt's s rows, lists of
    residues it may change, and returns the draw, or None when the rows
    are dependent and the attempt is drawn again.  It must accept exactly
    the attempts of rank s, or the stream drifts from the protocol.  The
    default reduces the rows in place and returns them as `_rref_dense`
    leaves them: the canonical basis, neither validated nor built into a
    `Subspace` (`sample_subspace` builds one).  At s = 0 the first attempt
    draws nothing and is accepted.
    """
    if not 0 <= s <= n:
        raise ValueError(f"dimension {s} is not between 0 and {n}")
    p = field.modulus
    if accept is None:
        def accept(rows):
            rows, rank, _ = _rref_dense(rows, n, p)
            return rows if rank == s else None
    k = p.bit_length()
    getrandbits = rng.getrandbits
    while True:
        rows = []
        for _ in range(s):
            row = []
            for _ in range(n):
                x = getrandbits(k)
                while x >= p:
                    x = getrandbits(k)
                row.append(x)
            rows.append(row)
        draw = accept(rows)
        if draw is not None:
            return draw


def sample_subspace(n: int, s: int, field: FieldSpec, seed: int) -> Subspace:
    """Uniform s-dimensional subspace of GF(p)^n, deterministic in the seed:
    the validated `Subspace` of the rows `sample_with_rng` draws."""
    rows = sample_with_rng(n, s, field, random.Random(seed))
    return Subspace(field, n, Matrix(field, s, n, tuple(x for r in rows for x in r)))
