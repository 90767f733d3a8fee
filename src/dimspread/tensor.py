"""Order-3 tensors over prime fields, stored as stacks of matrix slices,
with exact rank computation.

The rank search walks combinations of projectively-normalized rank-one
matrices and asks whether r of them span every slice; the least such r is
the tensor rank.  The search is exhaustive over candidate classes, so both
answers it returns are certificates: a witness decomposition when the rank
is at most the cap, and a proof of "rank exceeds the cap" otherwise.  Once
the span of the chosen matrices and the slices is full (dimension r), the
rest of a branch is a basis completion in a linear matroid, which one
greedy pass settles in place of a walk over its combinations.  The
candidates of that pass are found by lookup: the pool's residues modulo
the slice span are keyed by line once per search, each node takes its keys
from its parent, re-keyed by one row when its pick grows the joint span,
and a node one dimension short walks only the picks that can still
complete.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceeded, DecompositionMismatch, SpanFailure
from .gfp import FieldSpec, Matrix, make_row_span, solve, vectors

__all__ = [
    "DEFAULT_POOL_CAP",
    "DEFAULT_STEP_CAP",
    "Tensor3",
    "RankOneTerm",
    "Decomposition",
    "slice_tensor",
    "eval_decomposition",
    "pool_size",
    "min_spanning_rank_ones",
    "reconstruct_decomposition",
    "tensor_rank",
]

DEFAULT_POOL_CAP = 10**4
DEFAULT_STEP_CAP = 10**8


@dataclass(frozen=True)
class Tensor3:
    """Dense order-3 tensor; entries row-major with the first index slowest."""

    field: FieldSpec
    d1: int
    d2: int
    d3: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if min(self.d1, self.d2, self.d3) < 1:
            raise ValueError("tensor dimensions must be positive")
        if len(self.entries) != self.d1 * self.d2 * self.d3:
            raise ValueError(
                f"expected {self.d1 * self.d2 * self.d3} entries, got {len(self.entries)}"
            )
        p = self.field.modulus
        for x in self.entries:
            if not isinstance(x, int) or not 0 <= x < p:
                raise ValueError(f"entry {x!r} is not a reduced residue mod {p}")

    @classmethod
    def zeros(cls, field: FieldSpec, d1: int, d2: int, d3: int) -> "Tensor3":
        return cls(field, d1, d2, d3, (0,) * (d1 * d2 * d3))

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.d1, self.d2, self.d3)

    def at(self, i: int, j: int, k: int) -> int:
        return self.entries[(i * self.d2 + j) * self.d3 + k]

    def slice(self, i: int) -> Matrix:
        """The i-th frontal slice T(i, *, *) as a d2 x d3 matrix."""
        block = self.d2 * self.d3
        return Matrix(self.field, self.d2, self.d3, self.entries[i * block : (i + 1) * block])

    def slices(self) -> tuple[Matrix, ...]:
        return tuple(self.slice(i) for i in range(self.d1))


def _slice_shape(slices: Sequence[Matrix], others: Sequence[Matrix] = ()):
    """(field, rows, cols) of the first slice, once every slice and every
    one of `others` is checked to share them."""
    if not slices:
        raise ValueError("need at least one slice")
    field, d2, d3 = slices[0].field, slices[0].rows, slices[0].cols
    for m in itertools.chain(slices, others):
        if m.field != field:
            raise ValueError("matrices over mixed fields")
        if (m.rows, m.cols) != (d2, d3):
            raise ValueError("matrices have inconsistent shapes")
    return field, d2, d3


def slice_tensor(slices: Sequence[Matrix]) -> Tensor3:
    """Stack matrices into a tensor whose i-th slice is slices[i]."""
    field, d2, d3 = _slice_shape(slices)
    entries = tuple(x for m in slices for x in m.entries)
    return Tensor3(field, len(slices), d2, d3, entries)


@dataclass(frozen=True)
class RankOneTerm:
    """One term f (x) g (x) h of a decomposition.

    Zero factor vectors are allowed; the evaluated term is then zero.
    """

    f: tuple[int, ...]
    g: tuple[int, ...]
    h: tuple[int, ...]


@dataclass(frozen=True)
class Decomposition:
    """A sum of rank-one terms evaluating to a d1 x d2 x d3 tensor."""

    field: FieldSpec
    dims: tuple[int, int, int]
    terms: tuple[RankOneTerm, ...]

    def __post_init__(self) -> None:
        d1, d2, d3 = self.dims
        if min(d1, d2, d3) < 1:
            raise ValueError("dimensions must be positive")
        p = self.field.modulus
        for term in self.terms:
            if (len(term.f), len(term.g), len(term.h)) != (d1, d2, d3):
                raise ValueError("term factor lengths do not match the dimensions")
            for x in term.f + term.g + term.h:
                if not isinstance(x, int) or not 0 <= x < p:
                    raise ValueError(f"factor entry {x!r} is not a reduced residue mod {p}")

    def __len__(self) -> int:
        return len(self.terms)


def eval_decomposition(dec: Decomposition) -> Tensor3:
    """Sum the rank-one terms into an explicit tensor."""
    d1, d2, d3 = dec.dims
    p = dec.field.modulus
    acc = [0] * (d1 * d2 * d3)
    for term in dec.terms:
        for i, fi in enumerate(term.f):
            if not fi:
                continue
            for j, gj in enumerate(term.g):
                if not gj:
                    continue
                c = fi * gj
                base = (i * d2 + j) * d3
                for k, hk in enumerate(term.h):
                    if hk:
                        acc[base + k] = (acc[base + k] + c * hk) % p
    return Tensor3(dec.field, d1, d2, d3, tuple(acc))


# ----------------------------------------------------------------------
# rank search
# ----------------------------------------------------------------------


def _proj_reps(p: int, k: int) -> list[tuple[int, ...]]:
    """Nonzero length-k vectors with first nonzero entry 1, in lex order.

    One representative per projective class; there are (p**k - 1)//(p - 1).
    """
    return [(0,) * z + (1,) + rest for z in reversed(range(k))
            for rest in itertools.product(range(p), repeat=k - z - 1)]


def pool_size(p: int, d2: int, d3: int) -> int:
    """Projective classes of rank-one d2 x d3 matrices over GF(p): the
    number of candidates the rank search walks."""
    return ((p**d2 - 1) // (p - 1)) * ((p**d3 - 1) // (p - 1))


def min_spanning_rank_ones(
    slices: Sequence[Matrix],
    r_max: int,
    *,
    pool_cap: int = DEFAULT_POOL_CAP,
    step_cap: int = DEFAULT_STEP_CAP,
) -> tuple[int, tuple[Matrix, ...]] | None:
    """Fewest rank-one matrices whose span contains every given slice.

    That count is exactly the rank of the stacked tensor.  Searches r from
    dim(span of slices) upward to r_max by iterative deepening; each level
    runs a depth-first walk over index-increasing combinations of candidate
    classes, skipping candidates dependent on the ones already chosen and
    pruning branches where dim(span(chosen) + span(slices)) exceeds r.  A
    branch that reaches depth r has succeeded: the chosen matrices are r
    independent vectors and the joint span was pruned to dimension at most
    r, so it coincides with their span.

    At a node whose joint span already has dimension r, any later pick
    outside it would be pruned, so the remaining picks are candidates in
    the joint span, independent of the chosen ones: a basis completion in
    the linear matroid of those candidates with the chosen ones contracted.
    A greedy pass in index order finds a completion exactly when one exists,
    and the one it finds is the lexicographically first, which is the one
    the walk over combinations would reach first.  So such a node takes one
    pass instead of a walk over up to C(pool, r - depth) combinations, and
    the witness is unchanged.

    The pass needs the pool indices inside the joint span.  A node whose
    joint span J has dimension r - 1 groups the later indices by the line
    of their residue modulo J (`line_keys`: the residue itself over GF(2),
    scaled to a unit first entry over odd p).  A pick v outside J makes
    J + <v> full, and w lies in it exactly when w's residue is zero or on
    v's line; so the pass walks the indices after v with key 0 or key(v),
    merged in index order, and makes no membership test.  Every node keys
    its pool the same way, from its parent: the root's keys are the slice
    span's, reduced and keyed once per search; a pick with key 0 leaves J
    unchanged, so its child shares the keys (and at r - 1 the table); any
    other pick inserts one row into J, by which alone `line_keys` re-keys
    the later indices.

    No set of pool vectors inside J spans J, since r - 1 of them would span
    the slices and the search at r - 1 would have returned them.  So a
    completion after a pick v outside J holds a second vector outside J,
    which lies on v's line: a pick that is the last index of its line
    cannot complete, and the walk skips it.  It makes no add, so it counts
    no step, and the first completion in index order is unchanged.

    Every add to the span of the chosen matrices counts as one step against
    step_cap, in the order the walk over combinations would make them, less
    the adds of the skipped picks and of the completions they would start.

    Returns (r, witness matrices), or None once the search has certified
    that the rank exceeds r_max.
    """
    field, d2, d3 = _slice_shape(slices)
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    p = field.modulus

    vec = vectors(p)
    pack, unpack = vec.pack, vec.unpack
    base = make_row_span(p)
    for m in slices:
        base.add(pack(m.entries))
    r0 = base.dim
    if r0 == 0:
        return (0, ())
    if r0 > r_max:
        return None

    # Sized before any representative is built: building them walks p**d vectors.
    pool_n = pool_size(p, d2, d3)
    if pool_n > pool_cap:
        raise BudgetExceeded("rank-one candidate pool", pool_n, pool_cap)
    # g h^T is the image of g under the map whose row j is h placed in row j
    # of a d2 x d3 matrix: one image function per h class.
    outers = [vec.images([pack((0,) * (j * d3) + h) for j in range(d2)])
              for h in _proj_reps(p, d3)]
    pool_vecs = [outer(g) for g in map(pack, _proj_reps(p, d2)) for outer in outers]

    # The pool is keyed modulo the slice span once; every attempt reads it.
    root_keys = base.line_keys(0, map(base.reduce, pool_vecs))
    steps = 0

    def attempt(r: int) -> tuple[int, ...] | None:
        nonlocal steps
        cur = make_row_span(p)
        joint = base.copy()
        chosen: list[int] = []

        def complete(cands) -> bool:
            # span(chosen) + span(slices) has dimension r and cands are the
            # remaining pool indices inside it, ascending: the remaining picks
            # are a basis completion of cur among them, and the greedy pass by
            # index finds the first.  A pick remains: from the root none is
            # made, and from `close` depth <= r - 2 before its pick.
            nonlocal steps
            need = r - len(chosen)
            toks = []
            for i in cands:
                if pool_n - i < need:
                    break
                steps += 1
                if steps > step_cap:
                    raise BudgetExceeded("rank search", steps, step_cap)
                tok = cur.add(pool_vecs[i])
                if tok is None:
                    continue
                chosen.append(i)
                toks.append(tok)
                need -= 1
                if not need:
                    return True
            for tok in reversed(toks):
                cur.remove(tok)
            del chosen[len(chosen) - len(toks):]
            return False

        def table(start: int, keys: list) -> tuple:
            # joint.dim == r - 1 and keys[j - start], for j >= start, is pool
            # j's line key modulo joint.  A pick i raises joint to r exactly
            # when its key is nonzero, and then a later index j lies in the new
            # joint span exactly when key j is 0 or equals key i.  `walk` lists
            # the indices that can start a completion (see `close`): key 0, or
            # a later index on the same line; `lines` holds each line of two
            # or more indices.
            idx = range(start, pool_n)
            ends = dict(zip(keys, idx))  # the last index of each key
            walk = [j for j, k in zip(idx, keys) if not k or ends[k] != j]
            zeros: list[int] = []
            lines: dict = {}
            for j in walk:
                k = keys[j - start]
                if k:
                    lines.setdefault(k, []).append(j)
                else:
                    zeros.append(j)
            for k, line in lines.items():
                line.append(ends[k])
            return start, keys, zeros, lines, walk

        def close(start: int, tab) -> bool:
            # A node with joint.dim == r - 1, where a pick outside joint makes
            # it full and hands the rest of the branch to `complete`.  No pool
            # vectors inside joint span it (r - 1 of them would span the
            # slices, and attempt(r - 1) would have returned them), so depth
            # <= r - 2, and a pick that ends its line cannot complete: it is
            # not walked.
            nonlocal steps
            first, keys, zeros, lines, walk = tab
            last = pool_n - (r - len(chosen)) + 1
            for i in walk[bisect_left(walk, start):bisect_left(walk, last)]:
                steps += 1
                if steps > step_cap:
                    raise BudgetExceeded("rank search", steps, step_cap)
                tok_c = cur.add(pool_vecs[i])
                if tok_c is None:
                    continue
                chosen.append(i)
                k = keys[i - first]
                if k:
                    line = lines[k]
                    cands = sorted(zeros[bisect_right(zeros, i):]
                                   + line[bisect_right(line, i):])
                    if complete(cands):
                        return True
                elif close(i + 1, tab):
                    return True
                chosen.pop()
                cur.remove(tok_c)
            return False

        def node(start: int, off: int, keys: list) -> bool:
            # keys[j - off], for j >= start, is pool j's line key modulo joint.
            # Below r - 1 a pick with key 0 leaves joint unchanged and shares
            # the keys; any other pick joins joint, and its child re-keys the
            # later indices by that one row.
            nonlocal steps
            if joint.dim == r:
                return complete(j for j in range(start, pool_n) if not keys[j - off])
            if joint.dim == r - 1:
                return close(start, table(off, keys))
            for i in range(start, pool_n - (r - len(chosen)) + 1):
                steps += 1
                if steps > step_cap:
                    raise BudgetExceeded("rank search", steps, step_cap)
                v = pool_vecs[i]
                tok_c = cur.add(v)
                if tok_c is None:
                    continue
                chosen.append(i)
                if keys[i - off]:
                    tok_j = joint.add(v)
                    found = node(i + 1, i + 1, joint.line_keys(tok_j, keys[i + 1 - off:]))
                    joint.remove(tok_j)
                else:
                    found = node(i + 1, off, keys)
                if found:
                    return True
                chosen.pop()
                cur.remove(tok_c)
            return False

        return tuple(chosen) if node(0, 0, root_keys) else None

    for r in range(r0, r_max + 1):
        hit = attempt(r)
        if hit is not None:
            witness = tuple(Matrix(field, d2, d3, unpack(pool_vecs[i], d2 * d3)) for i in hit)
            return (r, witness)
    return None


def _rank_one_factors(m: Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a nonzero rank-one matrix into column and row factors."""
    p = m.field.modulus
    j0 = k0 = None
    for j in range(m.rows):
        for k in range(m.cols):
            if m.at(j, k):
                j0, k0 = j, k
                break
        if j0 is not None:
            break
    if j0 is None:
        raise ValueError("zero matrix has no rank-one factorization")
    g = tuple(m.at(j, k0) for j in range(m.rows))
    inv = m.field.inv(m.at(j0, k0))
    h = tuple((m.at(j0, k) * inv) % p for k in range(m.cols))
    for j in range(m.rows):
        for k in range(m.cols):
            if m.at(j, k) != (g[j] * h[k]) % p:
                raise ValueError("matrix has rank greater than one")
    return g, h


def reconstruct_decomposition(
    slices: Sequence[Matrix], rank_ones: Sequence[Matrix]
) -> Decomposition:
    """Express each slice over the given rank-one matrices.

    Solves one linear system per slice (all at once) for the coefficient
    vectors, then reads the factors off the matrices.  Raises SpanFailure
    if some slice is outside the span, and ValueError unless every slice
    and rank-one matrix has one field and one shape.
    """
    field, d2, d3 = _slice_shape(slices, rank_ones)
    d1 = len(slices)
    factors = [_rank_one_factors(e) for e in rank_ones]
    cols = Matrix.from_rows(field, [e.entries for e in rank_ones], cols=d2 * d3).transpose()
    targets = Matrix.from_rows(field, [m.entries for m in slices], cols=d2 * d3).transpose()
    coeffs = solve(cols, targets)
    if coeffs is None:
        raise SpanFailure("a slice lies outside the span of the rank-one matrices")
    terms = tuple(
        RankOneTerm(coeffs.row(idx), g, h) for idx, (g, h) in enumerate(factors)
    )
    return Decomposition(field, (d1, d2, d3), terms)


def tensor_rank(
    t: Tensor3,
    r_max: int,
    *,
    pool_cap: int = DEFAULT_POOL_CAP,
    step_cap: int = DEFAULT_STEP_CAP,
) -> tuple[int, Decomposition] | None:
    """Exact rank of t with a witness decomposition, or None if it exceeds r_max.

    None is itself a certificate: the underlying search is exhaustive, so
    rank(t) > r_max is proven, not suspected.
    """
    slices = t.slices()
    found = min_spanning_rank_ones(slices, r_max, pool_cap=pool_cap, step_cap=step_cap)
    if found is None:
        return None
    r, witness = found
    dec = reconstruct_decomposition(slices, witness)
    if eval_decomposition(dec) != t:
        raise DecompositionMismatch(
            "internal error: reconstructed decomposition does not reproduce the tensor"
        )
    return (r, dec)
