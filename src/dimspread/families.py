"""Families of linear maps on GF(p)^n: symmetrization, word powers, monotone
matching maps, and exhaustive or sampled verification of dimension expansion
and dimension spreading.

All verdicts are exact.  Exhaustive runs enumerate Grassmannians in the
canonical order defined in `subspace`; sampled runs draw from a seeded RNG
and are reproducible from (seed, count) alone.  A sampled counterexample is
conclusive; a sampled "verified" only means no counterexample was found and
is flagged as non-conclusive.

Exhaustive scans walk each Grassmannian one Schubert cell at a time on
packed basis rows (`_cell_scan`).  The span of the images of rows 0..s-2
is built once per prefix of free values and shared by every subspace that
extends it; each subspace then adds only the images of its last row, read
from per-map lookup tables of at most `_TABLE_CAP` entries (a longer last
row moves its leading free entries into the prefix).  Adding stops as soon
as the span reaches what the caller needs: the threshold when verifying,
the least value found so far when measuring, n for the large-subspace
records.  A `Subspace` is built only for the counterexample or witness
reported, which is the same canonical first one a subspace-by-subspace walk
finds.

Every scan runs in one thread.  The verifiers still accept `threads=` for
compatibility; it changes nothing.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceeded, ClosureViolation, MonotonicityViolation
# Gf2RowSpan and cell_subspaces are unused here, but bench/tracing.py patches
# families.Gf2RowSpan and families.cell_subspaces.
from .gfp import FieldSpec, Gf2RowSpan, Matrix, make_row_span, vectors
from .subspace import (
    DEFAULT_ENUMERATION_CAP,
    Subspace,
    cell_subspaces,
    grassmann_count,
    sample_with_rng,
    subspace_cells,
)

__all__ = [
    "DEFAULT_WORD_CAP",
    "MapFamily",
    "SpreadingParams",
    "Matching",
    "SpreadingResult",
    "ExpansionReport",
    "LargeExpansionRecord",
    "LargeExpansionResult",
    "symmetrize",
    "words",
    "word_length_for",
    "matching_maps",
    "shift_matchings",
    "dyadic_matchings",
    "verify_spreading",
    "verify_expander",
    "measure_expansion",
    "verify_large_expansion",
    "spreading_profile",
]

DEFAULT_WORD_CAP = 10**6


@dataclass(frozen=True)
class MapFamily:
    """A finite ordered family of linear maps GF(p)^n -> GF(p)^n."""

    field: FieldSpec
    n: int
    maps: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ambient dimension must be at least 1")
        if len(self.maps) < 1:
            raise ValueError("a family holds at least one map")
        for m in self.maps:
            if m.field != self.field:
                raise ValueError("map field does not match the family")
            if (m.rows, m.cols) != (self.n, self.n):
                raise ValueError("maps must be square of size n")

    def __len__(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class SpreadingParams:
    """Spreading thresholds: every subspace of dim >= s must reach image-sum
    dimension >= t."""

    s: int
    t: int

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("s must be at least 1")
        if self.t < 0:
            raise ValueError("t must be non-negative")


@dataclass(frozen=True)
class SpreadingResult:
    """Outcome of a spreading or expander verification."""

    verified: bool
    exhaustive: bool
    counterexample: Subspace | None = None
    achieved: int | None = None
    samples: int | None = None
    seed: int | None = None

    @property
    def conclusive(self) -> bool:
        """Counterexamples are always conclusive; 'verified' only when exhaustive."""
        return self.exhaustive or not self.verified


@dataclass(frozen=True)
class ExpansionReport:
    """Exact expansion profile over dimensions 1..floor(n/2)."""

    tau_star: Fraction
    witness: Subspace
    per_dimension: tuple[tuple[int, int], ...]  # (dim, min image-sum dim)
    exhaustive: bool


@dataclass(frozen=True)
class LargeExpansionRecord:
    """Achieved growth of one subspace above half dimension."""

    dim: int
    image_sum_dim: int
    delta: Fraction  # image_sum_dim/dim - 1
    sharper_bound: Fraction  # tau*(1-alpha) / ((1+tau)*alpha)
    meets_sharper: bool


@dataclass(frozen=True)
class LargeExpansionResult:
    verified: bool
    counterexample: Subspace | None
    achieved: int | None
    records: tuple[LargeExpansionRecord, ...]


# ----------------------------------------------------------------------
# family constructions
# ----------------------------------------------------------------------


def symmetrize(fam: MapFamily) -> MapFamily:
    """Extend with every transpose and the identity; dedupe, keep order.

    Originals come first (first occurrence kept), then new transposes in the
    order of their originals, then the identity if it is still missing.
    """
    out: list[Matrix] = []
    seen: set[Matrix] = set()
    for m in fam.maps:
        if m not in seen:
            seen.add(m)
            out.append(m)
    for m in fam.maps:
        t = m.transpose()
        if t not in seen:
            seen.add(t)
            out.append(t)
    ident = Matrix.identity(fam.field, fam.n)
    if ident not in seen:
        out.append(ident)
    return MapFamily(fam.field, fam.n, tuple(out))


def words(fam: MapFamily, t: int, *, word_cap: int = DEFAULT_WORD_CAP) -> MapFamily:
    """All products of exactly t maps from the family, deduplicated.

    Order is canonical: lexicographic in the index word (i1, ..., it), first
    occurrence kept.  Duplicate prefixes are collapsed level by level, which
    provably preserves that order.  The budget applies to the nominal D**t
    product count, before deduplication.
    """
    if t < 1:
        raise ValueError("word length must be at least 1")
    d = len(fam.maps)
    nominal = d**t
    if nominal > word_cap:
        raise BudgetExceeded("word expansion", nominal, word_cap)
    vec = vectors(fam.field.modulus)
    pack, combine = vec.pack, vec.combine
    n = fam.n
    mats = [tuple(pack(m.row(i)) for i in range(n)) for m in fam.maps]
    level = list(dict.fromkeys(mats))
    for _ in range(t - 1):
        level = list(dict.fromkeys(
            tuple(combine(r, b) for r in a) for a in level for b in mats
        ))
    return MapFamily(fam.field, n, tuple(
        Matrix(fam.field, n, n, tuple(x for r in m for x in vec.unpack(r, n)))
        for m in level
    ))


def word_length_for(epsilon, tau) -> int:
    """Least word length t with t > 3*log2(1/epsilon)/tau, computed exactly.

    The comparison is done in integer arithmetic (2**(t*a) * eN**(3*b) >
    eD**(3*b) for tau = a/b, epsilon = eN/eD), so boundary cases where the
    bound is an integer round the right way: the inequality is strict.
    """
    eps = Fraction(epsilon)
    tau = Fraction(tau)
    if not 0 < eps < 1:
        raise ValueError("epsilon must satisfy 0 < epsilon < 1")
    if tau <= 0:
        raise ValueError("tau must be positive")
    en, ed = eps.numerator, eps.denominator
    a, b = tau.numerator, tau.denominator
    rhs = ed ** (3 * b)
    scale = en ** (3 * b)

    def ok(t: int) -> bool:
        return (1 << (t * a)) * scale > rhs

    est = 3 * b * (math.log2(ed) - math.log2(en)) / a
    t = max(1, int(est) - 2)
    while not ok(t):
        t += 1
    while t > 1 and ok(t - 1):
        t -= 1
    return t


@dataclass(frozen=True)
class Matching:
    """A monotone partial matching on [n]: pairs (i, f(i)), 1-based.

    Both sides are used at most once and i1 < i2 implies f(i1) < f(i2).
    Pairs are stored sorted by left index.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        pairs = sorted(self.pairs)
        object.__setattr__(self, "pairs", tuple(pairs))
        for i, j in pairs:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"pair ({i}, {j}) is out of range for n={self.n}")
        for a, b in zip(pairs, pairs[1:]):
            if a[0] == b[0]:
                raise ValueError(f"left index {a[0]} is matched twice")
            if a[1] == b[1]:
                raise ValueError(f"right index {a[1]} is matched twice")
            if a[1] > b[1]:
                raise MonotonicityViolation(a, b)

    @classmethod
    def identity(cls, n: int) -> "Matching":
        return cls(n, tuple((i, i) for i in range(1, n + 1)))


def matching_maps(matchings: Sequence[Matching], field: FieldSpec) -> MapFamily:
    """0/1 maps sending e_i to e_f(i) (columns not matched go to zero)."""
    if not matchings:
        raise ValueError("need at least one matching")
    n = matchings[0].n
    if any(m.n != n for m in matchings):
        raise ValueError("matchings have inconsistent sizes")
    out = []
    for m in matchings:
        entries = [0] * (n * n)
        for i, j in m.pairs:
            entries[(j - 1) * n + (i - 1)] = 1  # column i has its 1 in row f(i)
        out.append(Matrix(field, n, n, tuple(entries)))
    return MapFamily(field, n, tuple(out))


def shift_matchings(n: int) -> list[Matching]:
    """Identity plus the two unit shifts i -> i+1 and i -> i-1 (non-cyclic)."""
    up = Matching(n, tuple((i, i + 1) for i in range(1, n)))
    down = Matching(n, tuple((i, i - 1) for i in range(2, n + 1)))
    return [Matching.identity(n), up, down]


def dyadic_matchings(n: int) -> list[Matching]:
    """Identity plus the power-of-two shifts i -> i + 2**k that fit in [n]."""
    out = [Matching.identity(n)]
    k = 1
    while k < n:
        out.append(Matching(n, tuple((i, i + k) for i in range(1, n - k + 1))))
        k *= 2
    return out


# ----------------------------------------------------------------------
# image-sum computation
# ----------------------------------------------------------------------

# Most entries a last-row lookup table holds per map.  A last row with more
# free entries than one table covers moves its leading ones into the prefix.
_TABLE_CAP = 1 << 10


def _map_columns(fam: MapFamily, pack) -> list[tuple]:
    """Each map's columns as packed vectors: the image of v under the map
    is combine(v, columns)."""
    n = fam.n
    return [tuple(pack(m.entries[j::n]) for j in range(n)) for m in fam.maps]


def _make_imagesum(fam: MapFamily):
    """Returns f(subspace) -> dim(sum of images)."""
    p = fam.field.modulus
    n = fam.n
    vec = vectors(p)
    pack, combine = vec.pack, vec.combine
    maps_cols = _map_columns(fam, pack)

    def image_sum(sub: Subspace) -> int:
        basis = [pack(sub.basis.row(i)) for i in range(sub.dim)]
        span = make_row_span(p)
        for cols in maps_cols:
            for v in basis:
                if span.add(combine(v, cols)) is not None and span.dim == n:
                    return n
        return span.dim

    return image_sum


def _lex_table(combine, steps, base, gens) -> list:
    """base + sum of v[j] * gens[j] for every value vector v, in
    lexicographic order; steps[a] is the coefficient vector (1, a)."""
    table = [base]
    for g in gens:
        table = [combine(c, (t, g)) for t in table for c in steps]
    return table


def _cell_scan(fam: MapFamily, maps_cols, pivots, free, need: dict[int, int]):
    """Yields (dim, packed rows, image-sum dim) for every subspace of one
    Schubert cell, free entries in lexicographic order.

    With s = len(pivots), the prefix is the free values of rows 0..s-2,
    plus the leading free values of the last row when it has more than a
    lookup table covers.  spans[r] is the span of the images of rows
    0..r-1; after each step it is rebuilt from the first row whose value
    changed, and no span grows past need[s].  Each subspace then adds only the images of its last row, read
    from per-map tables built once per cell (once per prefix when the last
    row is split), and only when some subspace needs them.
    """
    p, n = fam.field.modulus, fam.n
    vec = vectors(p)
    pack, combine = vec.pack, vec.combine
    d = len(pivots)
    last = d - 1
    row_free = [[c for i, c in free if i == r] for r in range(d)]
    width = 0
    while p ** (width + 1) <= _TABLE_CAP:
        width += 1
    split = max(0, len(row_free[last]) - width)
    head, tail = row_free[last][:split], row_free[last][split:]
    units = [pack(tuple(int(j == c) for j in range(n))) for c in range(n)]
    steps = [pack((1, a)) for a in range(p)]
    choices = [_lex_table(combine, steps, units[pivots[r]], [units[c] for c in row_free[r]])
               for r in range(last)]
    choices.append(list(itertools.product(range(p), repeat=len(head))))
    spans = [make_row_span(p)] * d
    prev, key = (None,) * d, None
    for choice in itertools.product(*choices):
        target = need[d]
        r = 0
        while choice[r] == prev[r]:
            r += 1
        prev = choice
        for k in range(r, last):
            span = spans[k]
            if span.dim < target:
                span = span.copy()
                for cols in maps_cols:
                    if span.add(combine(choice[k], cols)) is not None and span.dim >= target:
                        break
            spans[k + 1] = span
        if choice[last] != key:
            key = choice[last]
            base = combine(pack((1,) + key), [units[c] for c in (pivots[last], *head)])
            lasts = _lex_table(combine, steps, base, [units[c] for c in tail])
            tables = None
        rows = choice[:last]
        span = spans[last]
        reached = span.dim
        for x, row in enumerate(lasts):
            a = reached
            if a < target:
                if tables is None:
                    tables = [_lex_table(combine, steps, combine(base, cols),
                                         [cols[c] for c in tail]) for cols in maps_cols]
                grown = span.copy()
                for table in tables:
                    if grown.add(table[x]) is not None and grown.dim >= target:
                        break
                a = grown.dim
            yield d, rows + (row,), a
            target = need[d]


# ----------------------------------------------------------------------
# the scan: image sums over a whole Grassmannian or over seeded draws
# ----------------------------------------------------------------------


def _image_sums(fam: MapFamily, need: dict[int, int], samples: int | None,
                seed: int | None, enumeration_cap: int, stage: str):
    """Yields (dim, packed basis rows, image-sum dim) for each dimension of
    `need`, in its order.

    need[d] is the image-sum dim a dim-d subspace has to reach: a subspace
    that reaches it may be reported with any value >= need[d], and one below
    it with its exact value.  The caller may lower need[d] between items.

    Exhaustive mode (samples None) checks the enumeration budget of all dims
    before any work, then walks each Grassmannian cell by cell in canonical
    order (`_cell_scan`), so the first subspace a caller picks is the
    canonical first.  Sampled mode draws `samples` subspaces per dimension
    from one RNG seeded with `seed` and reports exact values.
    """
    p = fam.field.modulus
    if samples is None:
        total = sum(grassmann_count(fam.n, d, p) for d in need)
        if total > enumeration_cap:
            raise BudgetExceeded(stage, total, enumeration_cap)
        maps_cols = _map_columns(fam, vectors(p).pack)
        for d in need:
            for pivots, free, _ in subspace_cells(fam.n, d, p):
                yield from _cell_scan(fam, maps_cols, pivots, free, need)
        return
    if seed is None:
        raise ValueError("sampled mode requires a seed")
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = random.Random(seed)
    pack = vectors(p).pack
    image_sum = _make_imagesum(fam)
    for d in need:
        for _ in range(samples):
            sub = sample_with_rng(fam.n, d, fam.field, rng)
            yield d, tuple(pack(sub.basis.row(i)) for i in range(d)), image_sum(sub)


def _subspace(fam: MapFamily, rows) -> Subspace:
    """The validated subspace whose canonical basis has these packed rows."""
    unpack = vectors(fam.field.modulus).unpack
    entries = tuple(x for r in rows for x in unpack(r, fam.n))
    return Subspace(fam.field, fam.n, Matrix(fam.field, len(rows), fam.n, entries))


def _first_violation(fam: MapFamily, thresholds: dict[int, int], samples: int | None,
                     seed: int | None, enumeration_cap: int, stage: str) -> SpreadingResult:
    """Verdict from the first subspace whose image-sum dim is below the
    threshold of its dimension: the first in canonical order when exhaustive,
    the first drawn when sampled."""
    exhaustive = samples is None
    if exhaustive:
        seed = None
    need = dict(sorted(thresholds.items()))
    for d, rows, a in _image_sums(fam, need, samples, seed, enumeration_cap, stage):
        if a < thresholds[d]:
            return SpreadingResult(False, exhaustive, _subspace(fam, rows), a,
                                   samples=samples, seed=seed)
    return SpreadingResult(True, exhaustive, samples=samples, seed=seed)


def _minima(fam: MapFamily, dims: Sequence[int], samples: int | None, seed: int | None,
            enumeration_cap: int, stage: str) -> dict[int, tuple[int, Subspace]]:
    """{dim: (least image-sum dim, first subspace attaining it)}.

    Once a dimension has a minimum, a subspace only needs to reach it to be
    ruled out, so the scan counts no further.
    """
    need = {d: fam.n for d in dims}
    best: dict[int, tuple[int, tuple]] = {}
    for d, rows, a in _image_sums(fam, need, samples, seed, enumeration_cap, stage):
        if d not in best or a < best[d][0]:
            best[d] = (a, rows)
            need[d] = a
    return {d: (a, _subspace(fam, rows)) for d, (a, rows) in best.items()}


# ----------------------------------------------------------------------
# verifiers
# ----------------------------------------------------------------------


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def verify_spreading(
    fam: MapFamily,
    params: SpreadingParams,
    *,
    samples: int | None = None,
    seed: int | None = None,
    threads: int = 1,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> SpreadingResult:
    """Check that every subspace of dim >= s has image-sum dimension >= t.

    Because image sums are monotone in the subspace, a violation at a larger
    dimension implies one at dimension s, so only dim(U) = s is scanned.
    Exhaustive mode reports the first counterexample in canonical order;
    sampled mode (samples, seed) reports the first one drawn.
    """
    if not 1 <= params.s <= fam.n:
        raise ValueError(f"s={params.s} is not between 1 and n={fam.n}")
    if params.t > fam.n:
        raise ValueError(f"t={params.t} exceeds n={fam.n}")
    return _first_violation(fam, {params.s: params.t}, samples, seed, enumeration_cap,
                            "spreading verification")


def _expander_dims(n: int) -> list[int]:
    return list(range(1, n // 2 + 1))


def verify_expander(
    fam: MapFamily,
    tau,
    *,
    samples: int | None = None,
    seed: int | None = None,
    threads: int = 1,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> SpreadingResult:
    """Check dim(sum of images of U) >= (1+tau) dim(U) for all dim(U) <= n/2.

    Unlike spreading there is no single-dimension shortcut: the required
    growth scales with dim(U), so every dimension 1..floor(n/2) is checked.
    """
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    dims = _expander_dims(fam.n)
    if not dims:
        raise ValueError("expansion needs n >= 2")
    thresholds = {d: _ceil_fraction((1 + tau) * d) for d in dims}
    return _first_violation(fam, thresholds, samples, seed, enumeration_cap,
                            "expander verification")


def measure_expansion(
    fam: MapFamily,
    *,
    samples: int | None = None,
    seed: int | None = None,
    threads: int = 1,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> ExpansionReport:
    """Largest tau the family achieves: min over dims <= n/2 of ratio - 1.

    Exhaustive mode is exact; sampled mode gives an upper-bound estimate
    (usable to refute, never to certify) and is flagged non-exhaustive.
    The witness is the first subspace attaining the minimum ratio, scanning
    dimensions in increasing order.
    """
    dims = _expander_dims(fam.n)
    if not dims:
        raise ValueError("expansion needs n >= 2")
    minima = _minima(fam, dims, samples, seed, enumeration_cap, "expansion measurement")
    tau_star = None
    witness = None
    for d in dims:
        value, sub = minima[d]
        ratio = Fraction(value, d) - 1
        if tau_star is None or ratio < tau_star:
            tau_star = ratio
            witness = sub
    per_dim = tuple((d, minima[d][0]) for d in dims)
    return ExpansionReport(tau_star, witness, per_dim, samples is None)


def verify_large_expansion(
    fam: MapFamily,
    tau,
    *,
    threads: int = 1,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    check_expander: bool = True,
) -> LargeExpansionResult:
    """For n/2 < dim(U) < n check dim(sum of images) >= (1 + tau(1-a)/2) dim(U),
    where a = dim(U)/n.

    Requires the family to contain the identity and the transpose of each of
    its maps (ClosureViolation otherwise), and to actually be a tau-expander;
    the expander precondition is verified when its enumeration fits the cap
    and skipped otherwise.  Each scanned subspace's achieved growth delta is
    recorded next to the sharper bound tau(1-a)/((1+tau)a) for inspection;
    subspaces with the same (dim, image-sum dim) share one record object.
    """
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    present = set(fam.maps)
    if Matrix.identity(fam.field, fam.n) not in present:
        raise ClosureViolation("family does not contain the identity")
    for m in fam.maps:
        if m.transpose() not in present:
            raise ClosureViolation("family is not closed under transpose")
    if check_expander:
        try:
            pre = verify_expander(fam, tau, enumeration_cap=enumeration_cap)
        except BudgetExceeded:
            pre = None
        if pre is not None and not pre.verified:
            raise ValueError(
                f"family is not a {tau}-expander "
                f"(dim {pre.counterexample.dim} subspace reaches only {pre.achieved})"
            )
    n = fam.n
    dims = [d for d in range(n // 2 + 1, n)]
    thresholds = {d: _ceil_fraction((1 + tau * (1 - Fraction(d, n)) / 2) * d) for d in dims}
    sharper = {d: (tau * (1 - Fraction(d, n))) / ((1 + tau) * Fraction(d, n)) for d in dims}
    records = []
    shared: dict[tuple[int, int], LargeExpansionRecord] = {}
    hit = None
    for d, rows, a in _image_sums(fam, {d: n for d in dims}, None, None, enumeration_cap,
                                  "large-subspace expansion"):
        rec = shared.get((d, a))
        if rec is None:
            delta = Fraction(a, d) - 1
            rec = LargeExpansionRecord(d, a, delta, sharper[d], delta >= sharper[d])
            shared[(d, a)] = rec
        records.append(rec)
        if hit is None and a < thresholds[d]:
            hit = (_subspace(fam, rows), a)
    if hit is None:
        return LargeExpansionResult(True, None, None, tuple(records))
    return LargeExpansionResult(False, *hit, tuple(records))


def spreading_profile(
    fam: MapFamily,
    *,
    threads: int = 1,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[tuple[int, int], ...]:
    """For each s in 1..n, the largest t such that (s, t)-spreading holds.

    That largest t is exactly the minimum image-sum dimension over the
    dim-s subspaces.
    """
    dims = list(range(1, fam.n + 1))
    minima = _minima(fam, dims, None, None, enumeration_cap, "spreading profile")
    return tuple((d, minima[d][0]) for d in dims)
