"""Families of linear maps on GF(p)^n: symmetrization, word powers, monotone
matching maps, and exhaustive or sampled verification of dimension expansion
and dimension spreading.

All verdicts are exact.  Exhaustive runs enumerate Grassmannians in the
canonical order defined in `subspace`; sampled runs draw from a seeded RNG
and are reproducible from (seed, count) alone.  A sampled counterexample is
conclusive; a sampled "verified" only means no counterexample was found and
is flagged as non-conclusive.  Both modes are budgeted by one cap before any
work: the Gaussian binomials of the scanned dimensions when exhaustive, the
number of draws when sampled.

Exhaustive scans walk each Grassmannian one Schubert cell at a time.  Runs
of subspaces that all reach the need come out as blocks, and the counts of
each dimension are checked against its Gaussian binomial.  Only the
counterexample or witness reported becomes a `Subspace`, and it is the
canonical first one.  `_grassmann_scan` describes the walk and its blocks;
`_image_sums` describes the proven floors and the sampled draws.

Every scan runs in one thread.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceeded, ClosureViolation, MonotonicityViolation
from .gfp import FieldSpec, Gf2RowSpan, Matrix, make_row_span, residue_reader, vectors
from .subspace import (
    DEFAULT_ENUMERATION_CAP,
    Subspace,
    cell_subspaces,
    grassmann_count,
    sample_with_rng,
    span_of,
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
    out = dict.fromkeys(
        (*fam.maps, *(m.transpose() for m in fam.maps), Matrix.identity(fam.field, fam.n))
    )
    return MapFamily(fam.field, fam.n, tuple(out))


def words(fam: MapFamily, t: int, *, word_cap: int = DEFAULT_WORD_CAP) -> MapFamily:
    """All products of exactly t maps from the family, deduplicated.

    Order is canonical: lexicographic in the index word (i1, ..., it), first
    occurrence kept.  Duplicate prefixes are collapsed level by level, which
    provably preserves that order.  The budget applies to the total number of
    words formed: D at length 1, then (distinct words of the level below) * D
    for each later level, checked before the level is built.  Every level
    keeps at least one word, so t * D > word_cap fails at once.  The nominal
    D**t is never formed.
    """
    if t < 1:
        raise ValueError("word length must be at least 1")
    d = len(fam.maps)
    if t * d > word_cap:
        raise BudgetExceeded("word expansion", t * d, word_cap)
    vec = vectors(fam.field.modulus)
    n = fam.n
    mats = [tuple(vec.pack(m.row(i)) for i in range(n)) for m in fam.maps]
    level = list(dict.fromkeys(mats))
    # row i of the product a @ b is the image of a's row i under b's rows
    products = [vec.images(b) for b in mats] if t > 1 else []
    formed = d
    for _ in range(t - 1):
        formed += len(level) * d
        if formed > word_cap:
            raise BudgetExceeded("word expansion", formed, word_cap)
        level = list(dict.fromkeys(
            tuple(map(image, a)) for a in level for image in products
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
    # 2**(t*a) * scale > rhs exactly when t*a >= k, the least k with
    # scale << k > rhs.  With k0 the gap in bit length, scale << k0 is as long
    # as rhs and scale << (k0 - 1) is shorter, so k is k0 or k0 + 1.
    k = rhs.bit_length() - scale.bit_length()
    if scale << k <= rhs:
        k += 1
    return max(1, -(-k // a))


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

# Most values a one-row cell lists for its last row (`lasts`); a longer row
# moves its leading free entries into the prefix.  Larger cells need no cap.
_TABLE_CAP = 1 << 10


def _map_images(columns: list, vec) -> list:
    """One function per map, image(v) = the map applied to the packed v,
    where columns[j] holds map j's packed columns.

    Each slot starts as a stand-in; on its first call it builds the map's
    image function (`vec.images` of its columns) and takes its place in the
    list, so a scan builds them only for the maps it reaches.
    """
    images = []

    def stand_in(j: int, cols: tuple):
        built = None

        def image(v: int) -> int:
            nonlocal built
            if built is None:
                built = images[j] = vec.images(cols)
            return built(v)

        return image

    images.extend(stand_in(j, cols) for j, cols in enumerate(columns))
    return images


def _group_reaches(span, empty, images, columns, base: int, tail, shift: int) -> bool:
    """Whether every row of a last-row group has an image outside `span`.

    The group's rows are base plus each combination of the unit vectors at
    the coordinates `tail`, the row's free entries, so a row's residue
    modulo the span under map j is linear in that combination: R0 + sum
    x_k Rk, with R0 the residue of map j's image of base and Rk that of its
    image of unit vector k, which is column k of map j (`columns[j]`).  Set
    side by side for maps 0..j (map i's coordinates from bit i * shift),
    some row keeps every image under those maps inside the span exactly
    when R0 lies in the span of the Rk.  Maps are tested in order up to the
    first where it does not, each with one image call, for base.
    """
    r0, rk = 0, [0] * len(tail)
    for j, (image, cols) in enumerate(zip(images, columns)):
        at = j * shift
        r0 |= span.reduce(image(base)) << at
        test = empty.copy()
        for i, c in enumerate(tail):
            rk[i] |= span.reduce(cols[c]) << at
            test.add(rk[i])
        if not test.contains(r0):
            return True
    return False


def _grassmann_scan(fam: MapFamily, columns: list, images: list, units: list, d: int,
                    need: dict[int, int], nominal: int, floor: int):
    """Yields items (d, packed rows, a, count) that cover every dim-d
    subspace once, one Schubert cell at a time in canonical order, free
    entries in lexicographic order.

    An item stands for the next `count` subspaces of that order, and `rows`
    is the first of them.  Each of them has an image-sum dim of at least a,
    and a is exact when it is below need[d].  A subspace decided only by its
    last row is an item of count 1.  Once the images of rows 0..k-1 of a
    prefix span need[d] or more, the rest of its subtree is one item, a
    block, whose a is the dim of that span (grown no further than need[d]):
    every member's image sum contains it.  A last-row group that the group
    test settles is a block too.

    The rows are walked as a tree by an odometer (`idx`, `cur`) over the
    values of each prefix row, which `vec.fill` lists once per cell from
    the row's pivot unit (`choices`; units[c] is the packed unit vector at
    coordinate c).  In each cell the prefix is the free values of rows
    0..d-2, and at d = 1 the leading free values of the row when it has
    more than `_TABLE_CAP` values.  spans[r] is the span of the images of
    rows 0..r-1; after each step it is rebuilt from the row whose value
    changed, and no span grows past need[d].  images[j] is map j's image
    function and columns[j] its packed columns (`_map_images`).  An
    undecided subspace then adds only the images of its last row, map by
    map up to the first map that decides it.  `fill` lists that row's
    values (`lasts`) once per cell (once per prefix at d = 1) from its pivot
    unit, or from its head value when a one-row cell splits.  When a span
    is exactly one short of the need, the next row reaches it iff one of
    its images lies outside that span, so the images are only tested with
    `contains`, up to the first one outside, and no span is built.  When
    the last row is next, with two or more free entries, `_group_reaches`
    first tests its whole group of values at once; if no row of the group
    keeps every image inside the span, the group is one block with
    a = need[d], and otherwise it is walked row by row.  So a block may
    also stand for one last-row group.  The caller may lower need[d]
    between items.

    `floor` is a proven lower bound on every dim-d image sum, so once
    need[d] is at or below it, every subspace not yet covered reaches the
    need.  Three rules then yield the rest, each item at a = floor with
    nothing built.  A cell not yet begun is one block.  A step starts with
    a = floor, not the span's dim, so the block rule above yields the rest
    of row k's values, and the carry the rest of the cell one row range at
    a time.  A leaf walk that finds the need lowered to the floor yields the
    rest of its group as one block.

    The counts, summed per prefix, block or cell, must come to `nominal`,
    the dimension's Gaussian binomial; RuntimeError otherwise.  Returns the
    least image-sum dim the scan has proven for the dimension: need[d] at
    the end, or the least a yielded below the need at the time, if lower.
    """
    p, n = fam.field.modulus, fam.n
    vec = vectors(p)
    fill = vec.fill
    shift = n * vec.width  # map j's coordinates side by side from bit j * shift
    width = 0
    while p ** (width + 1) <= _TABLE_CAP:
        width += 1
    empty = make_row_span(p)
    last = d - 1
    covered = 0
    least = n
    for pivots, free in subspace_cells(n, d):
        if need[d] <= floor:
            count = p ** sum(map(len, free))
            covered += count
            yield d, tuple(units[c] for c in pivots), floor, count
            continue
        # Only a one-row cell splits its row, since there `lasts` would be as
        # large as the cell.  At d >= 2 row 0 has at least as many free
        # entries as the last row, so `lasts` holds at most sqrt(cell size)
        # values, bounded by the enumeration budget.
        split = max(0, len(free[last]) - width) if d == 1 else 0
        head, tail = free[last][:split], free[last][split:]
        choices = [fill(units[pivots[r]], cols)
                   for r, cols in enumerate(free[:last] + (head,))]
        # below[r]: subspaces in the subtree of one value of rows 0..r-1
        below = [p ** len(tail)] * (d + 1)
        for r in range(last, 0, -1):
            below[r] = below[r + 1] * len(choices[r])
        idx = [0] * d
        cur = [c[0] for c in choices]
        spans = [empty] * d
        base = None
        k = 0
        while True:
            # rows 0..k-1 are unchanged since spans[k] was built, and every
            # index after k is 0
            target = need[d]
            span = spans[k]
            a = floor if target <= floor else span.dim
            while a < target and k < last:
                row = cur[k]
                if a == target - 1:
                    # row k decides the prefix iff one of its images leaves the
                    # span; if none does, it adds nothing, and a block never
                    # reads the span it would have built
                    for image in images:
                        if not span.contains(image(row)):
                            a = target
                            break
                else:
                    span = span.copy()
                    for image in images:
                        if span.add(image(row)) is not None and span.dim >= target:
                            break
                    a = span.dim
                k += 1
                spans[k] = span
            if a < target and cur[last] != base:
                base = cur[last]
                lasts = fill(base, tail)
            if a >= target:
                count = (len(choices[k]) - idx[k]) * below[k + 1]
                covered += count
                yield d, tuple(cur), a, count
                idx[k] = len(choices[k]) - 1  # the carry below leaves row k's subtree
            elif (a == target - 1 and len(tail) > 1
                  and _group_reaches(span, empty, images, columns, base, tail, shift)):
                covered += len(lasts)
                yield d, tuple(cur), target, len(lasts)
            else:
                covered += len(lasts)
                rows = tuple(cur[:last])
                reached = a
                for x, row in enumerate(lasts):
                    a = reached
                    if a < target:
                        if a == target - 1:
                            for image in images:
                                if not span.contains(image(row)):
                                    a = target
                                    break
                        else:
                            grown = span.copy()
                            for image in images:
                                if grown.add(image(row)) is not None and grown.dim >= target:
                                    break
                            a = grown.dim
                        if a < least:
                            least = a
                    yield d, rows + (row,), a, 1
                    target = need[d]
                    if target <= floor and x + 1 < len(lasts):
                        yield d, rows + (lasts[x + 1],), floor, len(lasts) - x - 1
                        break
            # next value of row k, carrying into earlier rows
            while k >= 0:
                i = idx[k] + 1
                if i < len(choices[k]):
                    idx[k] = i
                    cur[k] = choices[k][i]
                    break
                idx[k] = 0
                cur[k] = choices[k][0]
                k -= 1
            if k < 0:
                break
    if covered != nominal:
        raise RuntimeError(f"scan of dim {d} covered {covered} subspaces, not {nominal}")
    return min(least, need[d])


# ----------------------------------------------------------------------
# the scan: image sums over a whole Grassmannian or over seeded draws
# ----------------------------------------------------------------------


def _image_sums(fam: MapFamily, need: dict[int, int], samples: int | None,
                seed: int | None, enumeration_cap: int, stage: str):
    """Yields (dim, packed basis rows, a, count) for each dimension of
    `need`, in its order: the next `count` subspaces, the first of which
    has a basis of these rows, all have image-sum dim >= a.

    need[d] is the image-sum dim a dim-d subspace has to reach: a subspace
    that reaches it may be reported with any value >= need[d], and one below
    it with its exact value.  An item with count > 1 always has a >= need[d],
    so it holds no subspace below the need.  The caller may lower need[d]
    between items.

    Each map's columns are packed once, after the budget check, and the
    image functions (`_map_images`), the nullity (`_least_nullity`) and the
    group test (`_group_reaches`) all read them.

    Exhaustive mode (samples None) adds the dims' Gaussian binomials in
    `need` order, one `grassmann_count` call each, and refuses at the first
    running total past the enumeration budget, before any work.  It then
    walks each Grassmannian cell by cell in canonical order
    (`_grassmann_scan`, which checks its counts against the Gaussian
    binomials computed for the budget), so the first subspace a caller picks
    is the canonical first.  Each dim is scanned with its proven floor: the
    larger of d - k, for k the least nullity over the maps (the image sum
    of U contains A U, of dim >= d - nullity(A)), and the least value the
    scan of d - 1 proved when that scan came just before it (a dim-d
    subspace contains a dim-(d-1) one, whose image sum lies in its own); k
    is computed after the budget check.  Sampled mode checks samples *
    len(need) draws against the same budget, then draws `samples` subspaces
    per dimension from one RNG seeded with `seed` (through the module name
    `sample_with_rng`, once per draw, with `_independent` as its rank test).
    The scan owns that RNG, so it reads it ahead with one read-ahead
    `residue_reader`: the values are those randrange(p) gives, and only the
    RNG's state, which nothing else reads, runs ahead of them.
    A draw whose need[d] is at or below d - k is yielded with a = d - k and
    takes no image; any other adds the images of its packed rows until the
    span reaches need[d].  Each draw is yielded with count 1.  Sampled rows
    are as drawn, not canonical; no draw is reduced, validated or built into
    a `Subspace` here, and the caller builds one, by `_subspace`, only for
    the draw it reports.
    """
    p = fam.field.modulus
    if samples is None:
        nominal, total = {}, 0
        for d in need:
            nominal[d] = grassmann_count(fam.n, d, p)
            total += nominal[d]
            if total > enumeration_cap:
                break
    else:
        if seed is None:
            raise ValueError("sampled mode requires a seed")
        if samples < 1:
            raise ValueError("samples must be positive")
        total = samples * len(need)
    if total > enumeration_cap:
        raise BudgetExceeded(stage, total, enumeration_cap)
    vec, n = vectors(p), fam.n
    columns = [tuple(vec.pack(m.entries[c::n]) for c in range(n)) for m in fam.maps]
    images = _map_images(columns, vec)
    nullity = _least_nullity(columns, p)
    if samples is None:
        units = [vec.pack((0,) * c + (1,)) for c in range(n)]
        proven = {}
        for d in need:
            floor = max(d - nullity, proven.get(d - 1, 0))
            proven[d] = yield from _grassmann_scan(fam, columns, images, units, d, need,
                                                   nominal[d], floor)
        return
    rng = random.Random(seed)
    take = residue_reader(p, rng, ahead=True)
    accept = _independent(p)
    for d in need:
        floor = max(d - nullity, 0)
        for _ in range(samples):
            rows = sample_with_rng(fam.n, d, fam.field, rng, accept, take)
            target = need[d]
            if target <= floor:
                yield d, rows, floor, 1
                continue
            span = make_row_span(p)
            for image in images:
                if span.dim >= target:
                    break
                for v in rows:
                    if span.add(image(v)) is not None and span.dim >= target:
                        break
            yield d, rows, span.dim, 1


def _least_nullity(columns: list, p: int) -> int:
    """The least nullity n - rank over the maps whose packed columns
    `columns` holds, each rank from adding the map's columns to one row span
    (a map has the rank of its columns), up to the first invertible map."""
    least = n = len(columns[0])
    for cols in columns:
        span = make_row_span(p)
        for v in cols:
            span.add(v)
        least = min(least, n - span.dim)
        if not least:
            break
    return least


def _independent(p: int):
    """The sampler's rank test on packed rows: accept(rows) packs an
    attempt's rows (lists or bytes of residues) and returns them as drawn
    when each one grows one row span, and None at the first that does not."""
    pack = vectors(p).pack

    def accept(rows):
        packed = tuple(map(pack, rows))
        span = make_row_span(p)
        for v in packed:
            if span.add(v) is None:
                return None
        return packed

    return accept


def _subspace(fam: MapFamily, rows) -> Subspace:
    """The validated subspace these packed, independent rows span.  Sampled
    rows are as drawn, so they are reduced here; exhaustive rows are already
    the canonical basis, and the elimination leaves them as they are."""
    unpack = vectors(fam.field.modulus).unpack
    entries = tuple(x for r in rows for x in unpack(r, fam.n))
    return span_of(Matrix(fam.field, len(rows), fam.n, entries))


def _first_violation(fam: MapFamily, thresholds: dict[int, int], samples: int | None,
                     seed: int | None, enumeration_cap: int, stage: str) -> SpreadingResult:
    """Verdict from the first subspace whose image-sum dim is below the
    threshold of its dimension: the first in canonical order when exhaustive,
    the first drawn when sampled.  A block's a reaches the threshold, so a
    block never holds the violation."""
    exhaustive = samples is None
    if exhaustive:
        seed = None
    need = dict(sorted(thresholds.items()))
    for d, rows, a, _ in _image_sums(fam, need, samples, seed, enumeration_cap, stage):
        if a < thresholds[d]:
            return SpreadingResult(False, exhaustive, _subspace(fam, rows), a,
                                   samples=samples, seed=seed)
    return SpreadingResult(True, exhaustive, samples=samples, seed=seed)


def _minima(fam: MapFamily, dims: Sequence[int], samples: int | None, seed: int | None,
            enumeration_cap: int, stage: str) -> dict[int, tuple[int, Subspace]]:
    """{dim: (least image-sum dim, first subspace attaining it)}.

    Once a dimension has a minimum, a subspace only needs to reach it to be
    ruled out, so the scan counts no further, and a block of subspaces that
    all reach it is ruled out whole.  A dimension's first item seeds the
    minimum with the canonical first subspace, block or not.  The minimum
    moves only on a strictly lower value, so the witness is the first
    subspace that attains it.  Once the minimum reaches the dimension's
    proven floor, the scan yields the rest as blocks at the floor, which
    leave it as it is.
    """
    need = {d: fam.n for d in dims}
    best: dict[int, tuple[int, tuple]] = {}
    for d, rows, a, _ in _image_sums(fam, need, samples, seed, enumeration_cap, stage):
        if d not in best or a < best[d][0]:
            best[d] = (a, rows)
            need[d] = a
    return {d: (a, _subspace(fam, rows)) for d, (a, rows) in best.items()}


# ----------------------------------------------------------------------
# verifiers
# ----------------------------------------------------------------------


def verify_spreading(
    fam: MapFamily,
    params: SpreadingParams,
    *,
    samples: int | None = None,
    seed: int | None = None,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> SpreadingResult:
    """Check that every subspace of dim >= s has image-sum dimension >= t.

    Because image sums are monotone in the subspace, a violation at a larger
    dimension implies one at dimension s, so only dim(U) = s is scanned.
    Exhaustive mode reports the first counterexample in canonical order;
    sampled mode (samples, seed) reports the first one drawn.  Every dim-s
    image sum reaches s - k, for k the least nullity over the maps, so a
    threshold t <= s - k is settled without an image in both modes: by the
    identity or any invertible map when t <= s.  Sampled mode still makes
    every draw, so a seed gives the same draws.
    """
    if not 1 <= params.s <= fam.n:
        raise ValueError(f"s={params.s} is not between 1 and n={fam.n}")
    if params.t > fam.n:
        raise ValueError(f"t={params.t} exceeds n={fam.n}")
    return _first_violation(fam, {params.s: params.t}, samples, seed, enumeration_cap,
                            "spreading verification")


def _expander_dims(n: int) -> list[int]:
    if n < 2:
        raise ValueError("expansion needs n >= 2")
    return list(range(1, n // 2 + 1))


def verify_expander(
    fam: MapFamily,
    tau,
    *,
    samples: int | None = None,
    seed: int | None = None,
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
    thresholds = {d: math.ceil((1 + tau) * d) for d in dims}
    return _first_violation(fam, thresholds, samples, seed, enumeration_cap,
                            "expander verification")


def measure_expansion(
    fam: MapFamily,
    *,
    samples: int | None = None,
    seed: int | None = None,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> ExpansionReport:
    """Largest tau the family achieves: min over dims <= n/2 of ratio - 1.

    Exhaustive mode is exact; sampled mode gives an upper-bound estimate
    (usable to refute, never to certify) and is flagged non-exhaustive.
    The witness is the first subspace attaining the minimum ratio, scanning
    dimensions in increasing order.
    """
    dims = _expander_dims(fam.n)
    minima = _minima(fam, dims, samples, seed, enumeration_cap, "expansion measurement")
    low = min(dims, key=lambda d: Fraction(minima[d][0], d))
    value, witness = minima[low]
    tau_star = Fraction(value, low) - 1
    per_dim = tuple((d, minima[d][0]) for d in dims)
    return ExpansionReport(tau_star, witness, per_dim, samples is None)


def verify_large_expansion(
    fam: MapFamily,
    tau,
    *,
    threads: int = 1,  # unused: bench/run.py passes it to check that it changes nothing
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    check_expander: bool = True,
) -> LargeExpansionResult:
    """For n/2 < dim(U) < n check dim(sum of images) >= (1 + tau(1-a)/2) dim(U),
    where a = dim(U)/n.

    Requires the family to contain the identity and the transpose of each of
    its maps (ClosureViolation otherwise), and to actually be a tau-expander
    (ValueError otherwise).  The expander precondition is scanned under the
    same enumeration cap, so BudgetExceeded propagates when it does not fit;
    `check_expander=False` skips it.  Each scanned subspace's achieved growth
    delta is recorded next to the sharper bound tau(1-a)/((1+tau)a) for
    inspection; subspaces with the same (dim, image-sum dim) share one record
    object.
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
        pre = verify_expander(fam, tau, enumeration_cap=enumeration_cap)
        if not pre.verified:
            raise ValueError(
                f"family is not a {tau}-expander "
                f"(dim {pre.counterexample.dim} subspace reaches only {pre.achieved})"
            )
    n = fam.n
    dims = [d for d in range(n // 2 + 1, n)]
    thresholds = {d: math.ceil((1 + tau * (1 - Fraction(d, n)) / 2) * d) for d in dims}
    sharper = {d: (tau * (1 - Fraction(d, n))) / ((1 + tau) * Fraction(d, n)) for d in dims}
    shared: dict[tuple[int, int], LargeExpansionRecord] = {}
    hit = None

    def runs():
        # One run of shared record references per scan item, fed straight
        # into the result tuple: no list of records is built and copied.
        nonlocal hit
        for d, rows, a, count in _image_sums(fam, {d: n for d in dims}, None, None,
                                             enumeration_cap, "large-subspace expansion"):
            rec = shared.get((d, a))
            if rec is None:
                delta = Fraction(a, d) - 1
                rec = LargeExpansionRecord(d, a, delta, sharper[d], delta >= sharper[d])
                shared[(d, a)] = rec
            yield itertools.repeat(rec, count)  # the need is n: a block's members all have a = n
            if hit is None and a < thresholds[d]:
                hit = (_subspace(fam, rows), a)

    records = tuple(itertools.chain.from_iterable(runs()))
    if hit is None:
        return LargeExpansionResult(True, None, None, records)
    return LargeExpansionResult(False, *hit, records)


def spreading_profile(
    fam: MapFamily,
    *,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[tuple[int, int], ...]:
    """For each s in 1..n, the largest t such that (s, t)-spreading holds.

    That largest t is exactly the minimum image-sum dimension over the
    dim-s subspaces.
    """
    dims = list(range(1, fam.n + 1))
    minima = _minima(fam, dims, None, None, enumeration_cap, "spreading profile")
    return tuple((d, minima[d][0]) for d in dims)
