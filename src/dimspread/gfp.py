"""Exact dense linear algebra over prime fields GF(p).

Matrices are immutable and store reduced residues in row-major order.
Elimination always takes the first nonzero pivot in column order, so the
reduced row echelon form and everything derived from it (kernel bases,
canonical solutions) is reproducible bit for bit.

Vectors handed to the row spans and the scans are Python ints for every
field, laid out here and nowhere else: over GF(2) bit j is coordinate j and
vectors add with XOR; over odd p coordinate j is the lane of `_lanes(p)`
bits at j * width, and vectors add as whole ints whose lanes are reduced
mod p only before one could overflow and once at the end.  `vectors(p)`
returns the pack/unpack/images/fill operations and the bits per coordinate
of that representation, and `make_row_span(p)` the matching span
accumulator.  Over GF(2), `images` reads the combinations of fixed rows
from XOR tables of 2**8 entries, one per 8 rows (`_CHUNK`).  Over odd p it
keeps no table: where a lane is 8 bits and len(rows) * (p - 1)**2 < 256 (up
to 63 rows at p = 3, 15 at 5, 7 at 7, 2 at 11 and 1 at 13) an image is read
out of the bytes of one int product, and otherwise it is summed term by
term.  Either way a coefficient vector must have reduced lanes and no more
lanes than there are rows.  `fill` sets coordinates that are 0 to every
value, which is int addition with no carry in either layout.  Elimination
(`rref`, `kernel_basis`, `solve`) runs on dense residue rows for every p.
`residue_reader` holds the sampler's draw protocol: the values
rng.randrange(p) gives, drawn one by one or read ahead in blocks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = [
    "PRIME_LIMIT",
    "FieldSpec",
    "GF2",
    "Matrix",
    "Rref",
    "rref",
    "kernel_basis",
    "solve",
    "Gf2RowSpan",
    "ModRowSpan",
    "make_row_span",
    "FieldVectors",
    "vectors",
    "pack_bits",
    "unpack_bits",
    "residue_reader",
]

PRIME_LIMIT = 1 << 16


def _is_prime(p: int) -> bool:
    """Trial division; moduli are capped at 2**16 so this is plenty."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p) with p <= 2**16."""

    modulus: int

    def __post_init__(self) -> None:
        p = self.modulus
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"modulus must be an int, got {p!r}")
        if p > PRIME_LIMIT:
            raise ValueError(f"modulus {p} exceeds the limit {PRIME_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero residue."""
        a %= self.modulus
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(a, self.modulus - 2, self.modulus)


GF2 = FieldSpec(2)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over a prime field; entries reduced, row-major."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        p = self.field.modulus
        for x in self.entries:
            if not isinstance(x, int) or not 0 <= x < p:
                raise ValueError(f"entry {x!r} is not a reduced residue mod {p}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, rows, cols: int | None = None) -> "Matrix":
        """Build a matrix from an iterable of rows, reducing entries mod p."""
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("rows have inconsistent lengths")
        p = field.modulus
        return cls(field, len(rows), cols, tuple(x % p for r in rows for x in r))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return cls(field, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, (0,) * (rows * cols))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("mixed fields")
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        p = self.field.modulus
        out = []
        for i in range(self.rows):
            arow = self.row(i)
            acc = [0] * other.cols
            for k, c in enumerate(arow):
                if c:
                    brow = other.row(k)
                    for j, x in enumerate(brow):
                        if x:
                            acc[j] = (acc[j] + c * x) % p
            out.extend(acc)
        return Matrix(self.field, self.rows, other.cols, tuple(out))


# ----------------------------------------------------------------------
# field vectors: packed ints, one bit per coordinate over GF(2) and one
# fixed-width lane per coordinate over odd p
# ----------------------------------------------------------------------


# Byte x -> the binary digit b"0" or b"1" that `pack_bits` writes for it.
_BIT_DIGITS = b"0" + b"1" * 255


def pack_bits(seq) -> int:
    """Pack a 0/1 sequence (or bytes) into an int, bit j = position j: its
    entries as binary digits, last entry first."""
    return int(bytes(seq)[::-1].translate(_BIT_DIGITS) or b"0", 2)


def unpack_bits(v: int, width: int) -> tuple[int, ...]:
    return tuple((v >> j) & 1 for j in range(width))


# Coordinates per GF(2) image table: each table holds the 2**8 XORs of 8 rows.
_CHUNK = 8


def _images_bits(rows) -> Callable:
    """image(v) is the XOR of rows[k] over the set bits k of v, read from one
    table per `_CHUNK` rows; table[k] is the XOR of the rows at the set bits
    of k."""
    tables = []
    for lo in range(0, len(rows), _CHUNK):
        table = [0]
        for row in rows[lo:lo + _CHUNK]:
            table += [t ^ row for t in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__
    mask = (1 << _CHUNK) - 1

    def image(v: int) -> int:
        w = 0
        for table in tables:
            w ^= table[v & mask]
            v >>= _CHUNK
        return w

    return image


def _filler(p: int, width: int) -> Callable:
    """fill for vectors whose coordinate c sits at bit c * width."""

    def fill(base: int, cols) -> list:
        table = [base]
        for c in cols:
            values = range(0, p << c * width, 1 << c * width)
            table = [t + x for t in table for x in values]
        return table

    return fill


class FieldVectors(NamedTuple):
    """The vector representation of one field.

    pack(seq) turns a sequence of reduced residues into a vector and
    unpack(v, width) turns it back into a tuple.  images(rows) fixes one or
    more vectors of one common width and returns image, where image(coeffs)
    is the vector sum of coeffs[k] * rows[k] and coeffs is itself a vector
    with reduced lanes and at most len(rows) of them; over GF(2) it reads
    lookup tables built here, at most 2**8 vectors per 8 rows, and over odd
    p it takes one int product where every lane of it stays below 256 (8-bit
    lanes and len(rows) * (p - 1)**2 < 256), and a sum of c * rows[k] term
    by term otherwise.  fill(base, cols) lists every vector that agrees with
    base off the coordinates cols, in lexicographic order of its entries at
    cols, first column slowest; base must be 0 at cols.  Coordinate j sits
    at bit j * width, so v << (k * width) moves every coordinate of v up by
    k.
    """

    pack: Callable
    unpack: Callable
    images: Callable
    fill: Callable
    width: int


_GF2_VECTORS = FieldVectors(pack_bits, unpack_bits, _images_bits, _filler(2, 1), 1)


class _Lanes(NamedTuple):
    """Lane layout of the vectors over one odd p.

    A lane is `width` bits, the least multiple of 8 with p(p - 1) < 2**width,
    so it holds a residue plus one product (p - 1)**2 without carrying into
    the next lane.  A sum of terms c * row (c and every lane of row below p)
    may take `again` terms on top of reduced lanes, and so at least as many
    from zero, before `reduce`, which reduces every lane mod p, must run.
    pack and unpack convert between residue sequences and lanes.  For 8-bit
    lanes, `table` is the bytes x % p for every byte x, which `reduce` reads
    with `bytes.translate`; it is None for wider lanes.
    """

    width: int
    mask: int
    again: int
    reduce: Callable
    pack: Callable
    unpack: Callable
    table: bytes | None


@functools.cache
def _lanes(p: int) -> _Lanes:
    """The lane layout for p; the only code that depends on the width."""
    width = 8
    while p * (p - 1) >= 1 << width:
        width += 8
    mask = (1 << width) - 1
    table = None
    if width == 8:
        table = bytes(x % p for x in range(256))

        def reduce(v: int) -> int:
            raw = v.to_bytes((v.bit_length() + 7) >> 3, "little")
            return int.from_bytes(raw.translate(table), "little")

        def pack(seq) -> int:
            return int.from_bytes(bytes(seq).translate(table), "little")

        def unpack(v: int, n: int) -> tuple[int, ...]:
            return tuple(v.to_bytes(n, "little"))
    else:
        def reduce(v: int) -> int:
            out = shift = 0
            while v:
                out |= ((v & mask) % p) << shift
                v >>= width
                shift += width
            return out

        def pack(seq) -> int:
            v = 0
            for j, x in enumerate(seq):
                v |= (x % p) << (j * width)
            return v

        def unpack(v: int, n: int) -> tuple[int, ...]:
            return tuple((v >> (j * width)) & mask for j in range(n))

    top = (p - 1) ** 2
    return _Lanes(width, mask, (mask - (p - 1)) // top, reduce, pack, unpack, table)


def _product_images(rows, table: bytes) -> Callable:
    """image(coeffs) over 8-bit lanes as one product coeffs * big.

    Block i of big holds lane i of every row, last row lowest, and blocks sit
    2 * len(rows) - 1 lanes apart, so lane len(rows) - 1 of block i of the
    product is the sum of coeffs[k] * rows[k][i].  The caller keeps every
    such sum below len(table), so no lane carries, and `table` reduces them.
    """
    size = len(rows)
    step = 2 * size - 1
    lanes = max((row.bit_length() + 7) >> 3 for row in rows)
    blocks = bytearray(lanes * step)
    for k, row in enumerate(rows):
        blocks[size - 1 - k::step] = row.to_bytes(lanes, "little")
    big, length, mid = int.from_bytes(blocks, "little"), len(blocks), size - 1

    def image(coeffs: int) -> int:
        raw = (coeffs * big).to_bytes(length, "little")
        return int.from_bytes(raw[mid::step].translate(table), "little")

    return image


@functools.cache
def _residue_vectors(p: int) -> FieldVectors:
    lanes = _lanes(p)
    again, reduce, unpack, table = lanes.again, lanes.reduce, lanes.unpack, lanes.table
    top = (p - 1) ** 2

    def images(rows) -> Callable:
        size = len(rows)
        if table is not None and size * top < len(table):
            return _product_images(rows, table)

        def image(coeffs: int) -> int:
            acc = 0
            room = again
            for c, row in zip(unpack(coeffs, size), rows):
                if c:
                    if not room:
                        acc = reduce(acc)
                        room = again
                    acc += c * row
                    room -= 1
            return reduce(acc)

        return image

    return FieldVectors(lanes.pack, unpack, images, _filler(p, lanes.width), lanes.width)


def vectors(p: int) -> FieldVectors:
    """Vector operations for GF(p): one bit per coordinate for p = 2, one
    lane of `_lanes(p)` per coordinate otherwise."""
    return _GF2_VECTORS if p == 2 else _residue_vectors(p)


# ----------------------------------------------------------------------
# residue draws: the values rng.randrange(p) gives, read from getrandbits
# ----------------------------------------------------------------------

# 32-bit words per read-ahead block, one getrandbits(32 * _BLOCK) call.
_BLOCK = 256


def residue_reader(p: int, rng, ahead: bool = False) -> Callable:
    """take(count), which returns the next `count` values that
    rng.randrange(p) would give on the `random.Random` rng, in order.

    CPython draws randrange(p) as getrandbits(k), k = p.bit_length(),
    redrawn while it is p or more, and for k <= 32 getrandbits(k) is the
    top k bits of one 32-bit output.  The exact reader (ahead false) makes
    those calls, one per value, and returns a list; it leaves rng exactly
    where the randrange calls would, so a caller that owns rng may go on
    drawing from it.  The read-ahead reader (ahead true, and p < 256 so
    that k <= 8) is for a caller that draws from rng through this reader
    alone: it takes _BLOCK outputs at a time as one getrandbits(32 *
    _BLOCK), whose 32-bit words are the outputs in order, lowest first,
    maps the top byte x of each to x >> (8 - k), drops the values p or
    more, and keeps what a take leaves for the next.  It returns bytes, the
    same values, and leaves rng up to a block ahead.  Over p >= 256 it is
    the exact reader.
    """
    k = p.bit_length()
    getrandbits = rng.getrandbits
    if not ahead or k > 8:
        def take(count: int) -> list:
            out = []
            for _ in range(count):
                x = getrandbits(k)
                while x >= p:
                    x = getrandbits(k)
                out.append(x)
            return out

        return take
    shift = 8 - k
    table = bytes(x >> shift for x in range(256))
    rejects = bytes(x for x in range(256) if x >> shift >= p)
    size = 32 * _BLOCK
    buf, pos = b"", 0

    def take(count: int) -> bytes:
        nonlocal buf, pos
        end = pos + count
        if end > len(buf):
            buf, pos, end = buf[pos:], 0, count
            while end > len(buf):
                raw = getrandbits(size).to_bytes(size >> 3, "little")
                buf += raw[3::4].translate(table, rejects)
        pos = end
        return buf[end - count:end]

    return take


# ----------------------------------------------------------------------
# elimination
# ----------------------------------------------------------------------


def _rref_dense(work: list[list[int]], pivot_cols: int, p: int):
    """In-place reduced row echelon form over GF(p).

    Pivots are searched only in the first `pivot_cols` columns (rows may be
    wider, e.g. when augmented with targets).  Returns (work, rank, pivots).
    """
    nrows = len(work)
    pivots: list[int] = []
    r = 0
    for c in range(pivot_cols):
        pr = None
        for i in range(r, nrows):
            if work[i][c]:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = pow(work[r][c], p - 2, p)
        if inv != 1:
            work[r] = [(x * inv) % p for x in work[r]]
        wr = work[r]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], wr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, r, pivots


@dataclass(frozen=True)
class Rref:
    """Reduced row echelon form together with rank and pivot columns."""

    matrix: Matrix
    rank: int
    pivots: tuple[int, ...]


def rref(m: Matrix) -> Rref:
    """The unique reduced row echelon form of m (same shape, zero rows kept)."""
    rows, rank, pivots = _rref_dense(m.row_lists(), m.cols, m.field.modulus)
    entries = tuple(x for r in rows for x in r)
    return Rref(Matrix(m.field, m.rows, m.cols, entries), rank, tuple(pivots))


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical (RREF) basis of the right null space {v : m v = 0}.

    Returns a full-row-rank matrix whose rows span the kernel; the zero
    kernel comes back as a 0 x cols matrix.
    """
    red = rref(m)
    pivset = set(red.pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    p = m.field.modulus
    vecs = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for i, c in enumerate(red.pivots):
            v[c] = (-red.matrix.at(i, f)) % p
        vecs.append(v)
    rr = rref(Matrix.from_rows(m.field, vecs, cols=m.cols))
    return Matrix(m.field, rr.rank, m.cols, rr.matrix.entries[: rr.rank * m.cols])


def solve(m: Matrix, targets: Matrix) -> Matrix | None:
    """One exact solution X of m @ X = targets, or None if there is none.

    The solution is canonical: all free variables are set to zero.  Targets
    may have several columns; all of them must be solvable.
    """
    if m.field != targets.field:
        raise ValueError("mixed fields")
    if m.rows != targets.rows:
        raise ValueError("m and targets must have the same number of rows")
    p = m.field.modulus
    nc, tc = m.cols, targets.cols
    work = [list(m.row(i)) + list(targets.row(i)) for i in range(m.rows)]
    work, rank, pivots = _rref_dense(work, nc, p)
    for i in range(rank, m.rows):
        if any(work[i][nc:]):
            return None
    out = [[0] * tc for _ in range(nc)]
    for i, c in enumerate(pivots):
        out[c] = work[i][nc:]
    return Matrix(m.field, nc, tc, tuple(x for r in out for x in r))


# ----------------------------------------------------------------------
# incremental row spans (used by the verifiers and the rank search)
# ----------------------------------------------------------------------


class _RowSpan:
    """The field-free part of an incremental row span.

    A subclass keeps `rows` in echelon form, so one pass of `reduce` gives a
    vector's canonical residue, 0 exactly in the span.  `add` returns an
    undo token, or None for a vector in the span, and `remove` takes tokens
    back in LIFO order.  `line_keys(pos, residues)` keys each residue's
    vector by its line: 0 exactly in the span, and equal for u and w outside
    it exactly when span + <u> == span + <w>.  Each residue must be
    congruent to its vector modulo the span and zero at the lead of every
    row but row pos.  Two kinds meet this: residues that `reduce` took
    before the add that returned token pos, and full residues, which row
    pos leaves unchanged.  Keys an earlier `line_keys` gave before that add
    serve as well: over GF(2) they are such residues, and over odd p the
    residues of nonzero multiples of their vectors, which key the same lines.
    """

    __slots__ = ("rows",)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return not self.reduce(v)

    def remove(self, pos: int) -> None:
        del self.rows[pos]


class Gf2RowSpan(_RowSpan):
    """Incremental row span over GF(2); rows are bit-packed ints.

    Rows are kept in echelon form (distinct leading bits, descending), so a
    single pass reduces a vector.
    """

    __slots__ = ()

    def __init__(self) -> None:
        self.rows: list[int] = []

    def reduce(self, v: int) -> int:
        for r in self.rows:
            w = v ^ r
            if w < v:
                v = w
        return v

    def line_keys(self, pos: int, residues) -> list:
        """Reducing by row pos alone gives the canonical residue, and over
        GF(2) each nonzero residue is its own line."""
        x = self.rows[pos]
        top = 1 << (x.bit_length() - 1)
        return [v ^ x if v & top else v for v in residues]

    def add(self, v: int):
        v = self.reduce(v)
        if v == 0:
            return None
        rows = self.rows
        pos = 0
        while pos < len(rows) and rows[pos] > v:
            pos += 1
        rows.insert(pos, v)
        return pos

    def copy(self) -> "Gf2RowSpan":
        dup = Gf2RowSpan()
        dup.rows = list(self.rows)
        return dup


class ModRowSpan(_RowSpan):
    """Incremental row span over odd GF(p); rows normalized to unit leading entry.

    Same interface as Gf2RowSpan on the lane-packed vectors of `vectors(p)`;
    a plain sequence of residues is packed on entry.  Rows are kept as
    (lead, row) in ascending lead, where lead is the bit offset of the row's
    first nonzero lane, so a single pass of whole-int multiply-adds reduces a
    vector.
    """

    __slots__ = ("p", "lanes")

    def __init__(self, p: int) -> None:
        self.p = p
        self.lanes = _lanes(p)
        self.rows: list[tuple[int, int]] = []

    def reduce(self, v) -> int:
        """The canonical residue of v modulo the span."""
        p = self.p
        _, mask, again, reduce, pack, _, _ = self.lanes
        if not isinstance(v, int):
            v = pack(v)
        room = again
        for lead, row in self.rows:
            c = ((v >> lead) & mask) % p
            if c:
                if not room:
                    v = reduce(v)
                    room = again
                v += (p - c) * row
                room -= 1
        return v if room == again else reduce(v)

    def _lead(self, v: int) -> tuple[int, int]:
        """(bit offset of v's first nonzero lane, v scaled to a 1 there)."""
        low = (v & -v).bit_length() - 1
        lead = low - low % self.lanes.width
        x = (v >> lead) & self.lanes.mask
        if x != 1:
            v = self.lanes.reduce(v * pow(x, self.p - 2, self.p))
        return lead, v

    def line_keys(self, pos: int, residues) -> list:
        """Reducing by row pos alone gives the canonical residue, scaled
        here to a unit first nonzero entry: residues on one line differ by
        a nonzero factor."""
        lead, x = self.rows[pos]
        p, mask, reduce = self.p, self.lanes.mask, self.lanes.reduce
        keys = []
        for v in residues:
            c = (v >> lead) & mask
            if c:
                v = reduce(v + (p - c) * x)
            keys.append(self._lead(v)[1] if v else 0)
        return keys

    def add(self, v):
        v = self.reduce(v)
        if not v:
            return None
        lead, v = self._lead(v)
        rows = self.rows
        pos = 0
        while pos < len(rows) and rows[pos][0] < lead:
            pos += 1
        rows.insert(pos, (lead, v))
        return pos

    def copy(self) -> "ModRowSpan":
        dup = ModRowSpan.__new__(ModRowSpan)
        dup.p, dup.lanes, dup.rows = self.p, self.lanes, list(self.rows)
        return dup


def make_row_span(p: int):
    """Row-span accumulator for the vectors of `vectors(p)`."""
    return Gf2RowSpan() if p == 2 else ModRowSpan(p)
