"""Field and matrix layer: elimination, kernels, solving, row spans."""

import random
import re
from itertools import product
from pathlib import Path

import pytest
from oracles import combine, rank_mod_p

import dimspread
from dimspread.gfp import (
    GF2,
    FieldSpec,
    Gf2RowSpan,
    Matrix,
    ModRowSpan,
    kernel_basis,
    make_row_span,
    pack_bits,
    residue_reader,
    rref,
    solve,
    unpack_bits,
    vectors,
)
from dimspread.subspace import Subspace, apply_map, enumerate_subspaces
from dimspread.tensor import Decomposition

F3 = FieldSpec(3)
F5 = FieldSpec(5)


def rand_matrix(field, rows, cols, rng):
    p = field.modulus
    return Matrix(field, rows, cols, tuple(rng.randrange(p) for _ in range(rows * cols)))


def test_field_validation():
    assert FieldSpec(2).modulus == 2
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)
    with pytest.raises(ValueError):
        FieldSpec((1 << 16) + 1)  # 65537 is prime but over the limit


def test_field_inverse():
    for p in (2, 3, 5, 7, 251):
        f = FieldSpec(p)
        for a in range(1, p):
            assert (a * f.inv(a)) % p == 1
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


def test_matrix_construction():
    m = Matrix.from_rows(F3, [[1, 5], [-1, 3]])
    assert m.entries == (1, 2, 2, 0)  # reduced mod 3
    with pytest.raises(ValueError):
        Matrix(F3, 1, 2, (1, 3))  # 3 is not reduced
    with pytest.raises(ValueError):
        Matrix(F3, 2, 2, (1, 1, 1))  # entry count mismatch
    with pytest.raises(ValueError):
        Matrix.from_rows(F3, [], cols=None)


def test_matrix_arithmetic():
    a = Matrix.from_rows(GF2, [[1, 1], [0, 1]])
    b = Matrix.from_rows(GF2, [[1, 0], [1, 1]])
    assert (a @ b).entries == (0, 1, 1, 1)
    assert a.transpose().entries == (1, 0, 1, 1)
    assert not any(Matrix.zeros(GF2, 2, 2).entries)
    assert any(a.entries)


def test_rref_identity():
    m = Matrix.identity(GF2, 2)
    red = rref(m)
    assert red.matrix == m
    assert red.rank == 2
    assert red.pivots == (0, 1)


def test_rref_duplicate_rows():
    m = Matrix.from_rows(GF2, [[1, 1], [1, 1]])
    red = rref(m)
    assert red.matrix.entries == (1, 1, 0, 0)
    assert red.rank == 1
    assert red.pivots == (0,)


def test_rref_mod5():
    # [[1,2],[2,4]]: second row is twice the first
    m = Matrix.from_rows(F5, [[1, 2], [2, 4]])
    red = rref(m)
    assert red.matrix.entries == (1, 2, 0, 0)
    assert red.rank == 1
    assert red.pivots == (0,)


def test_rref_idempotent():
    rng = random.Random(42)
    for p in (2, 3, 5):
        field = FieldSpec(p)
        for _ in range(40):
            m = rand_matrix(field, rng.randrange(1, 6), rng.randrange(1, 6), rng)
            once = rref(m)
            again = rref(once.matrix)
            assert again.matrix == once.matrix
            assert again.rank == once.rank


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for p in (2, 3, 5):
        field = FieldSpec(p)
        for _ in range(60):
            m = rand_matrix(field, rng.randrange(1, 9), rng.randrange(1, 9), rng)
            assert rref(m).rank == rref(m.transpose()).rank


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(GF2, 3)).rows == 0
    z = kernel_basis(Matrix.zeros(F3, 2, 2))
    assert z == Matrix.identity(F3, 2)  # full space, canonical basis
    e11 = Matrix.from_rows(GF2, [[1, 0], [0, 0]])
    k = kernel_basis(e11)
    assert k.entries == (0, 1)  # span{e2}


def test_rank_nullity():
    rng = random.Random(3)
    for p in (2, 3, 5):
        field = FieldSpec(p)
        for _ in range(60):
            m = rand_matrix(field, rng.randrange(1, 7), rng.randrange(1, 7), rng)
            red = rref(m)
            k = kernel_basis(m)
            assert red.rank + k.rows == m.cols
            if k.rows:
                # every kernel row really is annihilated
                prod = m @ k.transpose()
                assert not any(prod.entries)


def test_solve_identity():
    t = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    x = solve(Matrix.identity(F5, 2), t)
    assert x == t


def test_solve_no_solution():
    m = Matrix.from_rows(GF2, [[1], [0]])
    target = Matrix.from_rows(GF2, [[0], [1]])
    assert solve(m, target) is None


def test_solve_span_membership():
    # columns vec(I), vec(N), vec(N^T); target vec(J); I+N+N^T = J over GF(2)
    vecs = [(1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)]
    m = Matrix.from_rows(GF2, vecs).transpose()
    target = Matrix.from_rows(GF2, [(1, 1, 1, 1)]).transpose()
    x = solve(m, target)
    assert x is not None
    assert x.entries == (1, 1, 1)


def test_solve_exactness_random():
    rng = random.Random(11)
    for p in (2, 3, 5):
        field = FieldSpec(p)
        for _ in range(50):
            m = rand_matrix(field, rng.randrange(1, 6), rng.randrange(1, 6), rng)
            # build guaranteed-solvable targets from a random X
            x = rand_matrix(field, m.cols, rng.randrange(1, 4), rng)
            targets = m @ x
            got = solve(m, targets)
            assert got is not None
            assert m @ got == targets


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve(Matrix.identity(GF2, 2), Matrix.identity(GF2, 3))


# Argument checks of the field, subspace and tensor layers, one call each.
_BAD_CALLS = [
    (lambda: FieldSpec(2.0), "modulus must be an int"),
    (lambda: Matrix(GF2, -1, 0, ()), "dimensions must be non-negative"),
    (lambda: Matrix.from_rows(GF2, [[1, 0], [1]]), "rows have inconsistent lengths"),
    (lambda: Matrix.identity(GF2, 2) @ Matrix.identity(F3, 2), "mixed fields"),
    (lambda: Matrix.identity(GF2, 2) @ Matrix.identity(GF2, 3), "inner dimensions do not match"),
    (lambda: solve(Matrix.identity(GF2, 2), Matrix.identity(F3, 2)), "mixed fields"),
    (lambda: Subspace(GF2, 2, Matrix.identity(F3, 2)), "basis field does not match"),
    (lambda: Subspace(GF2, 3, Matrix.identity(GF2, 2)), "basis width does not match"),
    (lambda: apply_map(Matrix.identity(F3, 2), Subspace.full(GF2, 2)), "mixed fields"),
    (lambda: apply_map(Matrix.identity(GF2, 3), Subspace.full(GF2, 2)), "map domain does not match"),
    (lambda: enumerate_subspaces(3, 4, GF2), "dimension 4 is not between 0 and 3"),
    (lambda: Decomposition(GF2, (0, 1, 1), ()), "dimensions must be positive"),
]


@pytest.mark.parametrize("call, message", _BAD_CALLS)
def test_bad_arguments_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_bit_packing_roundtrip():
    assert pack_bits([1, 0, 1, 1]) == 0b1101
    assert unpack_bits(0b1101, 4) == (1, 0, 1, 1)
    rng = random.Random(5)
    for _ in range(30):
        w = rng.randrange(1, 12)
        v = [rng.randrange(2) for _ in range(w)]
        assert list(unpack_bits(pack_bits(v), w)) == v


def bit_loop(seq):
    """Reference bit packing: bit j is set exactly when entry j is nonzero."""
    v = 0
    for j, x in enumerate(seq):
        if x:
            v |= 1 << j
    return v


def test_pack_bits_matches_the_bit_loop():
    rng = random.Random(6)
    for w in (0, 1, 7, 8, 9, 63, 64, 65, 130):
        for _ in range(5):
            v = [rng.randrange(2) for _ in range(w)]
            for seq in (v, tuple(v), bytes(v)):
                assert pack_bits(seq) == bit_loop(seq)
    assert pack_bits(()) == pack_bits(b"") == pack_bits([]) == 0
    assert pack_bits([0] * 70) == 0 and pack_bits([1] * 70) == 2**70 - 1


# Moduli with k = p.bit_length() from 2 to 16 and per-value rejection rates
# from 0.0002 to 0.5; p >= 256 has k > 8, where read-ahead is the exact loop.
READER_MODULI = (2, 3, 5, 7, 13, 17, 251, 257, 65521)


def reader_sizes():
    """Take sizes 0, 1, B - 1, B, B + 1 and above B for B words per block.
    A block gives fewer than B values, so the larger takes cross one or more
    block boundaries, and the small ones start part way into a block."""
    b = dimspread.gfp._BLOCK
    return [0, 1, b - 1, 0, b, 1, b + 1, 3 * b + 7, 2, b - 1]


@pytest.mark.parametrize("p", READER_MODULI)
def test_read_ahead_reader_gives_the_randrange_values(p):
    # The values are the contract: the same seed gives the same values as
    # randrange(p), in order, however they are split into takes.
    for seed in range(3):
        take, ref = residue_reader(p, random.Random(seed), ahead=True), random.Random(seed)
        for count in reader_sizes():
            got = take(count)
            assert list(got) == [ref.randrange(p) for _ in range(count)]
        if p < 256:
            assert isinstance(got, bytes)


@pytest.mark.parametrize("p", READER_MODULI)
def test_exact_reader_leaves_the_rng_where_randrange_does(p):
    # A caller that owns the RNG may go on drawing from it after each take.
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        take = residue_reader(p, rng)
        for count in reader_sizes():
            assert take(count) == [ref.randrange(p) for _ in range(count)]
            assert rng.getstate() == ref.getstate()


def xor_rref(rows, cols):
    """Reference GF(2) Gauss-Jordan on rows packed as ints (bit j = column j):
    first pivot row in column order, eliminated above and below."""
    work = [sum(x << j for j, x in enumerate(r)) for r in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(work)) if work[i] >> c & 1), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        for i in range(len(work)):
            if i != r and work[i] >> c & 1:
                work[i] ^= work[r]
        pivots.append(c)
    entries = tuple(w >> j & 1 for w in work for j in range(cols))
    return entries, len(pivots), tuple(pivots)


def test_gf2_paths_agree():
    # rref over GF(2) must match an independent packed-XOR elimination
    rng = random.Random(13)
    for _ in range(80):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = rand_matrix(GF2, rows, cols, rng)
        red = rref(m)
        assert (red.matrix.entries, red.rank, red.pivots) == xor_rref(m.row_lists(), cols)


def test_row_span_incremental():
    span = Gf2RowSpan()
    t1 = span.add(pack_bits([1, 1, 0]))
    assert t1 is not None and span.dim == 1
    assert span.add(pack_bits([1, 1, 0])) is None  # dependent
    t2 = span.add(pack_bits([0, 1, 1]))
    assert span.dim == 2
    assert span.contains(pack_bits([1, 0, 1]))  # sum of the two
    span.remove(t2)
    assert span.dim == 1
    assert not span.contains(pack_bits([0, 1, 1]))
    span.remove(t1)
    assert span.dim == 0


def test_mod_row_span_matches_rank():
    rng = random.Random(17)
    for p in (3, 5):
        field = FieldSpec(p)
        for _ in range(40):
            m = rand_matrix(field, rng.randrange(1, 6), rng.randrange(1, 6), rng)
            span = ModRowSpan(p)
            for i in range(m.rows):
                span.add(list(m.row(i)))
            assert span.dim == rref(m).rank
            for i in range(m.rows):
                assert span.contains(list(m.row(i)))


def test_make_row_span_dispatch():
    assert isinstance(make_row_span(2), Gf2RowSpan)
    assert isinstance(make_row_span(3), ModRowSpan)


# One prime per vector regime: bits, 8-bit lanes reduced after 63, 15, 6 and
# 1 terms, and 16-, 24- and 32-bit lanes.
PRIMES = [2, 3, 5, 7, 13, 17, 257, 65521]


@pytest.mark.parametrize("p", PRIMES)
def test_field_vectors_match_the_matrix_layer(p):
    # pack/unpack/images against Matrix.__matmul__ and rref, on seeded inputs
    field = FieldSpec(p)
    vec = vectors(p)
    rng = random.Random(100 + p)
    for _ in range(60):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 9)
        v = [rng.randrange(p) for _ in range(rows)]
        m = rand_matrix(field, rows, cols, rng)
        assert vec.unpack(vec.pack(v), rows) == tuple(v)
        packed_rows = [vec.pack(m.row(i)) for i in range(rows)]
        prod = Matrix(field, 1, rows, tuple(v)) @ m
        assert vec.unpack(vec.images(packed_rows)(vec.pack(v)), cols) == prod.entries
        span = make_row_span(p)
        for r in packed_rows:
            span.add(r)
        assert span.dim == rref(m).rank


def row_sets(rng, n, draw):
    """Random rows, and rows with a zero row and a repeated row among them."""
    plain = [draw() for _ in range(n)]
    degenerate = list(plain)
    degenerate[0] = 0
    degenerate[n // 2] = degenerate[-1]
    return plain, degenerate


def check_images(vec, p, n, width, coeffs, rows):
    """images(rows) against oracles.combine on the unpacked residue lists."""
    image = vec.images(rows)
    plain = [vec.unpack(row, width) for row in rows]
    for v in coeffs:
        assert vec.unpack(image(v), width) == combine(vec.unpack(v, n), plain, p)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17])
def test_gf2_images_match_combine(n):
    # one 2**8-entry table per 8 rows: n = 8, 9, 16 and 17 straddle the
    # chunks, and n <= 9 is checked at every coefficient vector
    vec = vectors(2)
    rng = random.Random(400 + n)
    coeffs = range(2**n) if n <= 9 else [rng.getrandbits(n) for _ in range(2000)]
    for rows in row_sets(rng, n, lambda: rng.getrandbits(n + 3)):
        check_images(vec, 2, n, n + 3, coeffs, rows)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 257])
def test_odd_images_match_combine(p):
    # 11 and 13 form an image as one product up to 2 rows and 1 row and term
    # by term beyond; 257 has 16-bit lanes; the lane term budget is crossed
    # in test_combine_at_the_lane_term_budget
    vec = vectors(p)
    rng = random.Random(500 + p)
    for n in range(1, 7):
        width = rng.randrange(1, 8)
        coeffs = [vec.pack([rng.randrange(p) for _ in range(n)]) for _ in range(300)]
        coeffs.append(vec.pack([p - 1] * n))
        draw = lambda: vec.pack([rng.randrange(p) for _ in range(width)])
        for rows in row_sets(rng, n, draw):
            check_images(vec, p, n, width, coeffs, rows)


@pytest.mark.parametrize("p", PRIMES)
def test_fill_lists_every_value_at_cols_in_lex_order(p):
    # base holds p - 1 at every coordinate off cols, so a carry out of a
    # filled coordinate would change its neighbour; cols skip a coordinate
    # between each other and end at the top one.  k columns give p**k
    # vectors, at most 4 columns and at most 70,000 vectors.
    vec = vectors(p)
    rng = random.Random(600 + p)
    k = 1
    while k < 4 and p ** (k + 1) <= 70_000:
        k += 1
    for _ in range(3):
        n = rng.randrange(2 * k, 2 * k + 4)
        cols = sorted([n - 1] + rng.sample(range(n - 3, -1, -2), k - 1))
        base = [0 if j in cols else p - 1 for j in range(n)]
        want = []
        for values in product(range(p), repeat=k):
            row = list(base)
            for c, x in zip(cols, values):
                row[c] = x
            want.append(vec.pack(row))
        assert vec.fill(vec.pack(base), cols) == want
        assert vec.fill(vec.pack(base), ()) == [vec.pack(base)]


@pytest.mark.parametrize("p", PRIMES)
def test_row_span_protocol(p):
    # dim, contains, remove and the undo tokens, on the span class of each
    # field: an add returns None exactly for a vector in the span, and
    # removing the tokens in LIFO order restores each earlier span.
    vec = vectors(p)
    rng = random.Random(700 + p)
    for _ in range(30):
        width = rng.randrange(1, 7)
        span = Gf2RowSpan() if p == 2 else ModRowSpan(p)
        rows = [[rng.randrange(p) for _ in range(width)] for _ in range(rng.randrange(1, 8))]
        probes = [[rng.randrange(p) for _ in range(width)] for _ in range(6)] + rows
        kept, undo = [], []
        for row in rows:
            before = (span.dim, list(span.rows), [span.contains(vec.pack(w)) for w in probes])
            tok = span.add(vec.pack(row))
            assert (tok is None) == (rank_mod_p(kept + [row], p) == len(kept))
            if tok is not None:
                kept.append(row)
                undo.append((tok, before))
            assert span.dim == len(kept)
            assert [span.contains(vec.pack(w)) for w in probes] == [
                rank_mod_p(kept + [w], p) == len(kept) for w in probes]
        for tok, before in reversed(undo):
            span.remove(tok)
            assert (span.dim, span.rows, [span.contains(vec.pack(w)) for w in probes]) == before
        assert span.dim == 0


def last_add(p, rng, width):
    """(span, prev, tok, rows): a span of random rows over GF(p)^width whose
    last add, of a row outside the others, returned tok; prev is a copy of
    the span from before that add, and rows lists every row added."""
    vec = vectors(p)
    span, rows = make_row_span(p), []
    for _ in range(rng.randrange(0, width)):
        rows.append([rng.randrange(p) for _ in range(width)])
        span.add(vec.pack(rows[-1]))
    while True:
        x = [rng.randrange(p) for _ in range(width)]
        if not span.contains(vec.pack(x)):
            break
    prev = span.copy()
    return span, prev, span.add(vec.pack(x)), rows + [x]


@pytest.mark.parametrize("p", PRIMES)
def test_line_key_decides_membership_in_span_plus_one_vector(p):
    # `line_keys` from residues taken before the last add: w lies in J + <v>
    # exactly when key(w) is 0 or key(v), checked by rref rank, so keys of
    # vectors outside J agree exactly when they give one J + <v>; and
    # key(c v) == key(v) for every nonzero c.
    field = FieldSpec(p)
    vec = vectors(p)
    rng = random.Random(200 + p)
    agree = set()
    for _ in range(80):
        width = rng.randrange(1, 7)
        span, prev, tok, basis = last_add(p, rng, width)
        v = [rng.randrange(p) for _ in range(width)]
        scaled = [[(c * x) % p for x in v]
                  for c in (range(1, p) if p < 20 else (2, 3, (p + 1) // 2, p - 1))]
        ws = []
        for _ in range(8):
            if rng.randrange(2):
                # c v plus a combination of J: always in J + <v>
                c = rng.randrange(p)
                w = [c * x for x in v]
                for row in basis:
                    a = rng.randrange(p)
                    w = [x + a * y for x, y in zip(w, row)]
                ws.append([x % p for x in w])
            else:
                ws.append([rng.randrange(p) for _ in range(width)])
        key_v, *keys = span.line_keys(tok, [prev.reduce(vec.pack(u)) for u in [v] + scaled + ws])
        assert keys[:len(scaled)] == [key_v] * len(scaled)
        rank_jv = rref(Matrix.from_rows(field, basis + [v], cols=width)).rank
        for w, key_w in zip(ws, keys[len(scaled):]):
            inside = rref(Matrix.from_rows(field, basis + [v, w], cols=width)).rank == rank_jv
            assert inside == (not key_w or key_w == key_v), (basis, v, w)
            agree.add((inside, bool(key_w), bool(key_v)))
    # every branch of the equivalence was reached
    assert {(True, False, False), (True, True, True), (False, True, True)} <= agree


@pytest.mark.parametrize("p", PRIMES)
def test_line_keys_from_residues_match_line_key(p):
    # Residues taken before the last add and full residues taken after it
    # give the same keys, and full residues the same keys by every row; the
    # keys are 0 exactly in the span, as for the added vector's multiples.
    vec = vectors(p)
    rng = random.Random(500 + p)
    for _ in range(60):
        width = rng.randrange(1, 8)
        span, prev, tok, rows = last_add(p, rng, width)
        probes = [vec.pack([rng.randrange(p) for _ in range(width)]) for _ in range(12)]
        probes += [vec.pack([(c * a) % p for a in rows[-1]]) for c in (1, p - 1)]
        keys = span.line_keys(tok, [prev.reduce(v) for v in probes])
        full = [span.reduce(v) for v in probes]
        assert all(span.line_keys(pos, full) == keys for pos in range(span.dim))
        assert [not k for k in keys] == [span.contains(v) for v in probes]
        assert keys[-2:] == [0, 0]


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_line_keys_rekeyed_row_by_row_match_full_residues(p):
    # The rank search keys the pool once and re-keys the keys by each row it
    # adds.  Over odd p a key is a nonzero multiple of a residue, so it keys
    # the same line: after every add the keys equal those of full residues.
    vec = vectors(p)
    rng = random.Random(700 + p)
    for _ in range(30):
        width = rng.randrange(2, 8)
        probes = [vec.pack([rng.randrange(p) for _ in range(width)]) for _ in range(12)]
        span = make_row_span(p)
        while not span.dim:
            span.add(vec.pack([rng.randrange(p) for _ in range(width)]))
        keys = span.line_keys(0, map(span.reduce, probes))
        for _ in range(width):
            tok = span.add(vec.pack([rng.randrange(p) for _ in range(width)]))
            if tok is not None:
                keys = span.line_keys(tok, keys)
            assert keys == span.line_keys(0, map(span.reduce, probes))


@pytest.mark.parametrize("p", [3, 5, 13, 65521])
def test_row_span_packs_residue_lists_on_entry(p):
    # A plain residue list and its packed vector are the same vector to a span.
    vec = vectors(p)
    rng = random.Random(300 + p)
    for _ in range(40):
        width = rng.randrange(1, 7)
        rows = [[rng.randrange(p) for _ in range(width)] for _ in range(rng.randrange(1, 6))]
        probes = [[rng.randrange(p) for _ in range(width)] for _ in range(4)] + rows[:1]
        plain, packed = ModRowSpan(p), ModRowSpan(p)
        for row in rows:
            assert plain.add(row) == packed.add(vec.pack(row))
            assert plain.dim == packed.dim
        for w in probes:
            assert plain.contains(w) == packed.contains(vec.pack(w))
            assert plain.reduce(w) == packed.reduce(vec.pack(w)) == plain.reduce(vec.pack(w))
        if plain.dim:
            assert (plain.line_keys(0, [plain.reduce(w) for w in probes])
                    == packed.line_keys(0, [packed.reduce(vec.pack(w)) for w in probes]))


# Terms per lane reduction: with every coefficient and entry p - 1, each term
# adds (p - 1)**2 to a lane, so these counts cross each lane's term budget
# (63 terms at p = 3, 15 at p = 5, 6 at p = 7, 2 at p = 11, one at p = 13 and
# p = 65521; 255 for the 16- and 24-bit lanes of 17 and 257) at least twice.
WORST_TERMS = {3: 130, 5: 34, 7: 18, 11: 6, 13: 4, 17: 520, 257: 520, 65521: 4}

# The most rows whose image the 8-bit lanes form as one product, where a
# lane's len(rows) * (p - 1)**2 stays below 256.
PRODUCT_TERMS = {3: 63, 5: 15, 7: 7, 11: 2, 13: 1}


@pytest.mark.parametrize("p", sorted(WORST_TERMS))
def test_combine_at_the_lane_term_budget(p):
    # for 8-bit lanes also at the most rows of the one-product image, and at
    # one more, where the term-by-term sum takes over
    vec = vectors(p)
    top = p - 1
    sizes = [WORST_TERMS[p]]
    if p in PRODUCT_TERMS:
        sizes += [PRODUCT_TERMS[p], PRODUCT_TERMS[p] + 1]
    for k in sizes:
        rows = [[top] * (k + 1) for _ in range(k)]
        rows[-1][-1] = 1  # so that the last lane differs from the others
        coeffs, packed = vec.pack([top] * k), [vec.pack(r) for r in rows]
        image = vec.images(packed)
        assert ("_product_images" in image.__qualname__) == (k <= PRODUCT_TERMS.get(p, 0))
        assert vec.unpack(image(coeffs), k + 1) == combine([top] * k, rows, p)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 65521])
def test_row_span_at_the_lane_term_budget(p):
    # Row i goes in as (p - 1) e_i + e_k and is kept as e_i + (p - 1) e_k, so
    # reducing sum(e_i) takes every row with factor p - 1, and each term adds
    # (p - 1)**2 to the last lane.
    vec = vectors(p)
    k, top = WORST_TERMS[p], p - 1
    basis = [[int(j == i) for j in range(k)] + [top] for i in range(k)]
    span = make_row_span(p)
    for i, row in enumerate(basis):
        prev = span.copy()
        assert span.add(vec.pack([top * x % p for x in row])) == i
    assert span.dim == rank_mod_p(basis, p) == k
    last = vec.pack([0] * k + [1])
    outside = []
    for x in sorted({0, 1, k % p, (-k) % p, top}):
        u = [1] * k + [x]
        inside = rank_mod_p(basis + [u], p) == k
        assert span.contains(vec.pack(u)) == inside
        # keyed from residues before the last add, which has token k - 1
        key, key_last = span.line_keys(k - 1, [prev.reduce(vec.pack(u)), prev.reduce(last)])
        assert (key == 0) == inside
        if not inside:
            # span + <u> is the whole space, as is span + <e_k>
            assert key == key_last
            outside.append(u)
    assert 0 < len(outside) < 5
    grown = span.copy()
    assert grown.add(vec.pack(outside[0])) == k
    assert grown.dim == rank_mod_p(basis + outside[:1], p) == k + 1
    assert grown.contains(last) and not span.contains(last)
    assert span.dim == k


def test_only_gfp_dispatches_on_the_modulus():
    # The vector representation of each field is decided in gfp alone.
    pattern = re.compile(r"\b(p|modulus)\s*==\s*2")
    offenders = [
        f"{path.name}:{no}: {line.strip()}"
        for path in sorted(Path(dimspread.__file__).parent.glob("*.py"))
        if path.name != "gfp.py"
        for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []
