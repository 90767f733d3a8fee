"""Field and matrix layer: elimination, kernels, solving, row spans."""

import random
import re
from pathlib import Path

import pytest

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
    rref,
    solve,
    unpack_bits,
    vectors,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)


def rand_matrix(field, rows, cols, rng):
    p = field.modulus
    return Matrix(field, rows, cols, tuple(rng.randrange(p) for _ in range(rows * cols)))


def test_field_validation():
    assert FieldSpec(2).modulus == 2
    assert str(FieldSpec(7)) == "GF(7)"
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
    assert (a + b).entries == (0, 1, 1, 0)
    assert (a @ b).entries == (0, 1, 1, 1)
    assert a.transpose().entries == (1, 0, 1, 1)
    assert Matrix.zeros(GF2, 2, 2).is_zero()
    assert not a.is_zero()
    c = Matrix.from_rows(F3, [[1, 2], [0, 1]])
    assert c.scale(2).entries == (2, 1, 0, 2)


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
                assert prod.is_zero()


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


def test_bit_packing_roundtrip():
    assert pack_bits([1, 0, 1, 1]) == 0b1101
    assert unpack_bits(0b1101, 4) == (1, 0, 1, 1)
    rng = random.Random(5)
    for _ in range(30):
        w = rng.randrange(1, 12)
        v = [rng.randrange(2) for _ in range(w)]
        assert list(unpack_bits(pack_bits(v), w)) == v


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_vectors_match_the_matrix_layer(p):
    # pack/unpack/combine against Matrix.__matmul__ and rref, on seeded inputs
    field = FieldSpec(p)
    vec = vectors(p)
    rng = random.Random(100 + p)
    for _ in range(60):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 9)
        v = [rng.randrange(p) for _ in range(rows)]
        m = rand_matrix(field, rows, cols, rng)
        assert vec.unpack(vec.pack(v), rows) == tuple(v)
        packed_rows = [vec.pack(m.row(i)) for i in range(rows)]
        product = Matrix(field, 1, rows, tuple(v)) @ m
        assert vec.unpack(vec.combine(vec.pack(v), packed_rows), cols) == product.entries
        span = make_row_span(p)
        for r in packed_rows:
            span.add(r)
        assert span.dim == rref(m).rank


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
