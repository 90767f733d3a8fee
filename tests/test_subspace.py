"""Canonical subspaces: arithmetic, enumeration order, sampling."""

import itertools
import random

import pytest

from dimspread.errors import BudgetExceeded
from dimspread.gfp import GF2, FieldSpec, Matrix
from dimspread.subspace import (
    Subspace,
    apply_map,
    enumerate_subspaces,
    grassmann_count,
    kernel,
    sample_subspace,
    sample_with_rng,
    span_of,
)
from oracles import gaussian_binomial, rank_mod_p, replay_draws, rref_mod_p

F3 = FieldSpec(3)


def line(field, *vec):
    return span_of(Matrix.from_rows(field, [vec]))


def basis_subspace(field, n, rows):
    """The validated subspace whose canonical basis is `rows`, as
    `sample_subspace` builds it from a draw."""
    return Subspace(field, n, Matrix(field, len(rows), n, tuple(x for r in rows for x in r)))


def test_span_of_duplicates():
    u = span_of(Matrix.from_rows(GF2, [[1, 0], [1, 0]]))
    assert u.dim == 1
    assert u.basis.entries == (1, 0)


def test_span_of_zero_rows():
    u = span_of(Matrix.zeros(GF2, 0, 3))
    assert u == Subspace.zero(GF2, 3)
    assert u.dim == 0


def test_span_of_canonicalizes():
    u = span_of(Matrix.from_rows(GF2, [[1, 1, 0], [0, 1, 1]]))
    # RREF of the two rows: clean the second pivot out of the first row
    assert u.basis.row_lists() == [[1, 0, 1], [0, 1, 1]]


def test_canonical_basis_enforced():
    with pytest.raises(ValueError, match="pivot column is not clean"):
        Subspace(GF2, 2, Matrix.from_rows(GF2, [[1, 1], [0, 1]]))  # col 1 not clean
    with pytest.raises(ValueError, match="pivot column is not clean"):
        # the stray entry sits in a row below the pivot row, in a row that
        # is itself checked only later
        Subspace(GF2, 3, Matrix.from_rows(GF2, [[1, 0, 0], [0, 1, 0], [1, 0, 1]]))
    with pytest.raises(ValueError, match="pivots are not strictly increasing"):
        Subspace(GF2, 2, Matrix.from_rows(GF2, [[0, 1], [1, 0]]))  # pivots decrease
    with pytest.raises(ValueError, match="basis contains a zero row"):
        Subspace(GF2, 2, Matrix.from_rows(GF2, [[0, 0]]))  # zero row
    with pytest.raises(ValueError, match="pivot is not normalized to 1"):
        Subspace(F3, 2, Matrix.from_rows(F3, [[2, 0]]))  # pivot not 1


def test_sum_with_zero():
    a = line(GF2, 1, 1, 0)
    assert a + Subspace.zero(GF2, 3) == a


def test_sum_spans_plane():
    got = line(GF2, 1, 0) + line(GF2, 0, 1)
    assert got == Subspace.full(GF2, 2)


def test_sum_of_distinct_lines():
    got = line(GF2, 1, 1, 1) + line(GF2, 1, 1, 0)
    assert got.dim == 2


def test_membership_and_containment():
    u = span_of(Matrix.from_rows(F3, [[1, 0, 2], [0, 1, 1]]))
    # membership is containment of the vector's line
    assert line(F3, 1, 1, 3) <= u  # = row0 + row1 mod 3
    assert not (line(F3, 1, 0, 0) <= u)
    assert line(F3, 1, 0, 2) <= u
    assert not (u <= line(F3, 1, 0, 2))


def _all_subspaces(n, p):
    field = FieldSpec(p)
    return [u for s in range(n + 1) for u in enumerate_subspaces(n, s, field)]


def _rows(u):
    return [u.basis.row(i) for i in range(u.dim)]


@pytest.mark.parametrize("n, p", [(3, 2), (2, 3)])
def test_containment_matches_rank_oracle(n, p):
    # U <= W exactly when stacking U's basis under W's leaves the rank at dim W.
    subs = _all_subspaces(n, p)
    for u, w in itertools.product(subs, repeat=2):
        assert (u <= w) == (rank_mod_p(_rows(w) + _rows(u), p) == w.dim)


def test_membership_matches_rank_oracle():
    # v is in U (its line lies in U) exactly when appending v leaves the rank
    # at dim U; entries are read mod p, so v - p (entrywise) gives the same
    # answer.
    n, p = 2, 5
    field = FieldSpec(p)
    for u in _all_subspaces(n, p):
        for v in itertools.product(range(p), repeat=n):
            want = rank_mod_p(_rows(u) + [v], p) == u.dim
            assert (line(field, *v) <= u) == want
            assert (line(field, *(x - p for x in v)) <= u) == want


@pytest.mark.parametrize("p, rows, cols", [(2, 3, 3), (3, 3, 2), (5, 2, 3)])
def test_apply_map_matches_entrywise_images(p, rows, cols):
    # The image of U is the row space of the images M v of U's basis vectors,
    # each formed entry by entry; maps may be non-square.
    field = FieldSpec(p)
    rng = random.Random(p * 100 + rows * 10 + cols)
    subs = _all_subspaces(cols, p)
    for _ in range(4):
        m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        mat = Matrix.from_rows(field, m)
        for u in subs:
            images = [[sum(a * b for a, b in zip(r, v)) % p for r in m] for v in _rows(u)]
            img = apply_map(mat, u)
            assert img.ambient == rows
            assert _rows(img) == rref_mod_p(images, p)


def test_apply_map_identity():
    u = span_of(Matrix.from_rows(GF2, [[1, 0, 1], [0, 1, 0]]))
    assert apply_map(Matrix.identity(GF2, 3), u) == u


def test_apply_map_nilpotent():
    n = Matrix.from_rows(GF2, [[0, 1], [0, 0]])  # e2 -> e1, e1 -> 0
    assert apply_map(n, line(GF2, 1, 0)).dim == 0
    assert apply_map(n, line(GF2, 0, 1)) == line(GF2, 1, 0)
    assert apply_map(n, Subspace.full(GF2, 2)) == line(GF2, 1, 0)


def test_apply_map_cycle_fixed_line():
    c = Matrix.from_rows(GF2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    diag = line(GF2, 1, 1, 1)
    assert apply_map(c, diag) == diag


def test_kernel_subspace():
    e11 = Matrix.from_rows(GF2, [[1, 0], [0, 0]])
    assert kernel(e11) == line(GF2, 0, 1)
    assert kernel(Matrix.identity(F3, 2)).dim == 0


def test_kernel_of_basis_involution():
    # kernel(u.basis) is every w orthogonal to u, and taking it twice gives u
    rng = random.Random(23)
    for p in (2, 3):
        field = FieldSpec(p)
        for _ in range(25):
            n = rng.randrange(1, 5)
            s = rng.randrange(0, n + 1)
            u = basis_subspace(field, n, sample_with_rng(n, s, field, rng))
            perp = kernel(u.basis)
            assert perp.dim == n - u.dim
            assert kernel(perp.basis) == u


def test_dimension_formula_exhaustive():
    # dim(a + b) is the rank of the stacked bases, over every pair in GF(2)^4
    all_subs = _all_subspaces(4, 2)
    assert len(all_subs) == 67
    for a in all_subs:
        for b in all_subs:
            assert (a + b).dim == rank_mod_p(_rows(a) + _rows(b), 2)


def test_mixed_space_operations_rejected():
    with pytest.raises(ValueError):
        line(GF2, 1, 0) + line(GF2, 1, 0, 0)
    with pytest.raises(ValueError):
        line(GF2, 1, 0) + line(F3, 1, 0)


def test_grassmann_count_against_oracle():
    for p in (2, 3, 5):
        for n in range(5):
            for s in range(n + 1):
                assert grassmann_count(n, s, p) == gaussian_binomial(n, s, p)
    assert grassmann_count(3, 4, 2) == 0
    assert grassmann_count(3, -1, 2) == 0


def test_grassmann_count_is_symmetric():
    for p in (2, 3, 5):
        for n in range(12):
            for s in range(n + 1):
                assert grassmann_count(n, s, p) == grassmann_count(n, n - s, p)
                assert grassmann_count(n, s, p) == gaussian_binomial(n, s, p)
    # the whole space, and its hyperplanes: one per nonzero functional
    assert grassmann_count(1100, 1100, 2) == 1
    assert grassmann_count(1100, 1099, 2) == 2**1100 - 1


def test_enumeration_counts_and_uniqueness():
    for p in (2, 3):
        field = FieldSpec(p)
        for n in range(5):
            for s in range(n + 1):
                subs = list(enumerate_subspaces(n, s, field))
                assert len(subs) == gaussian_binomial(n, s, p)
                assert len(set(subs)) == len(subs)
                assert all(u.dim == s for u in subs)


def test_line_order_frozen():
    # first-counterexample semantics depend on this exact order
    got = [u.basis.entries for u in enumerate_subspaces(3, 1, GF2)]
    assert got == [
        (1, 0, 0),
        (1, 0, 1),
        (1, 1, 0),
        (1, 1, 1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 0, 1),
    ]


def test_enumeration_budget_is_eager():
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_subspaces(10, 5, GF2, enumeration_cap=100)
    assert exc.value.cap == 100
    assert exc.value.needed == grassmann_count(10, 5, 2)


def test_sampling_determinism_and_edges():
    assert sample_subspace(5, 2, GF2, 99) == sample_subspace(5, 2, GF2, 99)
    assert sample_subspace(4, 0, F3, 1) == Subspace.zero(F3, 4)
    assert sample_subspace(4, 4, F3, 1) == Subspace.full(F3, 4)
    with pytest.raises(ValueError):
        sample_subspace(3, 4, GF2, 0)


def test_sampling_is_roughly_uniform():
    # 7000 draws over the 7 lines of GF(2)^3; chi-square, df = 6.
    lines = list(enumerate_subspaces(3, 1, GF2))
    counts = dict.fromkeys(lines, 0)
    rng = random.Random(1234)
    draws = 7000
    for _ in range(draws):
        counts[basis_subspace(GF2, 3, sample_with_rng(3, 1, GF2, rng))] += 1
    expected = draws / len(lines)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 22.458  # critical value at alpha = 0.001


@pytest.mark.parametrize("p, shapes", [
    (2, [(1, 1), (3, 3), (4, 2), (5, 5), (6, 3), (3, 0), (10, 5), (10, 2)]),
    (3, [(2, 2), (3, 1), (4, 4), (5, 2), (4, 0), (10, 5), (10, 2)]),
    (5, [(1, 1), (3, 3), (4, 2), (3, 0)]),
    (7, [(1, 1), (3, 3), (4, 2), (3, 0)]),
    (13, [(2, 2), (4, 1), (3, 0)]),
    (257, [(2, 2), (3, 1), (2, 0)]),
    (65521, [(2, 2), (3, 1), (2, 0)]),
])
def test_sampler_matches_plain_int_replay(p, shapes):
    # The draw protocol is part of the contract: the same seed must give the
    # same subspaces and leave the RNG in the same state.  s = n shapes reject
    # most attempts over GF(2): about 0.3 of square draws are invertible.
    # s = 0 shapes give the zero subspace and draw nothing.  The moduli give
    # p.bit_length() from 2 to 16 and per-entry rejection rates from 0.0002
    # (p = 65521, just below 2^16) to 0.5 (p = 2 and 257), so both the width
    # of each draw and the number of redraws vary.  The (10, 5) and (10, 2)
    # shapes are the ones the sampled benchmark draws.  The sampler returns
    # rows without validating them, so every basis it returns is built into
    # a validated subspace here.
    field = FieldSpec(p)
    for n, s in shapes:
        for seed in range(3):
            rng, ref = random.Random(seed), random.Random(seed)
            want = replay_draws(n, s, p, ref, 15)
            for rows in want:
                got = sample_with_rng(n, s, field, rng)
                assert tuple(map(tuple, got)) == rows
                sub = basis_subspace(field, n, got)
                assert sub.dim == s
                assert sub.basis.entries == tuple(x for r in rows for x in r)
            assert rng.getstate() == ref.getstate()
