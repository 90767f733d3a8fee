"""Order-3 tensors and the exact rank search."""

import random

import pytest

import dimspread.tensor as tensor_module
from dimspread.errors import BudgetExceeded, DecompositionMismatch, SpanFailure
from dimspread.gfp import GF2, FieldSpec, Matrix, rref
from dimspread.tensor import (
    Decomposition,
    RankOneTerm,
    Tensor3,
    eval_decomposition,
    min_spanning_rank_ones,
    reconstruct_decomposition,
    slice_tensor,
    tensor_rank,
    _proj_reps,
    _rank_one_factors,
)
from oracles import (
    _projective_vectors,
    direct_tensor_rank,
    lex_first_spanning_rank_ones,
    pair_sums,
    rank_mod_p,
    rank_one_pool,
)

F3 = FieldSpec(3)

I2 = Matrix.identity(GF2, 2)
N2 = Matrix.from_rows(GF2, [[0, 1], [0, 0]])
NT2 = N2.transpose()


def rand_tensor(field, d1, d2, d3, rng):
    p = field.modulus
    return Tensor3(
        field, d1, d2, d3, tuple(rng.randrange(p) for _ in range(d1 * d2 * d3))
    )


def test_tensor_layout():
    t = Tensor3(GF2, 2, 2, 2, (1, 0, 0, 1, 0, 1, 0, 0))
    assert t.dims == (2, 2, 2)
    assert t.at(0, 0, 0) == 1 and t.at(0, 1, 1) == 1
    assert t.at(1, 0, 1) == 1 and t.at(1, 1, 0) == 0
    assert t.slice(0) == I2
    assert t.slice(1) == N2
    assert t.slices() == (I2, N2)


def test_tensor_validation():
    with pytest.raises(ValueError):
        Tensor3(GF2, 0, 2, 2, ())
    with pytest.raises(ValueError):
        Tensor3(GF2, 1, 2, 2, (1, 0, 0))
    with pytest.raises(ValueError):
        Tensor3(GF2, 1, 2, 2, (2, 0, 0, 0))  # not reduced mod 2
    assert not any(Tensor3.zeros(F3, 2, 3, 4).entries)


def test_slice_tensor_roundtrip():
    slice_stack = (I2, N2, NT2)
    t = slice_tensor(slice_stack)
    assert t.dims == (3, 2, 2)
    assert t.slices() == slice_stack
    assert not any(slice_tensor([Matrix.zeros(GF2, 2, 2)]).entries)
    with pytest.raises(ValueError):
        slice_tensor([])
    with pytest.raises(ValueError):
        slice_tensor([I2, Matrix.zeros(GF2, 2, 3)])
    with pytest.raises(ValueError):
        slice_tensor([I2, Matrix.identity(F3, 2)])


def test_eval_empty_decomposition():
    dec = Decomposition(GF2, (2, 2, 2), ())
    assert eval_decomposition(dec) == Tensor3.zeros(GF2, 2, 2, 2)


def test_eval_single_term():
    term = RankOneTerm((1,), (1, 0), (0, 1))
    dec = Decomposition(GF2, (1, 2, 2), (term,))
    assert eval_decomposition(dec).slice(0) == N2


def test_eval_diagonal_terms():
    # I as e1 e1^T + e2 e2^T, loaded onto two slices by the f coefficients
    t1 = RankOneTerm((1, 0), (1, 0), (1, 0))
    t2 = RankOneTerm((1, 1), (0, 1), (0, 1))
    dec = Decomposition(GF2, (2, 2, 2), (t1, t2))
    t = eval_decomposition(dec)
    assert t.slice(0) == I2
    assert t.slice(1).row_lists() == [[0, 0], [0, 1]]


def test_zero_factors_allowed():
    term = RankOneTerm((1,), (0, 0), (1, 1))
    dec = Decomposition(GF2, (1, 2, 2), (term,))
    assert not any(eval_decomposition(dec).entries)


def test_decomposition_validation():
    with pytest.raises(ValueError):
        Decomposition(GF2, (1, 2, 2), (RankOneTerm((1,), (1,), (1, 0)),))
    with pytest.raises(ValueError):
        Decomposition(GF2, (1, 2, 2), (RankOneTerm((1,), (2, 0), (1, 0)),))


def test_single_term_evaluates_to_g_h_transpose():
    dec = Decomposition(
        F3,
        (1, 2, 2),
        (RankOneTerm((1,), (1, 2), (1, 1)),),
    )
    assert eval_decomposition(dec).slice(0).row_lists() == [[1, 1], [2, 2]]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_proj_reps_list_each_projective_class_in_lex_order(p):
    # The pool order, and so every step count and witness, rests on this order.
    for k in range(6):
        assert _proj_reps(p, k) == _projective_vectors(p, k)


def test_min_spanning_identity_slice():
    got = min_spanning_rank_ones([I2], 4)
    assert got is not None
    r, witness = got
    assert r == 2  # a rank-two matrix is never inside the span of one rank-one
    span = rref(Matrix.from_rows(GF2, [w.entries for w in witness]))
    assert span.rank == 2
    # I must be in the span of the two witnesses
    assert rref(
        Matrix.from_rows(GF2, [w.entries for w in witness] + [I2.entries])
    ).rank == 2


def test_min_spanning_frozen_witness():
    # slices {I, N, N^T}: rank 3, first witness triple in pool order
    got = min_spanning_rank_ones([I2, N2, NT2], 4)
    assert got is not None
    r, witness = got
    assert r == 3
    assert [w.row_lists() for w in witness] == [
        [[0, 0], [1, 0]],
        [[0, 1], [0, 0]],
        [[1, 1], [1, 1]],
    ]


def _low_rank_slices(field, d1, d2, d3, k, rng):
    """d1 slices of a sum of k random rank-one terms."""
    p = field.modulus
    acc = [[0] * (d2 * d3) for _ in range(d1)]
    for _ in range(k):
        f = [rng.randrange(p) for _ in range(d1)]
        g = [rng.randrange(p) for _ in range(d2)]
        h = [rng.randrange(p) for _ in range(d3)]
        gh = [gj * hk for gj in g for hk in h]
        for i in range(d1):
            acc[i] = [(a + f[i] * x) % p for a, x in zip(acc[i], gh)]
    return [Matrix(field, d2, d3, tuple(a)) for a in acc]


def _row_scaled_slices(field, d1, d2, d3, k, rng):
    """d1 slices of a sum of k terms f (x) M, where row j of M is g_j * h_j
    with a fresh h_j per row, so each term has slice rank up to d2."""
    p = field.modulus
    acc = [[0] * (d2 * d3) for _ in range(d1)]
    for _ in range(k):
        f = [rng.randrange(p) for _ in range(d1)]
        gh = [gj * hk for gj in [rng.randrange(p) for _ in range(d2)]
              for hk in [rng.randrange(p) for _ in range(d3)]]
        for i in range(d1):
            acc[i] = [(a + f[i] * x) % p for a, x in zip(acc[i], gh)]
    return [Matrix(field, d2, d3, tuple(a)) for a in acc]


def _dense_slices(field, d1, d2, d3, rng):
    p = field.modulus
    return [Matrix(field, d2, d3, tuple(rng.randrange(p) for _ in range(d2 * d3)))
            for _ in range(d1)]


def _check_against_lex_first_oracle(structured_slices):
    # (r, witness) must be the first spanning r-subset of the pool in index
    # order, found by plain combinations over an independent elimination.
    rng = random.Random(79)
    cases = [([I2, N2, NT2], 4), ([I2], 4), ([I2, N2], 4), ([I2], 0)]
    for p, d1, d2, d3, r_top in ((2, 2, 2, 3, 4), (2, 3, 2, 3, 4), (2, 1, 3, 3, 3),
                                 (2, 2, 3, 3, 3), (3, 2, 2, 3, 3), (5, 2, 2, 2, 4)):
        field = FieldSpec(p)
        for trial in range(6):
            if trial % 2:
                slices = structured_slices(field, d1, d2, d3, rng.randint(2, 3), rng)
            else:
                slices = _dense_slices(field, d1, d2, d3, rng)
            cases.append((slices, rng.randint(1, r_top)))
    seen = set()
    for slices, r_max in cases:
        p, d2, d3 = slices[0].field.modulus, slices[0].rows, slices[0].cols
        entries = [m.entries for m in slices]
        got = min_spanning_rank_ones(slices, r_max)
        if got is not None:
            got = (got[0], tuple(w.entries for w in got[1]))
        assert got == lex_first_spanning_rank_ones(entries, p, d2, d3, r_max), (entries, r_max)
        r0 = rank_mod_p(entries, p)
        if got is None:
            seen.add("r_max < r0" if r_max < r0 else "exhausted")
        else:
            seen.add("r == r0" if got[0] == r0 else "r > r0")
    # r == r0: the joint span is full at depth 0; r > r0: the completion at
    # depth 0 failed, and deeper ones fail and backtrack on the way to r.
    assert seen == {"r == r0", "r > r0", "r_max < r0", "exhausted"}


def test_rank_search_matches_lex_first_oracle():
    _check_against_lex_first_oracle(_row_scaled_slices)


def test_rank_search_matches_lex_first_oracle_on_rank_k_sums():
    _check_against_lex_first_oracle(_low_rank_slices)


def test_rank_search_matches_lex_first_oracle_where_picks_are_skipped():
    # Sums of k >= r0 + 1 rank-one terms (r0 <= d1), drawn until the rank
    # exceeds r0 by at least `over`, so the walk at r reaches nodes whose
    # joint span is one short of r, where picks that end their residue line
    # are skipped.  Each tensor is checked at its rank and at rank - 1; at
    # r0 + 1 or more, the latter exhausts such nodes.
    rng = random.Random(97)
    seen = set()
    for p, d1, d2, d3, k, over, trials in (
            (2, 1, 3, 3, 3, 2, 2), (2, 2, 2, 3, 3, 1, 3), (2, 2, 2, 3, 4, 1, 2),
            (3, 1, 2, 3, 2, 1, 3), (3, 1, 3, 3, 3, 2, 1), (3, 2, 2, 2, 3, 1, 3),
            (5, 1, 2, 3, 2, 1, 3), (5, 2, 2, 2, 3, 1, 3)):
        field = FieldSpec(p)
        for _ in range(trials):
            while True:
                slices = _low_rank_slices(field, d1, d2, d3, k, rng)
                entries = [m.entries for m in slices]
                r0 = rank_mod_p(entries, p)
                expect = lex_first_spanning_rank_ones(entries, p, d2, d3, k)
                if expect[0] >= r0 + over:
                    break
            rank = expect[0]
            for r_max, want in ((rank, expect), (rank - 1, None)):
                got = min_spanning_rank_ones(slices, r_max)
                if got is not None:
                    got = (got[0], tuple(w.entries for w in got[1]))
                assert got == want, (entries, r_max)
                seen.add(("found" if got else "exhausted", r_max - r0))
    assert {("found", 1), ("found", 2), ("exhausted", 0), ("exhausted", 1)} <= seen


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_two_slice_takes_two_steps(p):
    # One slice M of rank 2: the search at r = 2 starts at a node whose joint
    # span is <M>, holding no rank-one matrix, so every pick that ends its
    # residue line fails and is skipped.  The first pick with a later index
    # on its line completes with that index: two adds, whatever the pool
    # order.  Without the skip, each failing pick before it adds one step.
    field = FieldSpec(p)
    rng = random.Random(101 + p)
    for _ in range(12):
        while True:
            m = Matrix(field, 3, 3, tuple(rng.randrange(p) for _ in range(9)))
            if rref(m).rank == 2:
                break
        r, witness = min_spanning_rank_ones([m], 3, step_cap=2)
        assert r == 2
        assert rref(Matrix.from_rows(field, [w.entries for w in witness] + [m.entries])).rank == 2


# (seed, p, d1, d2, d3, k, r_max) -> (rank or None, steps): k rank-one terms,
# or dense random slices when k is 0.  One step is one add to the span of the
# chosen matrices, a public budget (step_cap).  Recorded once the search
# skipped the picks that end their residue line, which make no add; the last
# case has no such pick.
PINNED_STEPS = [
    ((101, 2, 3, 4, 4, 5, 6), (5, 1376)),  # pool 225
    ((110, 2, 3, 4, 4, 5, 4), (None, 73)),  # pool 225, rank > 4 certified
    ((104, 2, 4, 3, 3, 0, 6), (6, 150)),
    ((2, 2, 2, 3, 3, 0, 6), (4, 27)),
    ((102, 3, 2, 3, 3, 0, 6), (4, 55)),
    ((102, 3, 2, 3, 3, 0, 3), (None, 12)),
    ((101, 5, 2, 2, 4, 0, 6), (4, 201)),
    ((122, 5, 2, 2, 3, 3, 6), (3, 32)),
]


@pytest.mark.parametrize("case, expect", PINNED_STEPS)
def test_rank_search_step_counts_are_pinned(case, expect):
    # The search succeeds with step_cap = steps and raises one below it.
    seed, p, d1, d2, d3, k, r_max = case
    rank, steps = expect
    rng = random.Random(seed)
    field = FieldSpec(p)
    if k:
        slices = _low_rank_slices(field, d1, d2, d3, k, rng)
    else:
        slices = _dense_slices(field, d1, d2, d3, rng)
    got = min_spanning_rank_ones(slices, r_max, step_cap=steps)
    assert (None if got is None else got[0]) == rank
    with pytest.raises(BudgetExceeded) as exc:
        min_spanning_rank_ones(slices, r_max, step_cap=steps - 1)
    assert (exc.value.stage, exc.value.needed, exc.value.cap) == ("rank search", steps, steps - 1)


def test_min_spanning_zero_and_caps():
    assert min_spanning_rank_ones([Matrix.zeros(GF2, 2, 2)], 0) == (0, ())
    assert min_spanning_rank_ones([I2], 1) is None  # rank 2 certified above 1
    assert min_spanning_rank_ones([I2], 0) is None  # r0 = 1 already exceeds
    with pytest.raises(ValueError):
        min_spanning_rank_ones([], 3)
    with pytest.raises(ValueError):
        min_spanning_rank_ones([I2], -1)


def test_min_spanning_pool_budget():
    f5 = FieldSpec(5)
    m = Matrix.identity(f5, 3)
    with pytest.raises(BudgetExceeded) as exc:
        min_spanning_rank_ones([m], 3, pool_cap=100)
    assert exc.value.stage == "rank-one candidate pool"
    assert exc.value.needed == 31 * 31


def test_min_spanning_step_budget():
    # {I, N, N^T} over GF(2) with N the 3x3 shift has rank 6; proving
    # rank > 5 takes far more than 5 steps.
    n3 = Matrix.from_rows(GF2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(BudgetExceeded) as exc:
        min_spanning_rank_ones([Matrix.identity(GF2, 3), n3, n3.transpose()], 5, step_cap=5)
    assert exc.value.stage == "rank search"
    # {I, N, N^T} is found in exactly 3 steps, on the cap's boundary.
    assert min_spanning_rank_ones([I2, N2, NT2], 4, step_cap=3) == (
        min_spanning_rank_ones([I2, N2, NT2], 4))
    with pytest.raises(BudgetExceeded) as exc:
        min_spanning_rank_ones([I2, N2, NT2], 4, step_cap=2)
    assert (exc.value.stage, exc.value.needed, exc.value.cap) == ("rank search", 3, 2)


# (seed, p, d1, d2, d3, k, r_max, step_cap): k rank-one terms drawn as in
# PINNED_STEPS.  The first cap stops the search at a node one short of a full
# joint span, the second in the completion pass of a full one, and the third
# at a node two or more short.
@pytest.mark.parametrize("case", [
    (0, 2, 2, 3, 3, 4, 4, 1),
    (0, 2, 2, 3, 3, 4, 4, 2),
    (36, 2, 3, 3, 3, 5, 5, 48),
])
def test_step_cap_fires_at_every_kind_of_node(case):
    seed, p, d1, d2, d3, k, r_max, cap = case
    slices = _low_rank_slices(FieldSpec(p), d1, d2, d3, k, random.Random(seed))
    with pytest.raises(BudgetExceeded) as exc:
        min_spanning_rank_ones(slices, r_max, step_cap=cap)
    assert (exc.value.stage, exc.value.needed, exc.value.cap) == ("rank search", cap + 1, cap)


def test_rank_search_steps_over_a_pick_dependent_on_the_chosen():
    # At a node two short of a full joint span, this search meets a candidate
    # in the span of the chosen matrices: the add counts a step and makes no
    # pick.  The search still reaches rank 6 on the step cap's boundary.
    slices = _dense_slices(GF2, 3, 3, 4, random.Random(20))
    t = slice_tensor(slices)
    assert tensor_rank(t, 6, step_cap=7234)[0] == 6
    with pytest.raises(BudgetExceeded) as exc:
        tensor_rank(t, 6, step_cap=7233)
    assert exc.value.needed == 7234


def test_rank_one_factors():
    g, h = _rank_one_factors(N2)
    assert (g, h) == ((1, 0), (0, 1))
    # h is normalized (leading 1); g carries the actual column values
    g, h = _rank_one_factors(Matrix.from_rows(F3, [[0, 0], [2, 1]]))
    assert (g, h) == ((0, 2), (1, 2))
    with pytest.raises(ValueError):
        _rank_one_factors(Matrix.zeros(GF2, 2, 2))
    with pytest.raises(ValueError):
        _rank_one_factors(I2)


def test_reconstruct_single_slice():
    dec = reconstruct_decomposition([N2], [N2])
    assert dec.terms == (RankOneTerm((1,), (1, 0), (0, 1)),)
    assert eval_decomposition(dec).slice(0) == N2


def test_reconstruct_outside_span():
    with pytest.raises(SpanFailure):
        reconstruct_decomposition([I2], [N2])


def test_reconstruct_rejects_matrices_of_another_field():
    # N2 over GF(3) with its 1 doubled would read as zero mod 2, and N2 over
    # GF(3) as N2: both must be refused, not reduced.
    n2_f3 = Matrix.from_rows(F3, [[0, 2], [0, 0]])
    with pytest.raises(ValueError, match="mixed fields"):
        reconstruct_decomposition([N2, n2_f3], [N2])
    with pytest.raises(ValueError, match="mixed fields"):
        reconstruct_decomposition([N2], [N2, Matrix.from_rows(F3, [[0, 1], [0, 0]])])


def test_reconstruct_rejects_matrices_of_another_shape():
    # a 1 x 4 slice with the entries of N2 would read as N2
    with pytest.raises(ValueError, match="inconsistent shapes"):
        reconstruct_decomposition([N2, Matrix.from_rows(GF2, [[0, 1, 0, 0]])], [N2])


def test_tensor_rank_known_values():
    t = slice_tensor([I2, N2, NT2])
    got = tensor_rank(t, 4)
    assert got is not None
    r, dec = got
    assert r == 3 and len(dec) == 3
    assert eval_decomposition(dec) == t
    assert tensor_rank(t, 2) is None
    z = Tensor3.zeros(GF2, 2, 2, 2)
    assert tensor_rank(z, 4) == (0, Decomposition(GF2, (2, 2, 2), ()))
    z3 = Tensor3.zeros(F3, 2, 3, 2)
    assert tensor_rank(z3, 0) == (0, Decomposition(F3, (2, 3, 2), ()))


def test_tensor_rank_refuses_a_decomposition_of_another_tensor(monkeypatch):
    # The witness is checked by evaluation before it is returned: a
    # reconstruction that sums to some other tensor raises, not returns.
    t = slice_tensor([I2, N2, NT2])
    other = Decomposition(GF2, (3, 2, 2), (RankOneTerm((1, 0, 0), (1, 0), (1, 0)),))
    monkeypatch.setattr(tensor_module, "reconstruct_decomposition", lambda *args: other)
    with pytest.raises(DecompositionMismatch):
        tensor_rank(t, 4)


def test_tensor_rank_matches_direct_search():
    # library search vs the independent meet-in-the-middle oracle
    rng = random.Random(61)
    for p, d1 in ((2, 2), (2, 3), (3, 2)):
        field = FieldSpec(p)
        pool = rank_one_pool(p, d1, 2, 2)
        pairs = pair_sums(pool, p)
        for _ in range(12):
            t = rand_tensor(field, d1, 2, 2, rng)
            expect = direct_tensor_rank(t.entries, pool, pairs, p)
            got = tensor_rank(t, 4)
            assert got is not None, "every (d,2,2) tensor has rank at most 4"
            assert got[0] == expect


def tensor_sum(a, b):
    """Entrywise sum of two tensors of one shape and field."""
    p = a.field.modulus
    return Tensor3(a.field, a.d1, a.d2, a.d3,
                   tuple((x + y) % p for x, y in zip(a.entries, b.entries)))


def test_rank_subadditive():
    rng = random.Random(67)
    for p in (2, 3):
        field = FieldSpec(p)
        for _ in range(10):
            a = rand_tensor(field, 2, 2, 2, rng)
            b = rand_tensor(field, 2, 2, 2, rng)
            ra = tensor_rank(a, 4)[0]
            rb = tensor_rank(b, 4)[0]
            rc = tensor_rank(tensor_sum(a, b), 4)[0]
            assert rc <= ra + rb


def test_rank_bounded_below_by_slice_ranks():
    rng = random.Random(71)
    for p in (2, 3):
        field = FieldSpec(p)
        for _ in range(10):
            t = rand_tensor(field, 3, 2, 2, rng)
            r = tensor_rank(t, 4)[0]
            for m in t.slices():
                assert r >= rref(m).rank


def test_witness_decomposition_shape():
    t = slice_tensor([I2, N2])
    r, dec = tensor_rank(t, 4)
    assert r == 3
    assert dec.dims == (2, 2, 2)
    assert all(len(term.f) == 2 for term in dec.terms)
    assert eval_decomposition(dec) == t
