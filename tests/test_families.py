"""Map families: symmetrize, word powers, matchings, spreading/expansion checks."""

import functools
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from dimspread.errors import BudgetExceeded, ClosureViolation, MonotonicityViolation
from dimspread.families import (
    MapFamily,
    Matching,
    SpreadingParams,
    dyadic_matchings,
    matching_maps,
    measure_expansion,
    shift_matchings,
    spreading_profile,
    symmetrize,
    verify_expander,
    verify_large_expansion,
    verify_spreading,
    word_length_for,
    words,
)
from dimspread.gfp import GF2, FieldSpec, Matrix
from dimspread.subspace import grassmann_count

F3 = FieldSpec(3)

I2 = Matrix.identity(GF2, 2)
N2 = Matrix.from_rows(GF2, [[0, 1], [0, 0]])
NT2 = N2.transpose()
I3 = Matrix.identity(GF2, 3)
C3 = Matrix.from_rows(GF2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])  # cyclic shift

SYM2 = MapFamily(GF2, 2, (I2, N2, NT2))


def rand_family(field, n, count, rng):
    p = field.modulus
    return MapFamily(
        field,
        n,
        tuple(
            Matrix(field, n, n, tuple(rng.randrange(p) for _ in range(n * n)))
            for _ in range(count)
        ),
    )


def test_family_validation():
    with pytest.raises(ValueError):
        MapFamily(GF2, 0, (Matrix.zeros(GF2, 0, 0),))
    with pytest.raises(ValueError):
        MapFamily(GF2, 2, ())
    with pytest.raises(ValueError):
        MapFamily(GF2, 2, (Matrix.identity(F3, 2),))  # wrong field
    with pytest.raises(ValueError):
        MapFamily(GF2, 2, (Matrix.zeros(GF2, 2, 3),))  # not square
    assert len(SYM2) == 3


def test_symmetrize_identity_only():
    fam = MapFamily(GF2, 2, (I2,))
    assert symmetrize(fam).maps == (I2,)


def test_symmetrize_nilpotent():
    fam = MapFamily(GF2, 2, (N2,))
    assert symmetrize(fam).maps == (N2, NT2, I2)


def test_symmetrize_cycle():
    # the transpose of the cyclic shift is its square, so it is genuinely new
    fam = MapFamily(GF2, 3, (C3,))
    got = symmetrize(fam)
    assert got.maps == (C3, C3.transpose(), I3)
    assert C3.transpose() == C3 @ C3


def test_symmetrize_idempotent():
    rng = random.Random(31)
    for _ in range(10):
        fam = rand_family(GF2, 3, 2, rng)
        once = symmetrize(fam)
        assert symmetrize(once) == once


def test_words_identity_family():
    fam = MapFamily(GF2, 2, (I2,))
    assert words(fam, 5).maps == (I2,)


def test_words_length_one_dedupes():
    fam = MapFamily(GF2, 2, (I2, I2, N2))
    assert words(fam, 1).maps == (I2, N2)


def test_words_frozen_order():
    # all 2-letter products of {I, N, N^T}, first occurrence in word order
    got = words(SYM2, 2)
    assert [m.entries for m in got.maps] == [
        (1, 0, 0, 1),  # I·I
        (0, 1, 0, 0),  # I·N
        (0, 0, 1, 0),  # I·N^T
        (0, 0, 0, 0),  # N·N
        (1, 0, 0, 0),  # N·N^T
        (0, 0, 0, 1),  # N^T·N
    ]


def test_words_compose():
    rng = random.Random(5)
    for field, n in ((GF2, 3), (F3, 2)):
        for _ in range(6):
            fam = rand_family(field, n, 2, rng)
            ab = words(words(fam, 2), 2)
            direct = words(fam, 4)
            assert set(ab.maps) == set(direct.maps)


def test_words_order_matches_brute_force():
    rng = random.Random(11)
    for field, n in ((GF2, 3), (F3, 2), (FieldSpec(5), 2)):
        for _ in range(4):
            fam = rand_family(field, n, 3, rng)
            for t in (1, 2, 3):
                products = (functools.reduce(Matrix.__matmul__, w)
                            for w in itertools.product(fam.maps, repeat=t))
                assert list(words(fam, t).maps) == list(dict.fromkeys(products))


def test_words_budget():
    with pytest.raises(BudgetExceeded) as exc:
        words(SYM2, 13)  # 3**13 > 10**6
    assert exc.value.needed == 3**13
    with pytest.raises(ValueError):
        words(SYM2, 0)


def test_word_length_frozen_values():
    assert word_length_for(Fraction(1, 4), Fraction(1, 2)) == 13
    assert word_length_for(Fraction(1, 2), 3) == 2
    assert word_length_for(Fraction(1, 2), 4) == 1
    assert word_length_for(Fraction(1, 2), 1) == 4
    # boundary exactness: 3*log2(4)/3 = 2 exactly, and the bound is strict
    assert word_length_for(Fraction(1, 4), 3) == 3


def test_word_length_is_least_valid():
    rng = random.Random(19)
    for _ in range(40):
        eps = Fraction(1, rng.randrange(2, 40))
        tau = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        t = word_length_for(eps, tau)

        def strict(k):  # k > 3*log2(1/eps)/tau, in exact integer form
            a, b = tau.numerator, tau.denominator
            return 2 ** (k * a) * eps.numerator ** (3 * b) > eps.denominator ** (3 * b)

        assert t >= 1 and strict(t)
        if t > 1:
            assert not strict(t - 1)


def test_word_length_rejects_bad_arguments():
    with pytest.raises(ValueError):
        word_length_for(1, 1)
    with pytest.raises(ValueError):
        word_length_for(0, 1)
    with pytest.raises(ValueError):
        word_length_for(Fraction(1, 2), 0)


def test_matching_basics():
    m = Matching(3, ((2, 3), (1, 2)))
    assert m.pairs == ((1, 2), (2, 3))  # stored sorted by left index
    assert Matching.identity(3).pairs == ((1, 1), (2, 2), (3, 3))
    assert Matching(4, ()).pairs == ()


def test_matching_rejections():
    with pytest.raises(MonotonicityViolation) as exc:
        Matching(3, ((1, 3), (2, 1)))
    assert exc.value.pair_a == (1, 3)
    assert exc.value.pair_b == (2, 1)
    with pytest.raises(ValueError):
        Matching(3, ((1, 2), (1, 3)))  # left used twice
    with pytest.raises(ValueError):
        Matching(3, ((1, 2), (3, 2)))  # right used twice
    with pytest.raises(ValueError):
        Matching(3, ((1, 4),))  # out of range
    with pytest.raises(ValueError):
        Matching(0, ())


def test_matching_maps_entries():
    fam = matching_maps([Matching.identity(3), Matching(3, ((1, 2), (2, 3)))], GF2)
    assert fam.maps[0] == I3
    assert fam.maps[1].row_lists() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


def test_matching_maps_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        matching_maps([Matching.identity(2), Matching.identity(3)], GF2)
    with pytest.raises(ValueError):
        matching_maps([], GF2)


def test_matching_maps_are_partial_permutations():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randrange(2, 7)
        k = rng.randrange(0, n + 1)
        left = sorted(rng.sample(range(1, n + 1), k))
        right = sorted(rng.sample(range(1, n + 1), k))
        m = Matching(n, tuple(zip(left, right)))  # sorted-zip is always monotone
        (mat,) = matching_maps([m], F3).maps
        for i in range(n):
            assert sum(mat.row(i)) <= 1
            assert sum(mat.at(r, i) for r in range(n)) <= 1
        assert sum(mat.entries) == k


def test_shift_and_dyadic_matchings():
    up_down = shift_matchings(4)
    assert [m.pairs for m in up_down] == [
        ((1, 1), (2, 2), (3, 3), (4, 4)),
        ((1, 2), (2, 3), (3, 4)),
        ((2, 1), (3, 2), (4, 3)),
    ]
    dy = dyadic_matchings(6)
    assert [m.pairs for m in dy[1:]] == [
        ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
        ((1, 3), (2, 4), (3, 5), (4, 6)),
        ((1, 5), (2, 6)),
    ]
    assert dyadic_matchings(1) == [Matching.identity(1)]


def test_spreading_verified():
    res = verify_spreading(SYM2, SpreadingParams(1, 2))
    assert res.verified and res.exhaustive and res.conclusive
    assert res.counterexample is None
    assert verify_spreading(MapFamily(GF2, 2, (I2,)), SpreadingParams(1, 1)).verified


def test_spreading_counterexample():
    fam = MapFamily(GF2, 3, (I3, C3))
    res = verify_spreading(fam, SpreadingParams(1, 2))
    assert not res.verified and res.exhaustive and res.conclusive
    assert res.counterexample.basis.entries == (1, 1, 1)  # the diagonal line
    assert res.achieved == 1


def test_spreading_first_counterexample_order():
    fam = MapFamily(GF2, 3, (I3,))
    res = verify_spreading(fam, SpreadingParams(1, 2))
    assert res.counterexample.basis.entries == (1, 0, 0)


def test_spreading_parameter_validation():
    with pytest.raises(ValueError):
        SpreadingParams(0, 1)
    with pytest.raises(ValueError):
        SpreadingParams(1, -1)
    with pytest.raises(ValueError):
        verify_spreading(SYM2, SpreadingParams(3, 1))  # s > n
    with pytest.raises(ValueError):
        verify_spreading(SYM2, SpreadingParams(1, 3))  # t > n
    # t = 0 is degenerate but well-defined: always holds
    assert verify_spreading(SYM2, SpreadingParams(1, 0)).verified


def test_spreading_sampled_modes():
    fam = MapFamily(GF2, 3, (I3, C3))
    res = verify_spreading(fam, SpreadingParams(1, 2), samples=60, seed=7)
    assert not res.verified and not res.exhaustive
    assert res.conclusive  # a sampled counterexample is still a counterexample
    assert res.counterexample.basis.entries == (1, 1, 1)
    assert res.samples == 60 and res.seed == 7
    again = verify_spreading(fam, SpreadingParams(1, 2), samples=60, seed=7)
    assert again == res

    ok = verify_spreading(SYM2, SpreadingParams(1, 2), samples=20, seed=3)
    assert ok.verified and not ok.exhaustive and not ok.conclusive

    with pytest.raises(ValueError):
        verify_spreading(SYM2, SpreadingParams(1, 2), samples=20)
    with pytest.raises(ValueError):
        verify_spreading(SYM2, SpreadingParams(1, 2), samples=0, seed=1)


def test_spreading_budget():
    with pytest.raises(BudgetExceeded):
        verify_spreading(
            MapFamily(GF2, 3, (I3,)), SpreadingParams(1, 1), enumeration_cap=5
        )


def test_spreading_profile_values():
    assert spreading_profile(SYM2) == ((1, 2), (2, 2))
    fam = MapFamily(GF2, 3, (I3, C3))
    assert spreading_profile(fam) == ((1, 1), (2, 2), (3, 3))


def test_spreading_profile_consistency():
    rng = random.Random(47)
    for _ in range(8):
        fam = symmetrize(rand_family(GF2, 3, 2, rng))
        profile = dict(spreading_profile(fam))
        for s in range(1, 4):
            t = profile[s]
            assert verify_spreading(fam, SpreadingParams(s, t)).verified
            if t < 3:
                assert not verify_spreading(fam, SpreadingParams(s, t + 1)).verified
        # monotone: larger subspaces reach at least as far
        assert profile[1] <= profile[2] <= profile[3]


def test_expander_verified_and_refuted():
    assert verify_expander(SYM2, 1).verified
    res = verify_expander(MapFamily(GF2, 4, (Matrix.identity(GF2, 4),)), Fraction(1, 2))
    assert not res.verified
    assert res.counterexample.basis.entries == (1, 0, 0, 0)
    assert res.achieved == 1
    cyc = verify_expander(MapFamily(GF2, 3, (I3, C3)), 1)
    assert not cyc.verified
    assert cyc.counterexample.basis.entries == (1, 1, 1)


def test_expander_argument_validation():
    with pytest.raises(ValueError):
        verify_expander(SYM2, 0)
    with pytest.raises(ValueError):
        verify_expander(MapFamily(GF2, 1, (Matrix.identity(GF2, 1),)), 1)
    with pytest.raises(ValueError):
        verify_expander(SYM2, 1, samples=5)  # no seed


def test_measure_expansion_values():
    rep = measure_expansion(SYM2)
    assert rep.tau_star == 1
    assert rep.per_dimension == ((1, 2),)
    assert rep.witness.basis.entries == (1, 0)
    assert rep.exhaustive

    rep4 = measure_expansion(MapFamily(GF2, 4, (Matrix.identity(GF2, 4),)))
    assert rep4.tau_star == 0
    assert rep4.per_dimension == ((1, 1), (2, 2))
    assert rep4.witness.basis.entries == (1, 0, 0, 0)

    cyc = measure_expansion(MapFamily(GF2, 3, (I3, C3)))
    assert cyc.tau_star == 0
    assert cyc.witness.basis.entries == (1, 1, 1)


def test_measure_agrees_with_verify():
    rng = random.Random(53)
    for _ in range(8):
        fam = symmetrize(rand_family(GF2, 4, 2, rng))
        rep = measure_expansion(fam)
        if rep.tau_star > 0:
            assert verify_expander(fam, rep.tau_star).verified
        bumped = rep.tau_star + Fraction(1, 12)
        assert not verify_expander(fam, bumped).verified


def test_measure_sampled_estimate():
    est = measure_expansion(SYM2, samples=30, seed=11)
    assert not est.exhaustive
    assert est.tau_star >= 1  # sampling can only miss minima, never undershoot
    assert est == measure_expansion(SYM2, samples=30, seed=11)


def test_large_expansion_closure_checks():
    with pytest.raises(ClosureViolation):
        verify_large_expansion(MapFamily(GF2, 2, (N2, NT2)), 1)  # identity missing
    with pytest.raises(ClosureViolation):
        verify_large_expansion(MapFamily(GF2, 2, (I2, N2)), 1)  # transpose missing


def test_large_expansion_requires_expander():
    with pytest.raises(ValueError, match="expander"):
        verify_large_expansion(MapFamily(GF2, 3, (I3,)), 1)


def test_large_expansion_verified():
    fam = matching_maps(shift_matchings(3), GF2)
    assert measure_expansion(fam).tau_star == 1
    res = verify_large_expansion(fam, 1)
    assert res.verified
    assert res.counterexample is None
    assert len(res.records) == 7  # the dim-2 subspaces of GF(2)^3
    for rec in res.records:
        assert rec.dim == 2 and rec.image_sum_dim == 3
        assert rec.delta == Fraction(1, 2)
        assert rec.sharper_bound == Fraction(1, 4)
        assert rec.meets_sharper


def test_large_expansion_counterexample():
    res = verify_large_expansion(MapFamily(GF2, 3, (I3,)), 1, check_expander=False)
    assert not res.verified
    assert res.counterexample.basis.row_lists() == [[1, 0, 0], [0, 1, 0]]
    assert res.achieved == 2
    assert all(not rec.meets_sharper for rec in res.records)


def test_thread_count_does_not_change_results():
    fam = MapFamily(GF2, 4, (Matrix.identity(GF2, 4),))
    params = SpreadingParams(1, 2)
    assert verify_spreading(fam, params, threads=1) == verify_spreading(
        fam, params, threads=4
    )
    shifts = matching_maps(shift_matchings(4), GF2)
    assert measure_expansion(shifts, threads=1) == measure_expansion(shifts, threads=4)
    assert verify_large_expansion(shifts, Fraction(1, 2), threads=1) == (
        verify_large_expansion(shifts, Fraction(1, 2), threads=4)
    )


def test_large_expansion_records_are_shared():
    # one record object per distinct (dim, image-sum dim), one entry per subspace
    fam = matching_maps(shift_matchings(6), GF2)
    res = verify_large_expansion(fam, Fraction(1, 4), check_expander=False)
    assert len(res.records) == grassmann_count(6, 4, 2) + grassmann_count(6, 5, 2)
    pairs = {(rec.dim, rec.image_sum_dim) for rec in res.records}
    assert len({id(rec) for rec in res.records}) == len(pairs)


def test_last_row_tables_stay_under_the_cap():
    # GF(2) n=16 at s=1: the pivot-0 cell's last row has 15 free entries.  A
    # whole-row table of images would hold 2**15 vectors per map; its list
    # slots alone take 2**15 * D * 8 bytes.
    fam = matching_maps(shift_matchings(16), GF2)
    tracemalloc.start()
    try:
        res = verify_spreading(fam, SpreadingParams(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.verified
    assert peak < 2**15 * len(fam.maps) * 8
