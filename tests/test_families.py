"""Map families: symmetrize, word powers, matchings, spreading/expansion checks."""

import collections
import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import dimspread.families as families_module
import dimspread.subspace as subspace_module
from dimspread.certify import certify_lower_bound
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
from dimspread.gfp import GF2, FieldSpec, Matrix, vectors
from dimspread.subspace import enumerate_subspaces, grassmann_count
from oracles import image_sum_dim, rank_mod_p, replay_draws, rref_mod_p

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


def test_symmetrize_keeps_first_occurrence_order():
    # A repeated map, a symmetric map and the identity already present:
    # originals deduped in order, then only the new transposes, no second
    # identity.
    swap = Matrix.from_rows(GF2, [[0, 1], [1, 0]])
    fam = MapFamily(GF2, 2, (N2, swap, N2, I2, swap))
    assert symmetrize(fam).maps == (N2, swap, I2, NT2)


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
    for field, n in ((GF2, 3), (F3, 2), (FieldSpec(5), 2), (FieldSpec(13), 2),
                     (FieldSpec(17), 2)):
        for _ in range(4):
            fam = rand_family(field, n, 3, rng)
            for t in (1, 2, 3):
                products = (functools.reduce(Matrix.__matmul__, w)
                            for w in itertools.product(fam.maps, repeat=t))
                assert list(words(fam, t).maps) == list(dict.fromkeys(products))


def test_words_budget():
    # The cap bounds the words formed in all, D at length 1 plus (distinct
    # words below) * D per level, not the nominal D**t: 3**13 > 10**6, but
    # SYM2 keeps 6 distinct words per level and forms 3 + 9 + 11 * 18 = 210.
    assert len(words(SYM2, 13).maps) == 6
    with pytest.raises(BudgetExceeded) as exc:
        words(SYM2, 13, word_cap=209)
    assert (exc.value.needed, exc.value.cap) == (210, 209)
    assert len(words(SYM2, 13, word_cap=210).maps) == 6
    # At least one word per level: t * D words, refused before any level.
    with pytest.raises(BudgetExceeded) as exc:
        words(SYM2, 10**9)
    assert exc.value.needed == 3 * 10**9
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
    def strict(k, eps, tau):  # k > 3*log2(1/eps)/tau, in exact integer form
        a, b = tau.numerator, tau.denominator
        return 2 ** (k * a) * eps.numerator ** (3 * b) > eps.denominator ** (3 * b)

    rng = random.Random(19)
    cases = []
    for _ in range(40):
        eps = Fraction(1, rng.randrange(2, 40))
        cases.append((eps, Fraction(rng.randrange(1, 9), rng.randrange(1, 9))))
    # numerators above 1, denominators up to 10**30
    for _ in range(40):
        den = rng.randrange(3, 10 ** rng.randrange(1, 31) + 1)
        eps = Fraction(rng.randrange(2, den), den)
        cases.append((eps, Fraction(rng.randrange(1, 9), rng.randrange(1, 9))))
    cases += [(Fraction(7, 10**30), Fraction(1, 3)), (Fraction(10**30 - 1, 10**30), Fraction(1, 7))]
    for eps, tau in cases:
        t = word_length_for(eps, tau)
        assert t >= 1 and strict(t, eps, tau)
        if t > 1:
            assert not strict(t - 1, eps, tau)


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


def count_adds_per_span(monkeypatch) -> list[list]:
    """Wraps `families.make_row_span`; the list gets one [draw, adds] entry
    per span made, where adds counts that span's `add` calls and draw is the
    number of the `families.sample_with_rng` call the span was made in, or
    None for a span made outside every draw."""
    spans: list[list] = []
    draws = itertools.count()
    drawing = None
    real = families_module.make_row_span
    real_sample = families_module.sample_with_rng

    def make_row_span(p):
        span = real(p)
        base, entry = type(span), [drawing, 0]
        spans.append(entry)

        class Counted(base):
            __slots__ = ()

            def add(self, v):
                entry[1] += 1
                return base.add(self, v)

        span.__class__ = Counted
        return span

    def sample_with_rng(*args):
        nonlocal drawing
        drawing = next(draws)
        try:
            return real_sample(*args)
        finally:
            drawing = None

    monkeypatch.setattr(families_module, "make_row_span", make_row_span)
    monkeypatch.setattr(families_module, "sample_with_rng", sample_with_rng)
    return spans


@pytest.mark.parametrize("p, n, s", [(2, 6, 3), (3, 5, 2), (5, 5, 3)])
def test_sampled_spreading_adds_s_images_per_draw(monkeypatch, p, n, s):
    # With t = s and an invertible first map, every draw's image sum reaches
    # t through that map alone, so the floor s - 0 settles every draw and no
    # image is added: the only span outside the draws is the first map's
    # rank test, n adds, which stops at that invertible map.  Each attempt
    # of a draw tests its rows on a span of its own, and the accepted
    # attempt, the last span made in the draw, adds all s rows.
    field = FieldSpec(p)
    rng = random.Random(700 + p)
    first = rand_family(field, n, 1, rng).maps[0]
    while rank_mod_p([first.row(i) for i in range(n)], p) < n:
        first = rand_family(field, n, 1, rng).maps[0]
    fam = MapFamily(field, n, (first,) + rand_family(field, n, 2, rng).maps)
    spans = count_adds_per_span(monkeypatch)
    res = verify_spreading(fam, SpreadingParams(s, s), samples=25, seed=p)
    assert res.verified and not res.exhaustive
    assert [adds for draw, adds in spans if draw is None] == [n]
    accepted = {draw: adds for draw, adds in spans if draw is not None}
    assert accepted == dict.fromkeys(range(25), s)


@pytest.mark.parametrize("p, shapes", [
    (2, [(1, 1), (3, 3), (5, 5), (6, 6), (3, 0), (10, 5), (10, 2)]),
    (3, [(2, 2), (4, 4), (5, 2), (4, 0), (10, 5), (10, 2)]),
    (5, [(1, 1), (3, 3), (4, 2), (3, 0), (10, 5), (10, 2)]),
    (7, [(1, 1), (3, 3), (4, 2), (3, 0), (10, 5), (10, 2)]),
    (13, [(2, 2), (4, 1), (3, 0), (10, 5), (10, 2)]),
    (257, [(2, 2), (3, 1), (2, 0), (10, 5), (10, 2)]),
    (65521, [(2, 2), (3, 1), (2, 0), (10, 5), (10, 2)]),
])
def test_packed_acceptance_matches_the_default_and_the_replay(p, shapes):
    # Sampled scans test each attempt's independence on packed rows in place
    # of the sampler's default elimination.  Both tests and the plain-int
    # replay must accept the same attempts: the same RNG state after every
    # draw, and packed rows that reduce to the replay's canonical basis.
    # Over GF(2) about 0.7 of the 5 x 5 and 6 x 6 attempts are singular, so
    # a test that accepts a dependent attempt drifts at once.
    field = FieldSpec(p)
    accept = families_module._independent(p)
    unpack = vectors(p).unpack
    for n, s in shapes:
        for seed in range(3):
            packed_rng, default_rng, ref = (random.Random(seed) for _ in range(3))
            for _ in range(12):
                (rows,) = replay_draws(n, s, p, ref, 1)
                drawn = subspace_module.sample_with_rng(n, s, field, packed_rng, accept)
                canonical = subspace_module.sample_with_rng(n, s, field, default_rng)
                assert tuple(map(tuple, canonical)) == rows
                assert len(drawn) == s
                assert tuple(rref_mod_p([unpack(v, n) for v in drawn], p)) == rows
                assert packed_rng.getstate() == default_rng.getstate() == ref.getstate()


def test_sampled_refutation_reports_exact_achieved():
    # One projection onto 3 of 5 coordinates: a 3-dim subspace's image sum is
    # 1, 2 or 3, all below t = 5, so the first draw refutes with its exact
    # value, not with where the scan could have stopped.
    n, p, seed = 5, 3, 17
    proj = Matrix(F3, n, n, tuple(int(i == j < 3) for i in range(n) for j in range(n)))
    fam = MapFamily(F3, n, (proj,))
    res = verify_spreading(fam, SpreadingParams(3, 5), samples=10, seed=seed)
    first = replay_draws(n, 3, p, random.Random(seed), 1)[0]
    assert not res.verified
    assert res.counterexample.basis.entries == tuple(x for r in first for x in r)
    assert res.achieved == image_sum_dim([proj.entries], first, n, p) < 5


@pytest.mark.parametrize("p", (2, 3))
def test_sampled_scans_build_a_subspace_only_for_the_report(monkeypatch, p):
    # Every Subspace checks its basis once, in `_check_canonical_basis`.  A
    # sampled verification that holds reports no subspace and builds none; a
    # sampled measure builds one per dimension, the minimum it reports there,
    # however many draws it makes.
    n, samples = 6, 40
    fam = MapFamily(FieldSpec(p), n, (Matrix.identity(FieldSpec(p), n),)
                    + rand_family(FieldSpec(p), n, 2, random.Random(p)).maps)
    checks: list[Matrix] = []
    real = subspace_module._check_canonical_basis

    def check(b):
        checks.append(b)
        real(b)

    monkeypatch.setattr(subspace_module, "_check_canonical_basis", check)
    res = verify_spreading(fam, SpreadingParams(3, 3), samples=samples, seed=5)
    assert res.verified and not res.exhaustive  # the identity gives every draw t = s
    assert checks == []
    report = measure_expansion(fam, samples=samples, seed=5)
    assert not report.exhaustive
    assert len(checks) == n // 2
    assert report.witness.basis in checks


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


def test_measure_expansion_tie_takes_the_lower_dimension():
    # dyadic n=4 over GF(2): dims 1 and 2 both reach ratio 1 (tau 0)
    rep = measure_expansion(matching_maps(dyadic_matchings(4), GF2))
    assert rep.tau_star == 0
    assert rep.per_dimension == ((1, 1), (2, 2))
    assert rep.witness.basis.entries == (0, 0, 0, 1)
    # four maps on GF(2)^4 where dims 1 and 2 both reach ratio 2 (tau 1)
    rows = [
        [[0, 1, 0, 1], [1, 0, 0, 0], [1, 0, 1, 0], [0, 0, 1, 0]],
        [[0, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 1, 0, 1]],
        [[0, 1, 0, 1], [0, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
        [[1, 0, 0, 1], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 0]],
    ]
    fam = MapFamily(GF2, 4, tuple(Matrix.from_rows(GF2, r) for r in rows))
    rep = measure_expansion(fam)
    assert rep.tau_star == 1
    assert rep.per_dimension == ((1, 2), (2, 4))
    assert rep.witness.basis.entries == (0, 1, 0, 1)


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


def test_large_expansion_rejects_a_nonpositive_tau():
    fam = matching_maps(shift_matchings(3), GF2)
    for tau in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="tau must be positive"):
            verify_large_expansion(fam, tau)


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


def test_large_expansion_precondition_budget_is_not_skipped():
    # At cap 20 the dim-3 scan of GF(2)^4 fits (15 subspaces) but the
    # expander precondition over dims 1 and 2 does not (15 + 35), so the
    # checked call must refuse rather than verify without it.
    shifts = matching_maps(shift_matchings(4), GF2)
    with pytest.raises(BudgetExceeded) as exc:
        verify_large_expansion(shifts, Fraction(1, 2), enumeration_cap=20)
    assert (exc.value.stage, exc.value.needed, exc.value.cap) == ("expander verification", 50, 20)
    res = verify_large_expansion(shifts, Fraction(1, 2), enumeration_cap=20,
                                 check_expander=False)
    assert res.verified and len(res.records) == 15


def test_thread_count_does_not_change_results():
    shifts = matching_maps(shift_matchings(4), GF2)
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


def test_large_expansion_records_take_one_pass():
    # The result holds one 8-byte reference per subspace.  Building the
    # tuple straight from the scan keeps the peak near that; a list of the
    # records copied into a tuple at the end holds both, about twice that.
    fam = symmetrize(matching_maps(dyadic_matchings(8), GF2))
    tracemalloc.start()
    try:
        res = verify_large_expansion(fam, Fraction(1, 2), check_expander=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.verified
    assert len(res.records) == sum(grassmann_count(8, d, 2) for d in (5, 6, 7))
    assert peak < 1.5 * 8 * len(res.records)


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


def test_last_row_tables_are_built_once_per_cell(monkeypatch):
    # At cap 4 a GF(2) table covers two free entries, and the last rows of
    # GF(2) n=6 at d = 2 have up to four.  Only one-row cells split, so each
    # cell builds d row tables, one last-row table and at most D map tables;
    # with the need at n no prefix span reaches it.  Both kinds are counted:
    # row tables as `fill` calls through families.vectors.
    fam = matching_maps(shift_matchings(6), GF2)
    d, builds = 2, []
    real = families_module.vectors

    def counted(build):
        def wrapper(*args):
            builds.append(1)
            return build(*args)
        return wrapper

    def counted_vectors(p):
        vec = real(p)
        return vec._replace(fill=counted(vec.fill))

    monkeypatch.setattr(families_module, "_TABLE_CAP", 4)
    monkeypatch.setattr(families_module, "vectors", counted_vectors)
    monkeypatch.setattr(families_module, "_image_table", counted(families_module._image_table))
    scan = list(families_module._image_sums(fam, {d: fam.n}, None, None, 10**6, "test"))
    assert sum(count for *_, count in scan) == grassmann_count(6, d, 2)
    assert len(builds) <= math.comb(6, d) * (d + 1 + len(fam.maps))


def count_image_tables(monkeypatch) -> list:
    """The rows of every `images` call the scans make, in order, through
    families.vectors."""
    built, real = [], families_module.vectors

    def counted(p):
        vec = real(p)

        def images(rows):
            built.append(rows)
            return vec.images(rows)

        return vec._replace(images=images)

    monkeypatch.setattr(families_module, "vectors", counted)
    return built


def map_columns(fam):
    pack, n = vectors(fam.field.modulus).pack, fam.n
    return [tuple(pack(m.entries[c::n]) for c in range(n)) for m in fam.maps]


@pytest.mark.parametrize("kind, t, reached", [
    (shift_matchings, 10, 14), (dyadic_matchings, 4, 8),
], ids=["shift-122-words", "dyadic-128-words"])
def test_image_tables_are_built_only_for_the_maps_reached(kind, t, reached, monkeypatch):
    # Work counter: certify at (4, 5) on a word family of n=7 stops every
    # image sum at dim 5, which the first few maps reach.  Images are taken
    # map by map in family order, so the maps with tables are a prefix of the
    # family, each built once for the whole scan.  At s = t = 4 the family's
    # identity word settles the scan before any image is taken.
    fam = words(symmetrize(matching_maps(kind(7), GF2)), t)
    built = count_image_tables(monkeypatch)
    assert certify_lower_bound(fam, SpreadingParams(4, 5)).bound == 8
    assert built == map_columns(fam)[:reached]
    assert reached < len(fam.maps) // 8
    built.clear()
    assert certify_lower_bound(fam, SpreadingParams(4, 4)).bound == 7
    assert built == []


def test_sampled_image_tables_are_built_only_for_the_maps_reached(monkeypatch):
    # Work counter, as above: 200 draws of dim 3 on the 122 words stop at
    # image-sum dim 6, which none of them needs more than 7 maps to reach.
    fam = words(symmetrize(matching_maps(shift_matchings(7), GF2)), 10)
    built = count_image_tables(monkeypatch)
    res = verify_spreading(fam, SpreadingParams(3, 6), samples=200, seed=5)
    assert res.verified
    assert built == map_columns(fam)[:7]


def shift_words_7():
    # the 13 distinct length-3 words of symmetrized shift n=7
    return words(symmetrize(matching_maps(shift_matchings(7), GF2)), 3)


def test_blocks_fire_at_several_depths():
    # With the need at n, a block is emitted at the shortest prefix of rows
    # whose images span everything: row 0 alone, or rows 0 and 1, and every
    # member shares that prefix.  A prefix one short of n makes a block of
    # its whole last-row group when no row of the group keeps every image
    # inside the prefix's span; each member of such a block reaches n.
    fam = shift_words_7()
    d, n = 3, fam.n
    maps = [m.entries for m in fam.maps]
    items = list(families_module._image_sums(fam, {d: n}, None, None, 10**6, "test"))
    subs = list(enumerate_subspaces(n, d, GF2))
    assert sum(count for *_, count in items) == len(subs)
    depths = set()
    pos = 0
    for _, rows, a, count in items:
        members = [sub.basis.row_lists() for sub in subs[pos:pos + count]]
        pos += count
        basis = families_module._subspace(fam, rows).basis.row_lists()
        assert basis == members[0]
        if count > 1:
            assert a == n
            depth = next(k for k in range(1, d + 1)
                         if image_sum_dim(maps, basis[:k], n, 2) == n)
            depths.add(depth)
            if depth < d:
                assert all(m[:depth] == basis[:depth] for m in members)
            else:
                assert all(image_sum_dim(maps, m, n, 2) == n for m in members)
        else:
            assert a == min(n, image_sum_dim(maps, basis, n, 2))
    assert depths == {1, 2, 3}


def test_scan_checks_its_counts():
    # the counts of a dimension must sum to the Gaussian binomial it is given
    fam = shift_words_7()
    p, n, d = 2, fam.n, 3
    images = families_module._map_images(fam, vectors(p))
    units = [1 << c for c in range(n)]
    nominal = grassmann_count(n, d, p)
    assert sum(item[3] for item in families_module._grassmann_scan(
        fam, images, units, d, {d: n}, nominal, 0)) == nominal
    with pytest.raises(RuntimeError, match="covered 11811 subspaces, not 11812"):
        list(families_module._grassmann_scan(fam, images, units, d, {d: n}, nominal + 1, 0))


def count_items(monkeypatch):
    """Items the scans yield, per dimension, through families._image_sums."""
    items, real = collections.Counter(), families_module._image_sums

    def counted(*args):
        for item in real(*args):
            items[item[0]] += 1
            yield item

    monkeypatch.setattr(families_module, "_image_sums", counted)
    return items


def test_scan_stops_at_a_proven_minimum(monkeypatch):
    # Work counter: on symmetrized dyadic n=7 the scan of dim 2 proves
    # f(2) = 6, so dim 3 stops once its running minimum reaches 6, at item
    # 152 of the 979 a full walk yields, the first leaf of a last-row group
    # of 8.  The other 7 rows of that group are one block, the rest of its
    # cell is one block per prefix row (2), and each of the 33 later cells
    # is one: 36 more items.  Dim 4 has f(4) = 7 > f(3) and is walked in
    # full; f(4) = n then settles dims 5 to 7 before their scans, one block
    # per Schubert cell.  Last-row groups one short of the need that no row
    # keeps inside the prefix's span are one item each.
    fam = symmetrize(matching_maps(dyadic_matchings(7), GF2))
    items = count_items(monkeypatch)
    assert measure_expansion(fam).per_dimension == ((1, 4), (2, 6), (3, 6))
    assert items == {1: 127, 2: 387, 3: 188}
    items.clear()
    assert spreading_profile(fam) == ((1, 4), (2, 6), (3, 6), (4, 7), (5, 7), (6, 7), (7, 7))
    assert items == {1: 127, 2: 387, 3: 188, 4: 998, 5: 21, 6: 7, 7: 1}


def test_identity_settles_a_dimension_without_a_scan(monkeypatch):
    # Work counter: with the identity in the family every dim-4 subspace
    # reaches 4, so each t <= 4 is decided before any image is taken: one
    # block per Schubert cell of Gr(4, 7), 35 in all.
    fam = symmetrize(matching_maps(dyadic_matchings(7), GF2))
    items = count_items(monkeypatch)
    for t in range(5):
        assert verify_spreading(fam, SpreadingParams(4, t)).verified
    assert items == {4: 5 * math.comb(7, 4)}


def cyclic_shift(field, n):
    return Matrix(field, n, n, tuple(int(j == (i + 1) % n) for i in range(n) for j in range(n)))


def test_an_invertible_map_settles_t_at_most_s_without_an_image(monkeypatch):
    # Work counter: an invertible map A, here a cyclic shift after a singular
    # map, gives dim(A U) = d, so the floor is d as with the identity.  Every
    # t <= s is then settled before any image is taken: one block per
    # Schubert cell when exhaustive, and each draw made but none imaged when
    # sampled.
    n, samples = 5, 6
    built = count_image_tables(monkeypatch)
    items = count_items(monkeypatch)
    for p in (2, 3, 5):
        field = FieldSpec(p)
        singular = Matrix(field, n, n, tuple(int(i == j < n - 1) for i in range(n)
                                             for j in range(n)))
        fam = MapFamily(field, n, (singular, cyclic_shift(field, n)))
        items.clear()
        for s in range(1, n + 1):
            for t in range(s + 1):
                assert verify_spreading(fam, SpreadingParams(s, t)).verified
                res = verify_spreading(fam, SpreadingParams(s, t), samples=samples, seed=t)
                assert res.verified and not res.exhaustive
        assert built == []
        assert items == {s: (s + 1) * (math.comb(n, s) + samples) for s in range(1, n + 1)}


def test_an_invertible_map_floors_measure(monkeypatch):
    # Work counter: {C, C^2} for the cyclic shift C of GF(2)^8 holds no
    # identity, but C is invertible, so `measure` stops each dimension once
    # its running minimum reaches d (the all-ones line is fixed by both
    # maps, so each minimum is d).  The rest of the last-row group where the
    # minimum reaches d is one block, and so is the rest of each prefix
    # row's values in that cell.  Without that floor the scan yields
    # {1: 136, 2: 895, 3: 12869, 4: 9886} items.
    n = 8
    shift = cyclic_shift(GF2, n)
    fam = MapFamily(GF2, n, (shift, shift @ shift))
    items = count_items(monkeypatch)
    assert measure_expansion(fam).per_dimension == ((1, 1), (2, 2), (3, 3), (4, 4))
    assert items == {1: 135, 2: 156, 3: 930, 4: 2204}


@pytest.mark.parametrize("p", (2, 3, 5))
def test_singular_maps_give_the_floor_d_minus_the_least_nullity(p, monkeypatch):
    # Maps of ranks 3, 2 and 3 on GF(p)^5 (rows beyond the rank are zero):
    # the least nullity is 2, and it is found by adding each map's rows.  A
    # dim-d need at or below d - 2 is settled cell by cell at exactly d - 2
    # before any image is taken; a need of d - 1 is scanned.
    field, n = FieldSpec(p), 5
    rng = random.Random(900 + p)
    maps = []
    for rank in (3, 2, 3):
        while True:
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(rank)]
            if rank_mod_p(rows, p) == rank:
                break
        maps.append(Matrix.from_rows(field, rows + [[0] * n] * (n - rank)))
    fam = MapFamily(field, n, tuple(maps))
    assert min(n - rank_mod_p(m.row_lists(), p) for m in fam.maps) == 2
    assert families_module._least_nullity(fam, vectors(p)) == 2
    built = count_image_tables(monkeypatch)
    for d in range(3, n + 1):
        for t in (0, d - 2):
            items = list(families_module._image_sums(fam, {d: t}, None, None, 10**6, "test"))
            assert [a for _, _, a, _ in items] == [d - 2] * math.comb(n, d)
            assert sum(count for *_, count in items) == grassmann_count(n, d, p)
    assert built == []
    list(families_module._image_sums(fam, {n: n - 1}, None, None, 10**6, "test"))
    assert built != []


@pytest.mark.parametrize("p", (2, 3))
def test_settled_sampled_draws_keep_the_rng_stream(p, monkeypatch):
    # The floor decides each draw, but every draw is still made: the
    # sampler is called `samples` times per dimension, and the draws are
    # the ones the replay of the seeded stream gives.
    field, n, samples, seed = FieldSpec(p), 6, 9, 11
    fam = MapFamily(field, n, (cyclic_shift(field, n),)
                    + rand_family(field, n, 2, random.Random(p)).maps)
    drawn, real = [], families_module.sample_with_rng

    def sample_with_rng(n, s, *args):
        drawn.append((s, real(n, s, *args)))
        return drawn[-1][1]

    monkeypatch.setattr(families_module, "sample_with_rng", sample_with_rng)
    assert verify_spreading(fam, SpreadingParams(4, 4), samples=samples, seed=seed).verified
    unpack = vectors(p).unpack
    got = [tuple(rref_mod_p([unpack(v, n) for v in rows], p)) for _, rows in drawn]
    assert got == replay_draws(n, 4, p, random.Random(seed), samples)
    drawn.clear()
    measure_expansion(fam, samples=samples, seed=seed)
    assert [s for s, _ in drawn] == [d for d in range(1, n // 2 + 1) for _ in range(samples)]


def test_each_dimension_is_budgeted_once(monkeypatch):
    # The floors settle or stop dimensions, but each scanned dimension's
    # Gaussian binomial is still computed once, for the budget, before any work.
    fam = symmetrize(matching_maps(dyadic_matchings(6), GF2))
    dims, real = [], families_module.grassmann_count

    def counted(n, d, p):
        dims.append(d)
        return real(n, d, p)

    monkeypatch.setattr(families_module, "grassmann_count", counted)
    measure_expansion(fam)
    assert dims == [1, 2, 3]
    dims.clear()
    verify_spreading(fam, SpreadingParams(3, 3))
    assert dims == [3]
    dims.clear()
    spreading_profile(fam)
    assert dims == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("fam, need, items, subspaces", [
    (shift_words_7(), {3: 7}, 746, 11811),
    (matching_maps(shift_matchings(6), GF2), {4: 6, 5: 6}, 320, 714),
], ids=["shift-words-7", "shift-6"])
def test_scan_skips_decided_subtrees(fam, need, items, subspaces):
    # Work counter: a scan that walks every subspace below a prefix that
    # already reaches the need, or every row of a last-row group that the
    # group test settles, yields one item per subspace instead.
    scan = list(families_module._image_sums(fam, need, None, None, 10**6, "test"))
    assert len(scan) == items
    assert sum(count for *_, count in scan) == subspaces
