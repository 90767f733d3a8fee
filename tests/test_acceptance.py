"""Acceptance suite: the package's headline guarantees, one test per criterion.

Every test prints a single `ACCEPTANCE <k> <label>: PASS` line on success
(run pytest with -rA or -s to see them) and enforces its runtime budget
where one is stated.
"""

import random
import time
from fractions import Fraction

from dimspread.certify import (
    certify_lower_bound,
    check_trace,
    family_tensor,
    rank_bound,
    refute_spreading,
)
from dimspread.cli import main
from dimspread.errors import BudgetExceeded
from dimspread.families import (
    MapFamily,
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
from dimspread.formats import (
    parse_decomposition,
    parse_map_family,
    parse_tensor,
    serialize_decomposition,
    serialize_map_family,
    serialize_tensor,
)
from dimspread.gfp import GF2, FieldSpec, Matrix
from dimspread.subspace import enumerate_subspaces
from dimspread.tensor import (
    Decomposition,
    RankOneTerm,
    Tensor3,
    eval_decomposition,
    min_spanning_rank_ones,
    tensor_rank,
)
from oracles import (
    direct_tensor_rank,
    gaussian_binomial,
    image_sum_dim,
    pair_sums,
    rand_family,
    rank_one_pool,
)

F3 = FieldSpec(3)


def stamp(k: int, label: str, t0: float, budget: float | None = None) -> None:
    elapsed = time.monotonic() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {k} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {k} {label}: PASS ({elapsed:.1f}s)")


def oracle_image_sum(fam, sub):
    """Image-sum dim of `sub` from the plain entries of the maps and basis."""
    n = fam.n
    basis = [sub.basis.entries[i * n:(i + 1) * n] for i in range(sub.dim)]
    return image_sum_dim([m.entries for m in fam.maps], basis, n, fam.field.modulus)


def test_criterion_1_exact_reproduction():
    t0 = time.monotonic()
    i2 = Matrix.identity(GF2, 2)
    n2 = Matrix.from_rows(GF2, [[0, 1], [0, 0]])
    fam = MapFamily(GF2, 2, (i2, n2, n2.transpose()))

    res = verify_spreading(fam, SpreadingParams(1, 2))
    assert res.verified and res.exhaustive

    cert = certify_lower_bound(fam, SpreadingParams(1, 2))
    assert cert.bound == 3 and cert.conclusive

    got = tensor_rank(family_tensor(fam), 4)
    assert got is not None
    rank, dec = got
    assert rank == 3
    assert eval_decomposition(dec) == family_tensor(fam)

    stamp(1, "spreading family rank-3 reproduction", t0, budget=1.0)


def test_criterion_2_bound_never_violated():
    t0 = time.monotonic()
    rng = random.Random(202)
    n = 3
    families = 102
    for i in range(families):
        fam = rand_family(GF2, n, i % 3 + 1, rng)
        profile = dict(spreading_profile(fam))
        got = tensor_rank(family_tensor(fam), 6)
        rank = 7 if got is None else got[0]  # rank > 6 exceeds any bound here
        for s in range(1, n + 1):
            for t in range(1, profile[s] + 1):
                bound = rank_bound(n, SpreadingParams(s, t))
                assert rank >= bound, (
                    f"family {i}: certified ({s}, {t})-spreading implies rank >= "
                    f"{bound}, but the search found {rank}"
                )
    stamp(2, f"rank bound held on {families} random families", t0, budget=600.0)


def test_criterion_3_rank_search_equivalence():
    t0 = time.monotonic()
    rng = random.Random(303)
    total = 0
    for p, d1 in ((2, 2), (2, 3), (3, 2), (3, 3)):
        field = FieldSpec(p)
        pool = rank_one_pool(p, d1, 2, 2)
        pairs = pair_sums(pool, p)
        for _ in range(14):
            t = Tensor3(
                field, d1, 2, 2,
                tuple(rng.randrange(p) for _ in range(d1 * 4)),
            )
            expect = direct_tensor_rank(t.entries, pool, pairs, p)
            assert expect is not None  # a (d,2,2) tensor has rank at most 4
            found = min_spanning_rank_ones(t.slices(), 4)
            assert found is not None and found[0] == expect
            total += 1
    assert total >= 50
    stamp(3, f"span search matched the direct oracle on {total} tensors", t0,
          budget=300.0)


def test_criterion_4_refuter_soundness():
    t0 = time.monotonic()
    rng = random.Random(404)
    pairs_checked = 0
    for _ in range(60):
        n = rng.choice((2, 3))
        fam = rand_family(GF2, n, rng.choice((1, 2)), rng)
        got = tensor_rank(family_tensor(fam), 2 * n - 1)
        if got is None:
            continue
        r, dec = got
        for s in range(1, n + 1):
            for t in range(1, n + 1):
                if r >= n + t - s:
                    continue
                params = SpreadingParams(s, t)
                trace = refute_spreading(fam, params, dec)
                assert check_trace(fam, params, trace)
                # the verification engine agrees: spreading fails outright,
                # and the specific violating subspace falls short of t
                assert not verify_spreading(fam, params).verified
                assert trace.violating.dim >= s
                assert oracle_image_sum(fam, trace.violating) == trace.achieved < t
                pairs_checked += 1
    assert pairs_checked >= 25
    stamp(4, f"refutation traces replayed on {pairs_checked} pairs", t0, budget=300.0)


def test_criterion_5_large_subspace_growth():
    t0 = time.monotonic()
    rng = random.Random(505)
    image_bound = Fraction(1, 8)  # tau*(1 - 3/4)/2 with the tau factored out
    families = 0
    attempts = 0
    while families < 20 and attempts < 200:
        attempts += 1
        fam = symmetrize(rand_family(GF2, 4, 2, rng))
        rep = measure_expansion(fam)
        if rep.tau_star <= 0:
            continue
        need = 3 * (1 + rep.tau_star * image_bound)
        for sub in enumerate_subspaces(4, 3, GF2):
            assert Fraction(oracle_image_sum(fam, sub)) >= need
        assert verify_large_expansion(fam, rep.tau_star).verified
        families += 1
    assert families >= 20
    stamp(5, f"dimension-3 growth held for {families} expander families", t0,
          budget=120.0)


def test_criterion_6_word_powers_spread():
    t0 = time.monotonic()
    rng = random.Random(606)
    eps = Fraction(1, 2)
    checked = skipped = 0
    for n in (2, 3, 4):
        candidates = [
            symmetrize(matching_maps(shift_matchings(n), GF2)),
            symmetrize(matching_maps(dyadic_matchings(n), GF2)),
        ]
        for _ in range(6):
            candidates.append(symmetrize(rand_family(GF2, n, 2, rng)))
        for fam in candidates:
            rep = measure_expansion(fam)
            if rep.tau_star <= 0:
                continue
            assert verify_expander(fam, rep.tau_star).verified  # exhaustive
            t = word_length_for(eps, rep.tau_star)
            try:
                word_fam = words(fam, t)
            except BudgetExceeded:
                skipped += 1
                continue
            s = -(-n // 2)  # ceil(eps * n) = ceil((1 - eps) * n) at eps = 1/2
            res = verify_spreading(word_fam, SpreadingParams(s, s))
            assert res.verified, (
                f"words of length {t} of an exhaustively certified "
                f"{rep.tau_star}-expander on n={n} failed ({s}, {s})-spreading"
            )
            checked += 1
    assert checked > 0
    stamp(6, f"word powers spread in {checked} cases ({skipped} over budget)", t0)


def test_criterion_7_enumeration_counts():
    t0 = time.monotonic()
    for p in (2, 3):
        field = FieldSpec(p)
        for n in range(6):
            for s in range(n + 1):
                count = sum(1 for _ in enumerate_subspaces(n, s, field))
                assert count == gaussian_binomial(n, s, p)
    stretch = sum(1 for _ in enumerate_subspaces(6, 3, GF2))
    assert stretch == 1395 == gaussian_binomial(6, 3, 2)
    stamp(7, "enumeration counts match Gaussian binomials", t0, budget=60.0)


def test_criterion_8_serialization_roundtrips():
    t0 = time.monotonic()
    rng = random.Random(808)

    def rand_field():
        return FieldSpec(rng.choice((2, 3, 5)))

    for _ in range(334):
        field = rand_field()
        n = rng.randrange(1, 5)
        fam = rand_family(field, n, rng.randrange(1, 4), rng)
        text = serialize_map_family(fam)
        assert serialize_map_family(parse_map_family(text)) == text
    for _ in range(333):
        field = rand_field()
        d1, d2, d3 = (rng.randrange(1, 4) for _ in range(3))
        t = Tensor3(
            field, d1, d2, d3,
            tuple(rng.randrange(field.modulus) for _ in range(d1 * d2 * d3)),
        )
        text = serialize_tensor(t)
        assert serialize_tensor(parse_tensor(text)) == text
    for _ in range(333):
        field = rand_field()
        p = field.modulus
        d1, d2, d3 = (rng.randrange(1, 4) for _ in range(3))
        terms = tuple(
            RankOneTerm(
                tuple(rng.randrange(p) for _ in range(d1)),
                tuple(rng.randrange(p) for _ in range(d2)),
                tuple(rng.randrange(p) for _ in range(d3)),
            )
            for _ in range(rng.randrange(0, 4))
        )
        dec = Decomposition(field, (d1, d2, d3), terms)
        text = serialize_decomposition(dec)
        assert serialize_decomposition(parse_decomposition(text)) == text
    stamp(8, "1000 serialization round-trips byte-identical", t0)


def test_criterion_9_thread_determinism(tmp_path, capsys):
    t0 = time.monotonic()

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shifts = str(tmp_path / "shifts.maps")
    assert run("build-maps", "--kind", "shifts", "--n", "4", "--out", shifts)[0] == 0
    ident = str(tmp_path / "ident.maps")
    fam = MapFamily(GF2, 4, (Matrix.identity(GF2, 4),))
    (tmp_path / "ident.maps").write_text(serialize_map_family(fam), encoding="ascii")
    randoms = str(tmp_path / "random.maps")
    assert run("build-maps", "--kind", "random", "--n", "4", "--seed", "99",
               "--count", "2", "--out", randoms)[0] == 0

    corpus = [
        ["verify-spreading", shifts, "--s", "2", "--t", "2"],
        ["verify-spreading", ident, "--s", "1", "--t", "2"],  # refuted
        ["verify-expander", shifts, "--tau", "1/2"],
        ["verify-expander", ident, "--tau", "1/2"],  # refuted
        ["measure", shifts],
        ["measure", randoms],
        ["pipeline", shifts, "--epsilon", "1/2"],
        ["pipeline", ident, "--epsilon", "1/2"],  # refuted at expansion
    ]
    for argv in corpus:
        single = run(*argv, "--threads", "1")
        multi = run(*argv, "--threads", "8")
        assert single == multi, f"thread count changed the output of {argv}"
    stamp(9, f"byte-identical reports across threads on {len(corpus)} runs", t0)
