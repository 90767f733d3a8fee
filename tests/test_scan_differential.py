"""The scans in `families` against a slow, independent route.

The reference enumerates with `enumerate_subspaces` (or replays the seeded
draws with `sample_with_rng`) and computes every image sum as a sum of
`apply_map` images with `Subspace.__add__`, the route `check_trace` uses.
First counterexamples, witnesses, minima and records must agree in value and
in canonical order, over GF(2), GF(3) and GF(5).
"""

import random
from fractions import Fraction

import pytest

import dimspread.families as families_module
from dimspread.families import (
    ExpansionReport,
    LargeExpansionRecord,
    LargeExpansionResult,
    MapFamily,
    SpreadingParams,
    SpreadingResult,
    dyadic_matchings,
    matching_maps,
    measure_expansion,
    spreading_profile,
    symmetrize,
    verify_expander,
    verify_large_expansion,
    verify_spreading,
)
from dimspread.gfp import FieldSpec, Matrix
from dimspread.subspace import (
    Subspace,
    apply_map,
    enumerate_subspaces,
    sample_with_rng,
    span_of,
)

CASES = [(FieldSpec(2), n) for n in (2, 3, 4)] + [
    (FieldSpec(p), n) for p in (3, 5) for n in (2, 3)
]
TAUS = (Fraction(1, 3), Fraction(1, 2), Fraction(1))


def sparse_family(field, n, rng):
    """One to three maps with mostly zero entries, so that scans find
    violations as well as holding thresholds."""
    p = field.modulus
    maps = []
    for _ in range(rng.randint(1, 3)):
        entries = tuple(rng.randrange(1, p) if rng.random() < 0.35 else 0
                        for _ in range(n * n))
        maps.append(Matrix(field, n, n, entries))
    return MapFamily(field, n, tuple(maps))


def families():
    rng = random.Random(20251102)
    for field, n in CASES:
        for _ in range(4):
            yield sparse_family(field, n, rng)


FAMILIES = list(families())
over_families = pytest.mark.parametrize(
    "fam", FAMILIES, ids=lambda f: f"p{f.field.modulus}n{f.n}")


def ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def slow_image_sum(fam, sub):
    total = Subspace.zero(fam.field, fam.n)
    for m in fam.maps:
        total = total + apply_map(m, sub)
    return total.dim


def slow_scan(fam, dims):
    for d in dims:
        for sub in enumerate_subspaces(fam.n, d, fam.field):
            yield d, sub, slow_image_sum(fam, sub)


def slow_draws(fam, dims, samples, seed):
    rng = random.Random(seed)
    for d in dims:
        for _ in range(samples):
            sub = sample_with_rng(fam.n, d, fam.field, rng)
            yield d, sub, slow_image_sum(fam, sub)


def first_violation(scan, thresholds):
    return next(((sub, a) for d, sub, a in scan if d in thresholds and a < thresholds[d]),
                None)


def minima(scan):
    out = {}
    for d, sub, a in scan:
        if d not in out or a < out[d][0]:
            out[d] = (a, sub)
    return out


def expected_result(hit, samples=None, seed=None):
    exhaustive = samples is None
    if hit is None:
        return SpreadingResult(True, exhaustive, samples=samples, seed=seed)
    return SpreadingResult(False, exhaustive, hit[0], hit[1], samples=samples, seed=seed)


def expected_report(mins, exhaustive):
    tau_star = witness = None
    for d in sorted(mins):
        ratio = Fraction(mins[d][0], d) - 1
        if tau_star is None or ratio < tau_star:
            tau_star, witness = ratio, mins[d][1]
    per_dim = tuple((d, mins[d][0]) for d in sorted(mins))
    return ExpansionReport(tau_star, witness, per_dim, exhaustive)


def expander_thresholds(n, tau):
    return {d: ceil((1 + tau) * d) for d in range(1, n // 2 + 1)}


def check_exhaustive(fam, ts=None):
    """Profile, measure, spreading at each s with t in `ts` (default: the
    minimum and one above it), and the expander check, against the slow
    route."""
    n = fam.n
    scan = list(slow_scan(fam, range(1, n + 1)))
    mins = minima(scan)
    assert spreading_profile(fam) == tuple((d, mins[d][0]) for d in range(1, n + 1))
    for s in range(1, n + 1):
        for t in ts or {mins[s][0], min(n, mins[s][0] + 1)}:
            want = expected_result(first_violation(scan, {s: t}))
            assert verify_spreading(fam, SpreadingParams(s, t)) == want
    low = [row for row in scan if row[0] <= n // 2]
    assert measure_expansion(fam) == expected_report(minima(low), True)
    for tau in TAUS:
        want = expected_result(first_violation(low, expander_thresholds(n, tau)))
        assert verify_expander(fam, tau) == want


def check_large(sym):
    n = sym.n
    dims = range(n // 2 + 1, n)
    scan = list(slow_scan(sym, dims))
    for tau in TAUS:
        thresholds = {d: ceil((1 + tau * (1 - Fraction(d, n)) / 2) * d) for d in dims}
        records = []
        for d, _, a in scan:
            delta = Fraction(a, d) - 1
            sharper = tau * (1 - Fraction(d, n)) / ((1 + tau) * Fraction(d, n))
            records.append(LargeExpansionRecord(d, a, delta, sharper, delta >= sharper))
        hit = first_violation(scan, thresholds)
        want = LargeExpansionResult(hit is None, *(hit or (None, None)), tuple(records))
        assert verify_large_expansion(sym, tau, check_expander=False) == want
        if verify_expander(sym, tau).verified:
            assert verify_large_expansion(sym, tau) == want
        else:
            with pytest.raises(ValueError):
                verify_large_expansion(sym, tau)


@over_families
def test_exhaustive_scans_match_slow_route(fam):
    check_exhaustive(fam)


@over_families
def test_large_expansion_matches_slow_route(fam):
    check_large(symmetrize(fam))


@over_families
def test_sampled_scans_replay_by_hand(fam):
    n = fam.n
    seed = 1000 * fam.field.modulus + n
    samples = 4
    low = range(1, n // 2 + 1)
    drawn = list(slow_draws(fam, low, samples, seed))
    assert measure_expansion(fam, samples=samples, seed=seed) == expected_report(
        minima(drawn), False)
    for tau in TAUS:
        want = expected_result(first_violation(drawn, expander_thresholds(n, tau)),
                               samples, seed)
        assert verify_expander(fam, tau, samples=samples, seed=seed) == want
    for s in range(1, n + 1):
        drawn_s = list(slow_draws(fam, [s], samples, seed))
        for t in (n, min(drawn_s, key=lambda row: row[2])[2]):
            want = expected_result(first_violation(drawn_s, {s: t}), samples, seed)
            assert verify_spreading(fam, SpreadingParams(s, t), samples=samples,
                                    seed=seed) == want


def test_exhaustive_results_carry_no_sampling_fields():
    fam = FAMILIES[0]
    got = verify_spreading(fam, SpreadingParams(1, fam.n), seed=7)
    assert (got.samples, got.seed) == (None, None)
    got = verify_expander(fam, Fraction(1, 2), seed=7)
    assert (got.samples, got.seed) == (None, None)


# The scan kernel's own branches, beyond the small cases above.  Every
# profile scans s = 1 (no prefix rows) and s = n (a last row with no free
# entries); GF(2) n=5 gives last rows of up to four free entries; the
# symmetrized families have five to seven maps, so the images of a prefix
# alone can span the whole space and decide a block.
def symmetrized_dyadic(field, n):
    return symmetrize(matching_maps(dyadic_matchings(n), field))


def kernel_families():
    rng = random.Random(20251207)
    yield sparse_family(FieldSpec(2), 5, rng)
    yield sparse_family(FieldSpec(2), 5, rng)
    yield symmetrized_dyadic(FieldSpec(2), 5)
    yield symmetrize(sparse_family(FieldSpec(3), 4, rng))
    yield symmetrized_dyadic(FieldSpec(5), 3)


KERNEL_FAMILIES = list(kernel_families())
over_kernel_families = pytest.mark.parametrize(
    "fam", KERNEL_FAMILIES, ids=lambda f: f"p{f.field.modulus}n{f.n}D{len(f.maps)}")


def prefix_spans_everything(fam):
    """Some subspace of dim >= 2 whose first s-1 basis rows alone have
    images spanning GF(p)^n."""
    n = fam.n
    for s in range(2, n + 1):
        for sub in enumerate_subspaces(n, s, fam.field):
            rows = Matrix(fam.field, s - 1, n, sub.basis.entries[:(s - 1) * n])
            if slow_image_sum(fam, span_of(rows)) == n:
                return True
    return False


def check_scan_order(fam):
    """The exhaustive scan itself: subspaces in canonical order, exact image
    sums below need[d], and at least need[d] otherwise."""
    n = fam.n
    dims = range(1, n + 1)
    scan = list(slow_scan(fam, dims))
    for t in range(n + 1):
        got = list(families_module._image_sums(fam, {d: t for d in dims}, None, None,
                                               10**6, "test"))
        assert len(got) == len(scan)
        for (d, rows, a), (want_d, want_sub, exact) in zip(got, scan):
            assert (d, families_module._subspace(fam, rows)) == (want_d, want_sub)
            assert a == exact if exact < t else a >= t


def test_kernel_cases_reach_the_block_shortcut():
    assert all(prefix_spans_everything(fam) for fam in KERNEL_FAMILIES
               if len(fam.maps) >= 5)
    assert sum(len(fam.maps) >= 5 for fam in KERNEL_FAMILIES) >= 3


@over_kernel_families
def test_kernel_matches_slow_route_at_every_threshold(fam):
    # every t from 0 to n: a low t stops most subspaces after a few adds,
    # t = n only at the full space; measure exercises the running-minimum exit
    check_scan_order(fam)
    check_exhaustive(fam, ts=range(fam.n + 1))


@over_kernel_families
def test_kernel_large_expansion_matches_slow_route(fam):
    check_large(symmetrize(fam))


@pytest.mark.parametrize("cap", (1, 4))
@pytest.mark.parametrize("fam", [KERNEL_FAMILIES[0], KERNEL_FAMILIES[2], KERNEL_FAMILIES[3],
                                 FAMILIES[-1]],
                         ids=lambda f: f"p{f.field.modulus}n{f.n}D{len(f.maps)}")
def test_split_last_rows_match_slow_route(fam, cap, monkeypatch):
    # With the table cap at 1 every free entry of a last row joins the
    # prefix; at 4 a GF(2) table covers two entries, a GF(3) one one and a
    # GF(5) one none, so prefix and table share the last row.
    monkeypatch.setattr(families_module, "_TABLE_CAP", cap)
    check_scan_order(fam)
    check_exhaustive(fam)
    check_large(symmetrize(fam))
