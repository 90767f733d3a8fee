"""The scans in `families` against a slow, independent route.

The reference enumerates with `enumerate_subspaces` (or replays the seeded
draws on plain ints with `oracles.replay_draws`) and computes every image
sum as a sum of `apply_map` images with `Subspace.__add__`, the route
`check_trace` uses.
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
    span_of,
    subspace_cells,
)
from oracles import replay_draws

# GF(7) and GF(13) fill an 8-bit vector lane in 7 terms and in one, GF(17)
# has 16-bit lanes; GF(11) forms an image as one product at n = 2 (2 * 10**2
# < 256) and term by term at n = 3.  Each group is appended so that the
# seeded families before it stay put.
CASES = [(FieldSpec(2), n) for n in (2, 3, 4)] + [
    (FieldSpec(p), n) for p in (3, 5) for n in (2, 3)
] + [(FieldSpec(p), n) for p in (7, 13) for n in (2, 3)] + [(FieldSpec(17), 2)] + [
    (FieldSpec(11), n) for n in (2, 3)
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
        for rows in replay_draws(fam.n, d, fam.field.modulus, rng, samples):
            entries = tuple(x for r in rows for x in r)
            sub = Subspace(fam.field, fam.n, Matrix(fam.field, d, fam.n, entries))
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
def test_symmetrized_scans_match_slow_route(fam):
    # symmetrize adds the identity, so every dimension has the floor d and
    # thresholds at or below it are settled without a scan; the profile and
    # measure stop a dimension once its minimum reaches the one below
    sym = symmetrize(fam)
    check_scan_order(sym)
    check_exhaustive(sym)


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
    """The exhaustive scan itself.  Each item (d, rows, a, count) stands for
    the next `count` subspaces of the canonical order, of which `rows` is the
    first: every one of them has an image sum of at least a, and a is exact
    below need[d].  A block (count > 1) is only ever emitted at or above
    need[d]."""
    n = fam.n
    dims = range(1, n + 1)
    scan = list(slow_scan(fam, dims))
    for t in range(n + 1):
        got = families_module._image_sums(fam, {d: t for d in dims}, None, None,
                                          10**6, "test")
        pos = 0
        for d, rows, a, count in got:
            assert count >= 1
            members = scan[pos:pos + count]
            assert len(members) == count
            assert all(want_d == d for want_d, _, _ in members)
            assert families_module._subspace(fam, rows) == members[0][1]
            assert all(exact >= a for _, _, exact in members)
            exact = members[0][2]
            assert a == exact if exact < t else a >= t
            assert count == 1 or a >= t
            pos += count
        assert pos == len(scan)


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


@pytest.mark.parametrize("cap", (1, 4, 17))
@pytest.mark.parametrize("fam", [KERNEL_FAMILIES[0], KERNEL_FAMILIES[2], KERNEL_FAMILIES[3],
                                 [f for f in FAMILIES if f.field.modulus == 5][-1],
                                 symmetrized_dyadic(FieldSpec(17), 3)],
                         ids=lambda f: f"p{f.field.modulus}n{f.n}D{len(f.maps)}")
def test_split_last_rows_match_slow_route(fam, cap, monkeypatch):
    # Splits happen only in one-row cells.  With the table cap at 1
    # every free entry of such a row joins the prefix; at 4 a GF(2) table
    # covers two entries, a GF(3) one one and a GF(5) one none, so prefix and
    # table share the row; at 17 a table covers four, two, one and one
    # entries.  GF(17) has 16-bit lanes: at 17 its pivot-0 cell of n=3
    # splits into a one-column head and a one-column tail, so each tail
    # table is filled from a head value, nonzero off the pivot for 16 of 17.
    monkeypatch.setattr(families_module, "_TABLE_CAP", cap)
    check_scan_order(fam)
    check_exhaustive(fam)
    check_large(symmetrize(fam))



# The group test.  A prefix whose span S is one short of the need settles
# its whole last-row group at once when no row of the group keeps every
# image inside S, and the group is walked row by row when one does.  The
# table cap p**2 splits every one-row cell of n = 4 with three free entries
# into one head entry and a two-entry tail, so d = 1 groups are split cells.
# The kernel family's maps all send (1, ..., 1) to zero, so exactly one d = 1
# group holds a row below the need 1, and at d >= 2 every group one short of
# the need holds a row inside S; the sparse family's groups settle at d >= 2.
def kernel_family(field, n, rng):
    """Two random maps whose column 0 is minus the sum of the others."""
    p = field.modulus
    maps = []
    for _ in range(2):
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        for row in rows:
            row[0] = -sum(row[1:]) % p
        maps.append(Matrix(field, n, n, tuple(x for row in rows for x in row)))
    return MapFamily(field, n, tuple(maps))


def check_group_items(fam, scan, need, lower):
    """Drive `_image_sums` as `_first_violation` does (need fixed) or as
    `_minima` does (lower: the need follows the running minimum).  Each
    item stands for the next subspaces of the slow route's order: every one
    reaches a, a value below the need is exact and stands alone, and every
    member of a block reaches the need."""
    start = {}
    for i, (d, _, _) in enumerate(scan):
        start.setdefault(d, i)
    pos = {d: start[d] for d in need}
    for d, rows, a, count in families_module._image_sums(fam, need, None, None, 10**6, "test"):
        members = scan[pos[d]:pos[d] + count]
        assert len(members) == count and all(want_d == d for want_d, _, _ in members)
        assert families_module._subspace(fam, rows) == members[0][1]
        assert all(exact >= a for _, _, exact in members)
        if a < need[d]:
            assert count == 1 and a == members[0][2]
        else:
            assert all(exact >= need[d] for _, _, exact in members)
        if lower and (pos[d] == start[d] or a < need[d]):
            need[d] = a
        pos[d] += count
    assert all(pos[d] == start[d] + sum(row[0] == d for row in scan) for d in need)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_group_test_matches_slow_route(p, monkeypatch):
    field, n = FieldSpec(p), 4
    monkeypatch.setattr(families_module, "_TABLE_CAP", p ** 2)
    settled, real = [], families_module._group_reaches

    def group_reaches(*args):
        settled.append(real(*args))
        return settled[-1]

    monkeypatch.setattr(families_module, "_group_reaches", group_reaches)
    outcomes = set()
    for fam in (kernel_family(field, n, random.Random(p)),
                sparse_family(field, n, random.Random(40 + p))):
        dims = range(1, n + 1)
        scan = list(slow_scan(fam, dims))
        for d in dims:
            for t in range(n + 1):
                settled.clear()
                check_group_items(fam, scan, {d: t}, lower=False)
                outcomes |= {(d == 1, done) for done in settled}
                want = expected_result(first_violation(scan, {d: t}))
                assert verify_spreading(fam, SpreadingParams(d, t)) == want
        check_group_items(fam, scan, {d: n for d in dims}, lower=True)
        mins = minima(scan)
        assert spreading_profile(fam) == tuple((d, mins[d][0]) for d in dims)
        low = [row for row in scan if row[0] <= n // 2]
        assert measure_expansion(fam) == expected_report(minima(low), True)
    # d = 1 split cells and d >= 2, groups that settle and groups walked
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


# The proven floor.  Once a measuring scan's minimum reaches the floor of
# its dimension, every subspace not yet yielded reaches the need: the rest
# of the last-row group being walked is one block, the rest of each prefix
# row's values in the cell one block, and each later cell one block.
# {C, C^2}, for C the cyclic shift, has the invertible map C, so its floor is
# d, and each minimum is d (both maps fix the all-ones line).  The sparse
# family's floor is d minus the least nullity of its singular maps; the
# symmetrized families hold the identity, so theirs is the larger of d and
# f(d - 1).
def shift_pair(field, n):
    shift = Matrix(field, n, n, tuple(int(j == (i + 1) % n) for i in range(n) for j in range(n)))
    return MapFamily(field, n, (shift, shift @ shift))


def floor_cases(field, n):
    sparse = sparse_family(field, n, random.Random(77 + field.modulus))
    return [shift_pair(field, n), sparse, symmetrize(sparse), symmetrized_dyadic(field, n)]


def floor_blocks(fam, items):
    """Kinds of the items yielded once the need was at or below the floor:
    whole cells, the rest of a last-row group, or a range of a prefix row's
    values.  Each must be a block of one cell at the floor."""
    p, n = fam.field.modulus, fam.n
    kinds, pos = [], {}
    for d, _, a, count, need, floor in items:
        if need <= floor:
            assert a == floor
            offset = pos.get(d, 0)
            for _, free in subspace_cells(n, d):
                size = p ** sum(map(len, free))
                if offset < size:
                    break
                offset -= size
            group = p ** len(free[-1])
            assert offset + count <= size
            if offset == 0 and count == size:
                kinds.append("cell")
            elif offset % group:
                assert (offset + count) % group == 0
                kinds.append("group")
            else:
                assert count % group == 0
                kinds.append("rows")
        pos[d] = pos.get(d, 0) + count
    return kinds


@pytest.mark.parametrize("p, n", ((2, 5), (3, 4), (5, 3)))
def test_floor_blocks_match_slow_route(p, n, monkeypatch):
    # Each item is recorded with the need as it is yielded, before the caller
    # lowers it, and with the floor `_grassmann_scan` was given.
    items, real = [], families_module._grassmann_scan

    def recorded(fam, images, units, d, need, nominal, floor):
        scan = real(fam, images, units, d, need, nominal, floor)
        while True:
            try:
                item = next(scan)
            except StopIteration as stop:
                return stop.value
            items.append(item + (need[d], floor))
            yield item

    monkeypatch.setattr(families_module, "_grassmann_scan", recorded)
    kinds = set()
    for fam in floor_cases(FieldSpec(p), n):
        dims = range(1, n + 1)
        scan = list(slow_scan(fam, dims))
        for d in dims:
            for t in range(n + 1):
                items.clear()
                check_group_items(fam, scan, {d: t}, lower=False)
                assert set(floor_blocks(fam, items)) <= {"cell"}
        items.clear()
        check_group_items(fam, scan, {d: n for d in dims}, lower=True)
        kinds |= set(floor_blocks(fam, items))
        mins = minima(scan)
        assert spreading_profile(fam) == tuple((d, mins[d][0]) for d in dims)
    # a need at or below the floor from the start settles whole cells; one
    # lowered to it mid-cell settles the rest of a group and row ranges
    assert kinds == {"cell", "group", "rows"}
