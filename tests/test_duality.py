"""Transpose duality of spreading profiles, a metamorphic check.

A_i V <= W for every map exactly when A_i^T W^perp <= V^perp, so a family A
is (s, t)-spreading iff its transpose family is (n-t+1, n-s+1)-spreading:
f_A(s) >= t  <=>  f_{A^T}(n-t+1) >= n-s+1, where f is the spreading profile.
The check reads only profile values, never the enumeration order or the
slow route, so it also catches faults that the differential suite would
share with the scan kernel.
"""

import random

import pytest

from dimspread.families import MapFamily, spreading_profile, symmetrize, words
from dimspread.gfp import FieldSpec, Matrix

CASES = [(2, n) for n in (2, 3, 4, 5)] + [(3, n) for n in (2, 3, 4, 5)] + [
    (5, n) for n in (2, 3, 4)] + [(7, n) for n in (2, 3)]


def random_family(field, n, rng):
    """One to four maps whose entries are nonzero with a per-family density,
    so that profiles range from stuck to fully spreading."""
    p = field.modulus
    density = rng.choice((0.2, 0.35, 0.5, 0.8))
    maps = []
    for _ in range(rng.randint(1, 4)):
        entries = tuple(rng.randrange(1, p) if rng.random() < density else 0
                        for _ in range(n * n))
        maps.append(Matrix(field, n, n, entries))
    return MapFamily(field, n, tuple(maps))


def families():
    rng = random.Random(20261018)
    for p, n in CASES:
        for _ in range(3):
            yield random_family(FieldSpec(p), n, rng)


FAMILIES = list(families())
over_families = pytest.mark.parametrize(
    "fam", FAMILIES, ids=lambda f: f"p{f.field.modulus}n{f.n}D{len(f.maps)}")


def transposed(fam):
    return MapFamily(fam.field, fam.n, tuple(m.transpose() for m in fam.maps))


def values(profile):
    return {s: t for s, t in profile}


def check_dual(f, g, n):
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            assert (f[s] >= t) == (g[n - t + 1] >= n - s + 1), (s, t)


@over_families
def test_profile_of_transpose_is_dual(fam):
    check_dual(values(spreading_profile(fam)), values(spreading_profile(transposed(fam))),
               fam.n)


@over_families
def test_symmetrized_profile_is_self_dual(fam):
    f = values(spreading_profile(symmetrize(fam)))
    check_dual(f, f, fam.n)


@pytest.mark.parametrize("fam", [f for f in FAMILIES if f.n <= 4 and f.field.modulus <= 3],
                         ids=lambda f: f"p{f.field.modulus}n{f.n}D{len(f.maps)}")
def test_word_family_profile_is_self_dual(fam):
    # words of a transpose-closed family are closed under transpose too
    f = values(spreading_profile(words(symmetrize(fam), 2)))
    check_dual(f, f, fam.n)


def test_cases_are_not_all_trivial():
    # the duality must be tested on profiles that are neither all-stuck nor
    # all-full, or it holds vacuously
    mixed = 0
    for fam in FAMILIES:
        f = values(spreading_profile(fam))
        if any(f[s] < fam.n for s in f) and any(f[s] > 0 for s in f):
            mixed += 1
    assert mixed >= len(FAMILIES) // 2
