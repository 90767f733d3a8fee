"""Input generation for the benchmark, independent of the program under test.

Every instance is a fixed base family (built from constants, so its cost is
the same in every run) that the run seed disguises without changing any
answer the program must give:

* GF(2) structured families (shifts, dyadic shifts) are conjugated by a
  seeded permutation matrix P (A -> P A P^T).  P is orthogonal, so
  symmetrization and word products commute with it, and every pipeline
  verdict, tau*, word count and certified bound is unchanged.  Families
  given already symmetrized have their maps shuffled instead, which keeps
  even the first witness in canonical order.
* Random families and tensors are re-mixed along the map index by a seeded
  invertible D x D matrix H (A'_i = sum_l H[i][l] A_l).  The span of the
  maps, hence the image sum of every subspace, the slice span the rank
  search walks and every report the program prints, is unchanged.

So the program receives different `.maps`, `.t3` and `.dec` files for every
seed (and for every batch of a run), while the expected reports frozen in
`expected.json` hold for all of them.
"""

from __future__ import annotations

import random

Mat = list[list[int]]


def rng_for(*parts: object) -> random.Random:
    return random.Random(":".join(str(x) for x in parts))


def identity(n: int) -> Mat:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def rank_mod(rows: Mat, p: int) -> int:
    work = [list(r) for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] % p), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        work[rank] = [(x * inv) % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def random_matrix(rng: random.Random, p: int, rows: int, cols: int) -> Mat:
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def random_invertible(rng: random.Random, p: int, n: int) -> Mat:
    while True:
        m = random_matrix(rng, p, n, n)
        if rank_mod(m, p) == n:
            return m


def matching_map(n: int, pairs: list[tuple[int, int]]) -> Mat:
    """0/1 map sending e_i to e_j for each 1-based pair (i, j)."""
    a = [[0] * n for _ in range(n)]
    for i, j in pairs:
        a[j - 1][i - 1] = 1
    return a


def shift_family(n: int) -> list[Mat]:
    """Identity and the unit shifts i -> i+1, i -> i-1 (as `build-maps --kind shifts`)."""
    return [
        identity(n),
        matching_map(n, [(i, i + 1) for i in range(1, n)]),
        matching_map(n, [(i, i - 1) for i in range(2, n + 1)]),
    ]


def dyadic_family(n: int) -> list[Mat]:
    """Identity and the shifts i -> i + 2**k that fit (as `build-maps --kind dyadic`)."""
    out = [identity(n)]
    k = 1
    while k < n:
        out.append(matching_map(n, [(i, i + k) for i in range(1, n - k + 1)]))
        k *= 2
    return out


def symmetrized(maps: list[Mat]) -> list[Mat]:
    """Maps, then new transposes, then the identity if missing (as `symmetrize`)."""
    out: list[Mat] = []
    for m in maps + [transpose(m) for m in maps] + [identity(len(maps[0]))]:
        if m not in out:
            out.append(m)
    return out


def permute(maps: list[Mat], rng: random.Random) -> list[Mat]:
    """Conjugate every map by the same random permutation matrix."""
    n = len(maps[0])
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for a in maps:
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                b[perm[i]][perm[j]] = a[i][j]
        out.append(b)
    return out


def mix(maps: list[Mat], h: Mat, p: int) -> list[Mat]:
    """A'_i = sum_l h[i][l] A_l over GF(p)."""
    n = len(maps[0])
    return [
        [[sum(hil * a[j][k] for hil, a in zip(row, maps)) % p for k in range(n)]
         for j in range(n)]
        for row in h
    ]


def random_family(p: int, n: int, count: int, base: str, *, first_invertible: bool) -> list[Mat]:
    rng = rng_for("family", base)
    maps = []
    while len(maps) < count:
        a = random_matrix(rng, p, n, n)
        if first_invertible and not maps and rank_mod(a, p) < n:
            continue
        maps.append(a)
    return maps


def low_rank_terms(p: int, d: int, n: int, r: int, base: str):
    """r random rank-one terms (f, g, h) of a d x n x n tensor."""
    rng = rng_for("terms", base)
    return [
        ([rng.randrange(p) for _ in range(d)],
         [rng.randrange(p) for _ in range(n)],
         [rng.randrange(p) for _ in range(n)])
        for _ in range(r)
    ]


def terms_slices(terms, p: int, d: int, n: int) -> list[Mat]:
    out = [[[0] * n for _ in range(n)] for _ in range(d)]
    for f, g, h in terms:
        for i in range(d):
            if f[i]:
                for j in range(n):
                    c = f[i] * g[j]
                    if c:
                        row = out[i][j]
                        for k in range(n):
                            row[k] = (row[k] + c * h[k]) % p
    return out


def mix_terms(terms, h: Mat, p: int):
    """Terms of the tensor whose slices are mixed by h: f -> h f."""
    return [
        ([sum(hil * fl for hil, fl in zip(row, f)) % p for row in h], g, hh)
        for f, g, hh in terms
    ]


# ----------------------------------------------------------------------
# file formats (written here, parsed by the program)
# ----------------------------------------------------------------------


def maps_text(p: int, maps: list[Mat]) -> str:
    n = len(maps[0])
    out = ["mapfamily 1", f"field {p}", f"n {n}", f"count {len(maps)}"]
    out += [" ".join(map(str, row)) for a in maps for row in a]
    return "\n".join(out) + "\n"


def tensor_text(p: int, maps: list[Mat]) -> str:
    n = len(maps[0])
    out = ["tensor3 1", f"field {p}", f"dims {len(maps)} {n} {n}"]
    out += [" ".join(map(str, row)) for a in maps for row in a]
    return "\n".join(out) + "\n"


def dec_text(p: int, d: int, n: int, terms) -> str:
    out = ["decomp 1", f"field {p}", f"dims {d} {n} {n}", f"terms {len(terms)}"]
    for f, g, h in terms:
        out += [" ".join(map(str, f)), " ".join(map(str, g)), " ".join(map(str, h))]
    return "\n".join(out) + "\n"


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den
