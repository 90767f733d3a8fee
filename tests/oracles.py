"""Independent oracles used by the tests.

Everything here is deliberately written against plain ints and tuples with
no imports from the package under test, so a bug in the library cannot hide
itself by infecting the check.
"""

from itertools import combinations, product


def gaussian_binomial(n: int, s: int, p: int) -> int:
    """Number of s-dimensional subspaces of GF(p)^n.

    Uses the (p^n - p^i) / (p^s - p^i) product, a different expression from
    the library's (ordered bases over ordered bases of one subspace).
    """
    if s < 0 or s > n:
        return 0
    num = den = 1
    for i in range(s):
        num *= p**n - p**i
        den *= p**s - p**i
    return num // den


def _projective_vectors(p: int, k: int):
    """Nonzero vectors with first nonzero coordinate 1, lex order."""
    out = []
    for v in product(range(p), repeat=k):
        nz = next((x for x in v if x), None)
        if nz == 1:
            out.append(v)
    return out


def rank_one_pool(p: int, d1: int, d2: int, d3: int):
    """Every distinct nonzero rank-one d1 x d2 x d3 tensor, as entry tuples.

    f runs over all nonzero vectors while g and h are projectively
    normalized; scaling freedom then forces uniqueness, so the pool has
    (p^d1 - 1) * ((p^d2-1)/(p-1)) * ((p^d3-1)/(p-1)) distinct members.
    """
    fs = [v for v in product(range(p), repeat=d1) if any(v)]
    gs = _projective_vectors(p, d2)
    hs = _projective_vectors(p, d3)
    pool = []
    for f in fs:
        for g in gs:
            for h in hs:
                pool.append(tuple(
                    (fi * gj * hk) % p for fi in f for gj in g for hk in h
                ))
    return pool


def pair_sums(pool, p: int):
    """Sums of two distinct pool tensors, keyed by the summed entries."""
    sums = {}
    for i in range(len(pool)):
        a = pool[i]
        for j in range(i + 1, len(pool)):
            b = pool[j]
            key = tuple((x + y) % p for x, y in zip(a, b))
            sums.setdefault(key, (i, j))
    return sums


def direct_tensor_rank(entries, pool, pairs, p: int):
    """Minimal number of rank-one tensors summing to the given entries,
    for ranks up to 4, by direct meet-in-the-middle search.

    Sound at each level r because a hit that reuses an index would reduce
    to a representation with fewer terms, which the earlier levels already
    ruled out.  Returns None if the rank exceeds 4.
    """
    if not any(entries):
        return 0
    pool_index = set(pool)
    if entries in pool_index:
        return 1
    if entries in pairs:
        return 2
    for x in pool:
        if tuple((e - v) % p for e, v in zip(entries, x)) in pairs:
            return 3
    for s in pairs:
        if tuple((e - v) % p for e, v in zip(entries, s)) in pairs:
            return 4
    return None


def rref_mod_p(rows, p: int):
    """The nonzero rows of the reduced row echelon form of a list of residue
    vectors, by Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        top = [(x * inv) % p for x in rows[rank]]
        rows[rank] = top
        for i in range(len(rows)):
            f = rows[i][c]
            if i != rank and f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    return [tuple(r) for r in rows[:rank]]


def rank_mod_p(rows, p: int) -> int:
    """Rank of a list of residue vectors."""
    return len(rref_mod_p(rows, p))


def combine(coeffs, rows, p: int) -> tuple:
    """The sum of coeffs[k] * rows[k] mod p, entry by entry, for residue
    lists rows of one common width."""
    width = len(rows[0])
    return tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p
                 for j in range(width))


def image_sum_dim(maps, basis, n: int, p: int) -> int:
    """dim of the sum of M(U) over the maps M, for U spanned by `basis`.

    Maps are n x n entry tuples, row-major; every image M v is formed
    entry by entry and the stacked images are ranked with `rank_mod_p`.
    """
    images = [
        [sum(m[i * n + j] * v[j] for j in range(n)) % p for i in range(n)]
        for m in maps for v in basis
    ]
    return rank_mod_p(images, p)


def replay_draws(n: int, s: int, p: int, rng, count: int):
    """`count` uniform s-dimensional subspaces of GF(p)^n, as RREF row tuples.

    Replays the sampler's documented protocol on plain ints: each attempt
    draws s rows of n values rng.randrange(p), row by row, before any rank
    test, and the first attempt of rank s is reduced to its RREF.
    """
    out = []
    while len(out) < count:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(s)]
        basis = rref_mod_p(rows, p)
        if len(basis) == s:
            out.append(tuple(basis))
    return out


def lex_first_spanning_rank_ones(slices, p: int, d2: int, d3: int, r_max: int):
    """Least r, and the first r-subset of rank-one d2 x d3 matrices in pool
    order whose span contains every slice, or None if r would exceed r_max.

    The pool is g h^T over projectively normalized g and h (g slowest), as
    entry tuples; slices are entry tuples too.  Plain `combinations` in lex
    order, so the subset returned is the lexicographically first by index.
    At the least r every spanning r-subset is independent, since a dependent
    one would contain a smaller spanning subset.
    """
    r0 = rank_mod_p(slices, p)
    if r0 == 0:
        return (0, ())
    pool = [
        tuple((gj * hk) % p for gj in g for hk in h)
        for g in _projective_vectors(p, d2) for h in _projective_vectors(p, d3)
    ]
    for r in range(r0, r_max + 1):
        for combo in combinations(pool, r):
            if (rank_mod_p(list(combo) + list(slices), p) == r
                    and rank_mod_p(combo, p) == r):
                return (r, combo)
    return None
