"""Fixed-input timings of the public `subspace` and `gfp` functions.

Each probe repeats one call a fixed number of times on inputs of a fixed
shape over the workload's field (SHAPES), so the work is the same in
every run.
"""

from __future__ import annotations

import itertools
import random
import time

# workload -> (p, n, s, row-span vector width); odd-p probes use GF(3)
SHAPES = {
    "scan-gf2": (2, 8, 4, 8),
    "gfp-sampled": (3, 6, 3, 6),
    "rank-xcheck": (2, 4, 2, 16),
}
REPEATS = {"full": 20000, "tiny": 500}


def _per_call_ns(fn, items) -> float:
    t0 = time.perf_counter()
    for x in items:
        fn(x)
    return (time.perf_counter() - t0) / len(items) * 1e9


def run(ds, workload: str, scale: str) -> dict[str, float]:
    gfp, sub = ds.gfp, ds.subspace
    p, n, s, width = SHAPES[workload]
    k = REPEATS[scale]
    field = gfp.FieldSpec(p)
    out = {}

    t0 = time.perf_counter()
    bases = []
    it = itertools.chain.from_iterable(
        sub.enumerate_subspaces(n, s, field) for _ in itertools.count())
    for u in itertools.islice(it, k):
        bases.append(u.basis.entries)
    out["subspace.enum.ns_per_subspace"] = (time.perf_counter() - t0) / k * 1e9

    rng = random.Random(0)
    out["subspace.sample.ns_per_call"] = _per_call_ns(
        lambda _: sub.sample_with_rng(n, s, field, rng), range(k // 10))
    out["gfp.matrix.ns_per_build"] = _per_call_ns(
        lambda e: gfp.Matrix(field, s, n, e), bases)

    for tag, q in (("gf2", 2), ("odd", 3)):
        fq = gfp.FieldSpec(q)
        rng = random.Random(q)
        mats = [gfp.Matrix(fq, s, n, tuple(rng.randrange(q) for _ in range(s * n)))
                for _ in range(k // 10)]
        out[f"gfp.rref.ns_per_call.{tag}"] = _per_call_ns(gfp.rref, mats)
        vecs = [[rng.randrange(q) for _ in range(width)] for _ in range(k // 10)]
        if q == 2:
            vecs = [gfp.pack_bits(v) for v in vecs]
        groups = [vecs[i:i + s] for i in range(0, len(vecs) - s + 1, s)]

        def fill(group, q=q):
            span = gfp.make_row_span(q)
            for v in group:
                span.add(v)

        out[f"gfp.rowspan.ns_per_add.{tag}"] = _per_call_ns(fill, groups) / s
    return out
