"""Regenerate expected.json: the frozen plan and expected reports.

    python3 bench/freeze.py

Run this only at the commit whose answers define "correct" (the seed
commit of the benchmark).  It computes each instance's facts (true minima,
ranks, spreading profiles) with the program, cross-checks every one that is
small enough against the slow subspace-arithmetic route, runs every batch
for two seeds, requires the two to freeze identically (the seed only
disguises inputs), and writes the frozen reports.
"""

from __future__ import annotations

import json
import shutil
import sys

import gen
import oracle
import workloads
from run import HERE, OUT, import_program, run_batch

SLOW_LIMIT = 50000  # cross-check minima by the slow route up to this many subspaces


def family_obj(ds, p, maps):
    field = ds.gfp.FieldSpec(p)
    n = len(maps[0])
    return ds.families.MapFamily(
        field, n, tuple(ds.gfp.Matrix.from_rows(field, a, cols=n) for a in maps))


def slow_minima(ds, check, p, maps, dims):
    field = ds.gfp.FieldSpec(p)
    n = len(maps[0])
    out = {}
    for d in dims:
        out[d] = min(check.image_sum(p, maps, [list(u.basis.row(i)) for i in range(d)])[1]
                     for u in ds.subspace.enumerate_subspaces(n, d, field))
    return out


def plans(ds, check) -> dict:
    out = {"scan-gf2": {}, "gfp-sampled": {}, "rank-xcheck": {}}
    for scale in workloads.SCALES:
        large, scanned = workloads.SCAN_SYMMETRIZED[scale]
        tau = ds.families.measure_expansion(
            family_obj(ds, 2, gen.symmetrized(gen.dyadic_family(large)))).tau_star
        low = ds.families.measure_expansion(
            family_obj(ds, 2, gen.symmetrized(gen.dyadic_family(scanned)))).per_dimension
        out["scan-gf2"][scale] = {"large_tau": str(tau), "verify_t": dict(low)[2]}

        gfp = out["gfp-sampled"][scale] = {}
        for verb, name, p, n, _, _ in workloads.GFP_EXHAUSTIVE[scale]:
            maps = gen.random_family(p, n, 3, name, first_invertible=False)
            rep = ds.families.measure_expansion(family_obj(ds, p, maps))
            minima = dict(rep.per_dimension)
            dims = [d for d in minima if gen.gaussian_binomial(n, d, p) <= SLOW_LIMIT]
            slow = slow_minima(ds, check, p, maps, dims)
            assert all(slow[d] == minima[d] for d in dims), (name, slow, minima)
            gfp[name] = {"minima": {str(d): v for d, v in minima.items()}}

        rank = out["rank-xcheck"][scale] = {}
        for name, base, p, d, n, r, _ in workloads.RANK_INSTANCES[scale]:
            maps = gen.terms_slices(gen.low_rank_terms(p, d, n, r, base), p, d, n)
            fam = family_obj(ds, p, maps)
            profile = ds.families.spreading_profile(fam)
            slow = slow_minima(ds, check, p, maps, range(1, n + 1))
            assert all(slow[s] == t for s, t in profile), (name, slow, profile)
            found = ds.tensor.tensor_rank(ds.certify.family_tensor(fam), r)
            rank[name] = {"rank": found[0], "profile": [list(x) for x in profile]}
    return out


def freeze_outputs(batch, outputs) -> dict:
    frozen = {}
    for v in batch.verdicts:
        o = outputs[v.vid]
        assert o.error is None, (v.vid, o.error)
        if v.argv is not None:
            frozen[v.vid] = oracle.freeze_cli(o.rc, o.stdout)
        elif v.lib[0] == "large":
            frozen[v.vid] = oracle.freeze_large(o.result)
        else:
            frozen[v.vid] = {"result": o.result}
    return frozen


def main() -> int:
    ds = import_program()
    check = oracle.Oracle(ds, {})
    expected = {"plans": plans(ds, check), "reports": {}}
    work = OUT / "freeze"
    for workload in ("scan-gf2", "gfp-sampled", "rank-xcheck"):
        expected["reports"][workload] = {}
        for scale in workloads.SCALES:
            plan = expected["plans"][workload][scale]
            frozen = []
            for seed in (0, 1):
                batch = workloads.build_batch(workload, scale, seed, 0, work / f"s{seed}", plan)
                _, outputs = run_batch(ds, batch)
                frozen.append(freeze_outputs(batch, outputs))
                check.frozen = frozen[-1]
                errs = [e for v in batch.verdicts
                        for e in check.check(v, outputs[v.vid], batch, plan)]
                assert not errs, errs
            assert frozen[0] == frozen[1], f"{workload}/{scale}: reports depend on the seed"
            expected["reports"][workload][scale] = frozen[0]
            print(f"froze {workload}/{scale}: {len(frozen[0])} verdicts", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
