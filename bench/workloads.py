"""The three workloads: which verdicts a batch issues, on which inputs, and why.

A workload is a fixed batch of verdicts that one client issues in a closed
loop, one at a time.  `build_batch` writes the batch's input files and
returns the verdicts; the facts a batch needs up front (true minima, ranks,
spreading profiles) come from the frozen plan in `expected.json`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import gen

WORKLOADS = ("scan-gf2", "gfp-sampled", "rank-xcheck")
SCALES = ("full", "tiny")

# Batches are kept to 2-3 s so that a 32-second run repeats each verdict
# eight or more times, and verdicts short enough that the host's speed
# timed on either side of one stands for its speed during it (see run.py).

# scan-gf2: (name, kind, n, why).
SCAN_FAMILIES = {
    "full": [
        ("shifts7", "shift", 7, "3 maps, word length 10: measure scans 14,605 subspaces, "
                                "certify 11,811 dim-4 subspaces on 122 words"),
        ("dyadic7", "dyadic", 7, "7 symmetrized maps, word length 4: certify on 128 words"),
    ],
    "tiny": [
        ("shifts4", "shift", 4, "smoke size"),
        ("dyadic4", "dyadic", 4, "smoke size"),
    ],
}
# Symmetrized dyadic families, given as such: `measure` and
# `verify_large_expansion` (library; keeps one record per subspace above n/2,
# so it sets peak memory) on the first, `verify-spreading` at s=2 with t =
# the true minimum on the second, an n=8 scan over 10,795 subspaces.  The
# large-expansion check runs with check_expander=False at tau = tau*, which
# the pipeline on the same family measures.
SCAN_SYMMETRIZED = {"full": (7, 8), "tiny": (4, 5)}

# (verb, name, p, n, s, why); every family holds three random maps.
GFP_EXHAUSTIVE = {
    "full": [
        ("measure", "F3_5", 3, 5, None, "odd p, dense rref path: GF(3) n=5, 1,331 subspaces"),
        ("verify", "F3_6", 3, 6, 2, "GF(3) n=6 at s=2: 11,011 subspaces; t = the true "
                                    "minimum, so the scan runs to the end"),
        ("measure", "F5_4", 5, 4, None, "GF(5) n=4, 962 subspaces"),
        ("verify", "F5_5", 5, 5, 2, "GF(5) n=5 at s=2: 20,306 subspaces; t = the true minimum"),
    ],
    "tiny": [
        ("measure", "F3_4", 3, 4, None, "smoke size"),
        ("verify", "F3_4", 3, 4, 2, "smoke size"),
        ("measure", "F5_3", 5, 3, None, "smoke size"),
        ("verify", "F5_3", 5, 3, 1, "smoke size"),
    ],
}
# (name, p, n, samples for measure (per dimension), samples for verify-spreading, s, why)
GFP_SAMPLED = {
    "full": [
        ("S2_10", 2, 10, 200, 800, 5, "GF(2) sampler: sample_with_rng -> span_of -> rref"),
        ("S3_10", 3, 10, 100, 400, 5, "odd-p sampler, dense rref per draw"),
    ],
    "tiny": [("S2_6", 2, 6, 10, 10, 3, "smoke size"), ("S3_6", 3, 6, 10, 10, 3, "smoke size")],
}

# (name, base, p, maps D, n, terms r, why): the tensor is the sum of r random
# rank-one terms drawn from `base`; the facts quoted are frozen in expected.json.
RANK_INSTANCES = {
    "full": [
        ("A", "2.3.3.4.5", 2, 3, 3, 4, "GF(2) 3x3x3 of rank 3, certificate tight at every s; "
                                       "also the step_cap self-check tensor"),
        ("B", "2.4.3.5.1", 2, 4, 3, 5, "four maps, rank 4 against a certified 3"),
        ("C", "2.5.3.5.0", 2, 5, 3, 5, "five maps, rank 5 against a certified 3"),
        ("D", "2.3.4.5.5", 2, 3, 4, 5, "GF(2) 3x4x4 of rank 4 over a 225-class pool, found "
                                       "late in the last level; certificate tight at s=1"),
        ("E", "2.3.4.5.1", 2, 3, 4, 5, "GF(2) 3x4x4 of rank 5 found late in the last level"),
        ("F", "2.3.4.3.2", 2, 3, 4, 3, "rank 3 = every certificate: refutes at each s with 3 terms"),
        ("G", "3.3.3.5.1", 3, 3, 3, 5, "GF(3) 3x3x3 of rank 5 over a 169-class odd-p pool"),
        ("H", "3.3.3.3.5", 3, 3, 3, 3, "GF(3) rank 3; refutes (1, 2) and (2, 3)"),
        ("I", "3.3.3.2.0", 3, 3, 3, 2, "GF(3) rank 2; refutes at every s"),
    ],
    "tiny": [
        ("A", "2.3.3.4.5", 2, 3, 3, 4, "smoke size; step_cap self-check tensor"),
        ("I", "3.3.3.2.0", 3, 3, 3, 2, "smoke size; refutes"),
    ],
}

PROGRAM_SEEDS = {"measure": 1011, "verify": 2022}


@dataclass
class Verdict:
    """One request of the closed loop: a CLI argv or a library call."""

    vid: str
    family: str
    why: str
    argv: list[str] | None = None
    lib: tuple | None = None
    sampled: bool = False
    out_file: str | None = None  # a file the verdict must write


@dataclass
class Batch:
    verdicts: list[Verdict]
    families: dict[str, tuple[int, list]] = field(default_factory=dict)  # name -> (p, maps)
    texts: dict[str, str] = field(default_factory=dict)  # path -> text the program must write


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="ascii")
    return str(path)


def build_batch(workload: str, scale: str, seed: int, batch: int, work: Path,
                plan: dict, *, threads: int = 1) -> Batch:
    """Write the inputs of one batch into `work` and return its verdicts.

    `threads` is passed to the scan verdicts; the timed scan-gf2 batches use
    1, and a `--threads 2` batch checks that reports do not depend on it.
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload == "scan-gf2":
        return _scan_batch(scale, seed, batch, work, plan, threads)
    if workload == "gfp-sampled":
        return _gfp_batch(scale, seed, batch, work, plan)
    if workload == "rank-xcheck":
        return _rank_batch(scale, seed, batch, work, plan)
    raise ValueError(f"unknown workload {workload!r}")


def _scan_batch(scale, seed, batch, work, plan, threads) -> Batch:
    out = Batch([])
    make = {"shift": gen.shift_family, "dyadic": gen.dyadic_family}

    for name, kind, n, why in SCAN_FAMILIES[scale]:
        maps = gen.permute(make[kind](n), gen.rng_for("perm", seed, batch, name))
        out.families[name] = (2, maps)
        path = _write(work / f"{name}.maps", gen.maps_text(2, maps))
        out.verdicts.append(Verdict(
            f"pipeline:{name}", name, why,
            argv=["pipeline", path, "--epsilon", "1/2", "--threads", str(threads)],
        ))
    # Symmetrized families are disguised by shuffling the order of their
    # maps, which leaves every subspace's image sum, and so the first
    # witness `measure` prints, unchanged.
    large, scanned = SCAN_SYMMETRIZED[scale]
    paths = {}
    for n in (large, scanned):
        name = f"sym-dyadic{n}"
        maps = gen.symmetrized(gen.dyadic_family(n))
        gen.rng_for("order", seed, batch, name).shuffle(maps)
        out.families[name] = (2, maps)
        paths[n] = _write(work / f"{name}.maps", gen.maps_text(2, maps))
    name, path = f"sym-dyadic{large}", paths[large]
    out.verdicts.append(Verdict(
        f"measure:{name}", name, "prints the first witness in canonical order, which "
        "the --threads 2 check batch must reproduce",
        argv=["measure", path, "--threads", str(threads)],
    ))
    out.verdicts.append(Verdict(
        f"large:{name}", name,
        "verify_large_expansion at tau = tau*: scans every dim above n/2 and keeps a "
        "record per subspace, so it sets peak memory",
        lib=("large", path, plan["large_tau"], threads),
    ))
    name = f"sym-dyadic{scanned}"
    out.verdicts.append(Verdict(
        f"verify:{name}", name, "an n=8 scan: dim 2, t = the true minimum",
        argv=["verify-spreading", paths[scanned], "--s", "2",
              "--t", str(plan["verify_t"]), "--threads", str(threads)],
    ))
    return out


def _gfp_batch(scale, seed, batch, work, plan) -> Batch:
    out = Batch([])
    for verb, name, p, n, s, why in GFP_EXHAUSTIVE[scale]:
        maps = _mixed(gen.random_family(p, n, 3, name, first_invertible=False), p, seed, batch, name)
        path = _write(work / f"{name}.maps", gen.maps_text(p, maps))
        out.families[name] = (p, maps)
        if verb == "measure":
            out.verdicts.append(Verdict(f"measure:{name}", name, why, argv=["measure", path]))
        else:
            t = plan[name]["minima"][str(s)]
            out.verdicts.append(Verdict(
                f"verify:{name}", name, why,
                argv=["verify-spreading", path, "--s", str(s), "--t", str(t)],
            ))
    for name, p, n, m_samples, v_samples, s, why in GFP_SAMPLED[scale]:
        # A_1 is invertible, so every s-dim subspace reaches s: (s, s) holds
        # and the sampled verify draws all its samples.
        maps = _mixed(gen.random_family(p, n, 3, name, first_invertible=True), p, seed, batch, name)
        path = _write(work / f"{name}.maps", gen.maps_text(p, maps))
        out.families[name] = (p, maps)
        out.verdicts.append(Verdict(
            f"measure-sampled:{name}", name, why, sampled=True,
            argv=["measure", path, "--samples", str(m_samples),
                  "--seed", str(PROGRAM_SEEDS["measure"])],
        ))
        out.verdicts.append(Verdict(
            f"verify-sampled:{name}", name, why, sampled=True,
            argv=["verify-spreading", path, "--s", str(s), "--t", str(s),
                  "--samples", str(v_samples), "--seed", str(PROGRAM_SEEDS["verify"])],
        ))
    return out


def _rank_batch(scale, seed, batch, work, plan) -> Batch:
    out = Batch([])
    for name, base, p, d, n, r, why in RANK_INSTANCES[scale]:
        terms = gen.low_rank_terms(p, d, n, r, base)
        h = gen.random_invertible(gen.rng_for("mix", seed, batch, name), p, d)
        maps = gen.mix(gen.terms_slices(terms, p, d, n), h, p)
        terms = gen.mix_terms(terms, h, p)
        info = plan[name]
        rank, profile = info["rank"], info["profile"]
        maps_path = _write(work / f"{name}.maps", gen.maps_text(p, maps))
        t3_path = _write(work / f"{name}.t3", gen.tensor_text(p, maps))
        dec_path = _write(work / f"{name}.dec", gen.dec_text(p, d, n, terms))
        built = str(work / f"{name}.built.t3")
        found = str(work / f"{name}.found.dec")
        out.families[name] = (p, maps)
        out.texts[built] = gen.tensor_text(p, maps)
        v = out.verdicts
        v.append(Verdict(f"build-tensor:{name}", name, why,
                         argv=["build-tensor", maps_path, "--out", built], out_file=built))
        v.append(Verdict(f"rank-determined:{name}", name, why,
                         argv=["tensor-rank", t3_path, "--r-max", str(rank), "--dec-out", found],
                         out_file=found))
        v.append(Verdict(f"rank-above:{name}", name, f"{why}; exhaustive proof that rank > r-1",
                         argv=["tensor-rank", t3_path, "--r-max", str(rank - 1)]))
        for s, t in profile:
            if t >= 1:
                v.append(Verdict(f"certify:{name}:{s}", name, why,
                                 argv=["certify", maps_path, "--s", str(s), "--t", str(t)]))
        for s, t in profile:
            if t + 1 <= n and r < n + t + 1 - s:
                vid = f"refute:{name}:{s}"
                v.append(Verdict(vid, name, why,
                                 argv=["refute", maps_path, "--s", str(s), "--t", str(t + 1),
                                       "--dec", dec_path]))
                v.append(Verdict(f"check-trace:{name}:{s}", name, why,
                                 lib=("check_trace", maps_path, s, t + 1, vid)))
    return out


def _mixed(maps, p, seed, batch, name):
    h = gen.random_invertible(gen.rng_for("mix", seed, batch, name), p, len(maps))
    return gen.mix(maps, h, p)
