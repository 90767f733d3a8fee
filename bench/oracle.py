"""Correctness checks behind `failed` and `correct`.

Each verdict is compared with the values frozen from the seed commit in
`expected.json` (exit code and the keys listed in FROZEN_KEYS; other report
keys are ignored, so reports may gain lines).  Outside the timed region the
oracle also re-derives every witness, counterexample and violating subspace
by the slow `apply_map` / `Subspace.__add__` route, evaluates every
decomposition the program wrote with `eval_decomposition`, and checks each
`above_max` proof against the spreading-profile bound.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from pathlib import Path

import gen

FROZEN_KEYS = (
    "verdict", "tau_star", "bound", "certified_bound", "rank", "achieved",
    "witness_dim", "witness", "counterexample_dim", "counterexample",
    "kernel_dim", "kernel", "image_span_dim", "image_span", "violating_dim", "violating",
)


def parse_report(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key, []).append(value)
    return out


def freeze_cli(rc: int, stdout: str) -> dict:
    """The frozen form of one CLI verdict."""
    rep = parse_report(stdout)
    keys = {k: v for k, v in rep.items() if k in FROZEN_KEYS or k.endswith("_min_image_sum")}
    return {"exit": rc, "keys": keys}


def freeze_large(res) -> dict:
    records = Counter((r.dim, r.image_sum_dim, r.meets_sharper) for r in res.records)
    return {"verified": res.verified, "records": sorted([*k, c] for k, c in records.items())}


class Oracle:
    def __init__(self, ds, frozen: dict):
        self.ds = ds
        self.frozen = frozen  # verdict id -> frozen form

    # -- per verdict -----------------------------------------------------

    def check(self, verdict, outcome, batch, plan: dict) -> list[str]:
        if outcome.error is not None:
            return [f"{verdict.vid}: {outcome.error}"]
        want = self.frozen.get(verdict.vid)
        if want is None:
            return [f"{verdict.vid}: no frozen expectation"]
        if verdict.argv is not None:
            errs = self._check_cli(verdict, outcome, want)
            if not errs:
                try:
                    errs = self._rederive(verdict, outcome.stdout, batch, plan)
                except (KeyError, IndexError, ValueError, OSError) as e:
                    errs = [f"{verdict.vid}: report or output file unusable: {e!r}"]
            return errs
        kind = verdict.lib[0]
        if kind == "large":
            got = freeze_large(outcome.result)
            return [] if got == want else [f"{verdict.vid}: large-expansion result differs"]
        if kind == "check_trace":
            return [] if outcome.result is True and want.get("result") is True else [
                f"{verdict.vid}: check_trace returned {outcome.result!r}"]
        return [f"{verdict.vid}: unknown library verdict"]

    def _check_cli(self, verdict, outcome, want) -> list[str]:
        errs = []
        if outcome.rc != want["exit"]:
            errs.append(f"{verdict.vid}: exit {outcome.rc}, expected {want['exit']} "
                        f"({outcome.stderr.strip()[:200]})")
        rep = parse_report(outcome.stdout)
        for key, values in want["keys"].items():
            if rep.get(key) != values:
                errs.append(f"{verdict.vid}: {key} = {rep.get(key)}, expected {values}")
        return errs

    # -- slow re-derivation ----------------------------------------------

    def image_sum(self, p: int, maps, rows) -> tuple[int, int]:
        """(dim V, dim of the sum of the images of V) by subspace arithmetic."""
        gfp, sub = self.ds.gfp, self.ds.subspace
        field = gfp.FieldSpec(p)
        n = len(maps[0])
        v = sub.span_of(gfp.Matrix.from_rows(field, rows, cols=n))
        total = sub.Subspace.zero(field, n)
        for a in maps:
            total = total + sub.apply_map(gfp.Matrix.from_rows(field, a, cols=n), v)
        return v.dim, total.dim

    def _rederive(self, verdict, stdout, batch, plan) -> list[str]:
        rep = parse_report(stdout)
        p, maps = batch.families[verdict.family]
        errs = []
        for key in ("witness", "counterexample", "violating"):
            if key not in rep:
                continue
            rows = [[int(x) for x in row.split()] for row in rep[key]]
            dim, reached = self.image_sum(p, maps, rows)
            if dim != int(rep[f"{key}_dim"][0]):
                errs.append(f"{verdict.vid}: {key} rows have dimension {dim}")
            if key == "witness":
                low = int(rep[f"dim_{dim}_min_image_sum"][0])
                tau = min(Fraction(int(v[0]), int(k.split("_")[1]))
                          for k, v in rep.items() if k.endswith("_min_image_sum")) - 1
                if reached != low or Fraction(rep["tau_star"][0]) != Fraction(low, dim) - 1 \
                        or Fraction(rep["tau_star"][0]) != tau:
                    errs.append(f"{verdict.vid}: witness reaches {reached}, report says {low}")
            else:
                t = int(verdict.argv[verdict.argv.index("--t") + 1])
                s = int(verdict.argv[verdict.argv.index("--s") + 1])
                if reached != int(rep["achieved"][0]) or reached >= t or dim < s:
                    errs.append(f"{verdict.vid}: {key} reaches {reached} (t={t}, dim {dim})")
        if verdict.argv[0] == "tensor-rank":
            errs += self._check_rank(verdict, rep, batch, plan)
        if verdict.argv[0] == "build-tensor":
            text = Path(verdict.out_file).read_text(encoding="ascii")
            if text != batch.texts[verdict.out_file]:
                errs.append(f"{verdict.vid}: written tensor differs from the input family")
        if verdict.argv[0] == "certify" and "bound" in rep:
            if int(rep["bound"][0]) > plan[verdict.family]["rank"]:
                errs.append(f"{verdict.vid}: certified bound exceeds the rank")
        return errs

    def _check_rank(self, verdict, rep, batch, plan) -> list[str]:
        info = plan[verdict.family]
        p, maps = batch.families[verdict.family]
        n = len(maps[0])
        errs = []
        if rep["verdict"] == ["determined"]:
            fmt, tensor = self.ds.formats, self.ds.tensor
            dec = fmt.parse_decomposition(Path(verdict.out_file).read_text(encoding="ascii"))
            want = fmt.parse_tensor(gen.tensor_text(p, maps))
            if len(dec.terms) != info["rank"] or tensor.eval_decomposition(dec) != want:
                errs.append(f"{verdict.vid}: decomposition does not evaluate to the tensor")
        else:
            bound = max((n + t - s for s, t in info["profile"] if t >= 1), default=0)
            if int(rep["certified_above"][0]) + 1 != info["rank"] or bound > info["rank"]:
                errs.append(f"{verdict.vid}: above_max proof inconsistent with bound {bound}")
        return errs
