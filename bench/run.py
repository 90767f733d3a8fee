"""dimspread benchmark: time to a checked verdict, and where that time goes.

Usage (from the repository root):

    python3 bench/run.py --workload scan-gf2 --seed 1 --seconds 32 --trace 0

One in-process client issues the workload's fixed batch of verdicts in a
closed loop, one at a time, calling `dimspread.cli.main(argv)` with stdout
captured, or a public library function.  Whole batches run for about
`--seconds` (and at least MIN_BATCHES times).  The host's speed swings
in phases of a fraction of a second to minutes, and a verdict's time moves
with it, so end-to-end times are taken relative to the host: one pass of
a fixed pure-Python loop (`host_loop`, nothing of the program) is timed
right before and right after every verdict and every set-up, and each
repetition counts as REF_LOOP_S * its time / the mean of those two loop
times.  A verdict's time is the mean of that over its repetitions (the
host's speed is roughly bimodal, and a median jumps between the modes),
and `setup_s` the median over the set-ups.  The program is
imported from `src/` next to this directory and receives only the `.maps`,
`.t3` and `.dec` files generated from `--seed` (see gen.py and workloads.py).

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
alternates untraced and traced batches, runs one more traced batch that
also counts row-span operations, then fixed-input probes, and reports the
per-layer metrics.  Every verdict is checked against expected.json and
re-derived by slow routes (oracle.py) between batches.  The last stdout
line is the JSON result; the full record, with the environment and (when
traced) the spans, is written to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gen
import oracle
import probes
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 11
MIN_BATCHES = 3
TRACE_ROUNDS = 3
REF_LOOP_S = 0.01  # host_loop seconds on the reference host; times are scaled to it
HOST_LOOP_REPEATS = 5
MODULES = ("gfp", "subspace", "families", "tensor", "certify", "formats", "cli")

E2E_UNITS = {"wall_s": "s", "verdict_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_program() -> types.SimpleNamespace:
    """Fresh import of dimspread from the checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "dimspread" or m.startswith("dimspread.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    ds = types.SimpleNamespace(
        **{m: importlib.import_module(f"dimspread.{m}") for m in MODULES})
    ds.errors = importlib.import_module("dimspread.errors")
    if not Path(ds.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"dimspread imported from {ds.cli.__file__}, not {src}")
    return ds


@dataclass
class Outcome:
    seconds: float
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    result: object = None
    error: str | None = None
    digest: str = ""


def _lib_large(ds, outputs, path, tau, threads):
    fam = ds.formats.parse_map_family(Path(path).read_text(encoding="ascii"))
    return ds.families.verify_large_expansion(fam, Fraction(tau), threads=threads,
                                              check_expander=False)


def _lib_check_trace(ds, outputs, path, s, t, source):
    """Rebuild the trace printed by `refute` and re-check it with check_trace."""
    fam = ds.formats.parse_map_family(Path(path).read_text(encoding="ascii"))
    rep = oracle.parse_report(outputs[source].stdout)

    def subspace(key):
        rows = [[int(x) for x in row.split()] for row in rep.get(key, [])]
        if not rows:
            return ds.subspace.Subspace.zero(fam.field, fam.n)
        return ds.subspace.span_of(ds.gfp.Matrix.from_rows(fam.field, rows, cols=fam.n))

    idx = rep["s_indices"][0]
    trace = ds.certify.RefutationTrace(
        () if idx == "none" else tuple(int(x) for x in idx.split()),
        subspace("kernel"), subspace("image_span"), subspace("violating"),
        int(rep["achieved"][0]), int(rep["terms"][0]),
    )
    return ds.certify.check_trace(fam, ds.families.SpreadingParams(s, t), trace)


LIBRARY = {"large": _lib_large, "check_trace": _lib_check_trace}


def run_verdict(ds, verdict, outputs, tracer=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open(f"cli.{verdict.argv[0]}" if verdict.argv else
                       f"lib.{verdict.lib[0]}") if tracer else None
    t0 = time.perf_counter()
    rc = result = error = None
    try:
        if verdict.argv is not None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = ds.cli.main(verdict.argv)
        else:
            result = LIBRARY[verdict.lib[0]](ds, outputs, *verdict.lib[1:])
    except Exception:  # the loop must go on; the verdict counts as failed
        error = traceback.format_exc(limit=-2)
    seconds = time.perf_counter() - t0
    if span is not None:
        tracer.close(span)
    return Outcome(seconds, rc, out.getvalue(), err.getvalue(), result, error)


def run_batch(ds, batch, tracer=None):
    outputs: dict[str, Outcome] = {}
    t0 = time.perf_counter()
    for v in batch.verdicts:
        outputs[v.vid] = run_verdict(ds, v, outputs, tracer)
    return time.perf_counter() - t0, outputs


def run_paced(ds, batch):
    """Run a batch with one pass of host_loop before each verdict and after the last.

    Returns the outputs and each verdict's time relative to the host: its
    seconds times REF_LOOP_S / the mean of the loop times on either side.
    """
    outputs: dict[str, Outcome] = {}
    relative: dict[str, float] = {}
    before = host_loop(1)
    for v in batch.verdicts:
        o = outputs[v.vid] = run_verdict(ds, v, outputs)
        after = host_loop(1)
        relative[v.vid] = o.seconds * REF_LOOP_S * 2 / (before + after)
        before = after
    return outputs, relative


def environment() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def load1() -> float:
    return os.getloadavg()[0]


class Run:
    def __init__(self, args):
        self.args = args
        self.workload, self.scale, self.seed = args.workload, args.scale, args.seed
        expected = json.loads((HERE / "expected.json").read_text())
        self.plan = expected["plans"][self.workload][self.scale]
        self.rank_plan = expected["plans"]["rank-xcheck"][self.scale]
        self.frozen = expected["reports"][self.workload][self.scale]
        self.work = OUT / f"work-{self.workload}-{self.seed}-{os.getpid()}"
        self.errors: list[str] = []
        self.attempted = self.failed = 0

    def batch(self, index: int, threads: int = 1):
        return workloads.build_batch(self.workload, self.scale, self.seed, index,
                                     self.work / f"b{index}", self.plan, threads=threads)

    def setup(self, repeats: int):
        """Import the program, generate and write batch 0, `repeats` times.

        Returns batch 0, the median set-up relative to the host (like a
        verdict, by the loop timed on either side of it) and the median
        unscaled set-up.
        """
        relative, raw = [], []
        before = host_loop(1)
        for _ in range(repeats):
            shutil.rmtree(self.work / "b0", ignore_errors=True)
            t0 = time.perf_counter()
            ds = import_program()
            first = self.batch(0)
            raw.append(time.perf_counter() - t0)
            after = host_loop(1)
            relative.append(raw[-1] * REF_LOOP_S * 2 / (before + after))
            before = after
        self.ds = ds
        self.instances = [[v.vid, v.why] for v in first.verdicts]
        self.oracle = oracle.Oracle(ds, self.frozen)
        return first, statistics.median(relative), statistics.median(raw)

    def record(self, batch, outputs):
        """Check a finished batch, then keep only a digest of each output.

        Runs outside the timed region.  Dropping the results keeps the
        benchmark's own memory flat, so peak RSS is the program's.
        """
        for v in batch.verdicts:
            o = outputs[v.vid]
            self.attempted += 1
            errs = self.oracle.check(v, o, batch, self.plan)
            if errs:
                self.failed += 1
                self.errors.extend(errs)
            o.digest = hashlib.sha256(
                f"{o.rc}\n{o.stdout}\n{o.result!r}".encode()).hexdigest()
            o.result = None

    def compare_threads(self, t1_outputs, t2_outputs):
        """Reports at --threads 2 must be byte-identical to those at --threads 1."""
        for vid, ref in t1_outputs.items():
            if t2_outputs[vid].digest != ref.digest:
                self.errors.append(f"{vid}: report at --threads 2 differs from --threads 1")

    # -- modes ---------------------------------------------------------

    def measure(self) -> dict:
        first, setup_s, raw_setup_s = self.setup(SETUP_REPEATS)
        runs, relative = [], []
        start = time.perf_counter()
        index, batch = 0, first
        while True:
            began = time.perf_counter()
            outputs, rel = run_paced(self.ds, batch)
            runs.append(seconds(outputs))
            relative.append(rel)
            self.record(batch, outputs)
            if index == 0:
                outputs0 = outputs
            index += 1
            now = time.perf_counter()
            # Stop before a batch that would end past --seconds.
            if index >= MIN_BATCHES and now - start + (now - began) > self.args.seconds:
                break
            batch = self.batch(index)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.workload == "scan-gf2":
            t2 = self.batch(0, threads=2)
            _, t2_outputs = run_batch(self.ds, t2)
            self.record(t2, t2_outputs)
            self.compare_threads(outputs0, t2_outputs)
        raw, rel = per_verdict(runs, statistics.median), per_verdict(relative, statistics.mean)
        metrics = {
            "wall_s": sum(rel.values()),
            "verdict_p50_s": statistics.median(rel.values()),
            "peak_rss_mb": rss,
            "setup_s": setup_s,
        }
        extra = {"raw": {"wall_s": sum(raw.values()),
                         "verdict_p50_s": statistics.median(raw.values()),
                         "setup_s": raw_setup_s},
                 "host_loop_s": host_loop(), "batches": len(runs),
                 "verdicts": sum(map(len, runs))}
        every = [t for r in relative for t in r.values()]
        if len(every) >= 100:
            extra["verdict_p90_s"] = statistics.quantiles(every, n=10)[-1]
        if any(v.sampled for v in first.verdicts):
            extra["sampled_wall_s"] = sum(rel[v.vid] for v in first.verdicts if v.sampled)
        return {"metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
                "extra": extra}

    def traced_pass(self, index: int, count_adds: bool, threads: int = 1):
        batch = self.batch(index, threads)
        tracer = tracing.Tracer(self.ds, count_adds=count_adds).install()
        try:
            wall, outputs = run_batch(self.ds, batch, tracer)
        finally:
            tracer.uninstall()
        self.record(batch, outputs)
        tracer.batch, tracer.wall, tracer.outputs = batch, wall, outputs
        return tracer

    def traced(self) -> dict:
        """Alternate untraced and traced batches; report the fastest of each."""
        first, _, _ = self.setup(1)
        untraced, passes, t2_passes = [], [], []
        for i in range(TRACE_ROUNDS):
            batch = first if i == 0 else self.batch(2 * i)
            wall, outputs = run_batch(self.ds, batch)
            self.record(batch, outputs)
            untraced.append(seconds(outputs))
            passes.append(self.traced_pass(2 * i + 1, False))
            if self.workload == "scan-gf2":
                t2_passes.append(self.traced_pass(2 * i + 1, False, threads=2))
                self.compare_threads(passes[-1].outputs, t2_passes[-1].outputs)
        counts = self.traced_pass(2 * TRACE_ROUNDS, True)
        spans = min(passes, key=lambda t: t.wall)
        times = tracing.layer_times(spans)
        scan_ns = scan_ns_per_subspace(spans)
        ratio = 1.0
        if t2_passes:
            ratio = _ratio(scan_ns_per_subspace(min(t2_passes, key=lambda t: t.wall)), scan_ns)
        hot = counts.hot_counts()
        span_hot = [p.hot_counts() for p in passes]
        self.self_checks(passes, counts, span_hot, hot)
        steps_ok = self.step_cap_check()
        probe = probes.run(self.ds, self.workload, self.scale)
        c = spans.counts
        per_layer = {
            "families.scan.ns_per_subspace": (scan_ns, "ns"),
            "families.scan.subspaces": (c["families.scan.subspaces"], "count"),
            "families.measure.s": (times.get("self.families.measure", 0.0), "s"),
            "families.verify.s": (times.get("self.families.verify", 0.0), "s"),
            "families.words.s": (times.get("self.families.words", 0.0), "s"),
            "families.words.nominal": (c["families.words.nominal"], "count"),
            "families.words.distinct": (c["families.words.distinct"], "count"),
            "families.sampled.ns_per_sample": (
                _ratio(times.get("scan.sampled", 0.0), c["families.sampled.samples"], 1e9), "ns"),
            "families.sampled.samples": (c["families.sampled.samples"], "count"),
            "families.large.s": (times.get("total.families.large", 0.0), "s"),
            "families.large.records": (c["families.large.records"], "count"),
            "families.threads.ratio": (ratio, "ratio"),
            "subspace.cells.yielded": (span_hot[0]["cells.yielded"], "count"),
            **{k: (v, "ns") for k, v in probe.items()},
            "gfp.rowspan.adds.gf2": (hot["adds.gf2"], "count"),
            "gfp.rowspan.adds.odd": (hot["adds.odd"], "count"),
            "tensor.rank.s": (times.get("total.tensor.rank", 0.0), "s"),
            "tensor.rank.steps": (hot["tensor.steps"], "count"),
            "tensor.rank.steps_per_s": (
                _ratio(hot["tensor.steps"], times.get("total.tensor.search", 0.0)), "1/s"),
            "tensor.rank.pool": (c["tensor.rank.pool"], "count"),
            "tensor.reconstruct.s": (times.get("total.tensor.reconstruct", 0.0), "s"),
            "certify.certify.s": (times.get("total.certify.certify", 0.0), "s"),
            "certify.refute.s": (times.get("total.certify.refute", 0.0), "s"),
            "certify.check_trace.s": (times.get("total.certify.check_trace", 0.0), "s"),
            "formats.parse.s": (times.get("total.formats.parse", 0.0), "s"),
            "formats.render.s": (times.get("total.formats.render", 0.0), "s"),
            "cli.overhead.s": (sum(v for k, v in times.items()
                                   if k.startswith("self.cli.")), "s"),
            # Each verdict's fastest repetition, summed over the batch.
            "trace.overhead_frac": (
                sum(per_verdict([seconds(p.outputs) for p in passes], min).values())
                / sum(per_verdict(untraced, min).values()) - 1, "ratio"),
        }
        self.spans = spans
        extra = {"step_cap_check": steps_ok, "host_loop_s": host_loop(),
                 "untraced_wall_s": [sum(u.values()) for u in untraced],
                 "traced_wall_s": [p.wall for p in passes]}
        return {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
                "extra": extra}

    def self_checks(self, passes, counts, span_hot, hot):
        """Counters must agree with the reports and with each other."""
        c = passes[0].counts
        if c["families.scan.subspaces"] != c["families.scan.budgeted"]:
            self.errors.append(
                f"families.scan.subspaces {c['families.scan.subspaces']} != sum of "
                f"grassmann_count {c['families.scan.budgeted']}")
        if span_hot[0]["cells.yielded"] > c["families.scan.subspaces"]:
            self.errors.append("subspace.cells.yielded exceeds the nominal subspace count")
        nominal = samples = 0
        for v in passes[0].batch.verdicts:
            rep = oracle.parse_report(passes[0].outputs[v.vid].stdout)
            if "word_length" in rep:
                nominal += int(rep["maps_symmetrized"][0]) ** int(rep["word_length"][0])
            if v.sampled:  # measure draws per dimension up to n/2; a holding verify draws all
                n = len(passes[0].batch.families[v.family][1][0])
                dims = n // 2 if v.argv[0] == "measure" else 1
                samples += dims * int(v.argv[v.argv.index("--samples") + 1])
        if nominal != c["families.words.nominal"]:
            self.errors.append(f"families.words.nominal {c['families.words.nominal']} != D^t "
                               f"{nominal}")
        if samples != c["families.sampled.samples"]:
            self.errors.append(f"families.sampled.samples {c['families.sampled.samples']} != "
                               f"{samples} requested")
        for other, other_hot in zip(passes[1:] + [counts], span_hot[1:] + [hot]):
            if other.counts != c or other_hot["cells.yielded"] != span_hot[0]["cells.yielded"]:
                self.errors.append("counts differ between traced batches")

    def step_cap_check(self) -> bool:
        """tensor.rank.steps must sit exactly on the public step_cap boundary."""
        ds = self.ds
        name, base, p, d, n, r, _ = workloads.RANK_INSTANCES[self.scale][0]
        maps = gen.terms_slices(gen.low_rank_terms(p, d, n, r, base), p, d, n)
        tensor = ds.formats.parse_tensor(gen.tensor_text(p, maps))
        rank = self.rank_plan[name]["rank"]
        tracer = tracing.Tracer(ds, count_adds=True).install()
        try:
            ds.tensor.tensor_rank(tensor, rank)
        finally:
            tracer.uninstall()
        steps = tracer.hot_counts()["tensor.steps"]
        ok = ds.tensor.tensor_rank(tensor, rank, step_cap=steps) is not None
        try:
            ds.tensor.tensor_rank(tensor, rank, step_cap=steps - 1)
            ok = False
        except ds.errors.BudgetExceeded:
            pass
        if not ok:
            self.errors.append(f"tensor.rank.steps {steps} is not the step_cap boundary")
        return ok


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def step(self, x):
        return _Pair(self.b, (self.a ^ x) & 0xFFFF)


def host_loop(repeats: int = HOST_LOOP_REPEATS) -> float:
    """Fastest of `repeats` timings of a fixed interpreter-bound loop.

    Integer and bit arithmetic, small objects and method calls, tuples,
    sets, dicts and sorts: the kind of work the program's inner loops do,
    and nothing of the program itself, so a change to the program cannot
    move it.  It measures how fast the host runs Python right now.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc, rows, seen = 0, [], {}
        for i in range(10000):
            v = (i * 2654435761) & 0xFFFF
            acc ^= v >> (i & 7)
            rows.append((v, acc & 0xFF))
            seen[v & 0x3FF] = i
        rows.sort()
        pair, keys, rows = _Pair(1, 2), set(), []
        for i in range(6000):
            pair = pair.step(i * 40503)
            key = (pair.a, pair.b & 0xFF)
            if key not in keys:
                keys.add(key)
                rows.append([pair.a, pair.b, i])
        rows.sort()
        best = min(best, time.perf_counter() - t0)
    return best


def seconds(outputs) -> dict[str, float]:
    return {vid: o.seconds for vid, o in outputs.items()}


def per_verdict(runs, stat) -> dict[str, float]:
    """Each verdict's `stat` (min, mean, median) of its times over several batches."""
    return {vid: stat([r[vid] for r in runs]) for vid in runs[0]}


def scan_ns_per_subspace(tracer) -> float:
    return _ratio(tracing.layer_times(tracer).get("scan.exhaustive", 0.0),
                  tracer.counts["families.scan.subspaces"], 1e9)


def _ratio(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="instance sizes; 'tiny' is for the smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run = Run(args)
    env = environment()
    env["load1_before"] = load1()
    try:
        body = run.traced() if args.trace else run.measure()
        env["load1_after"] = load1()
    except ImportError as e:
        print(f"cannot import the program from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    env["loaded"] = max(env["load1_before"], env["load1_after"]) > (env["nproc"] or 1)
    body["extra"]["error_rate"] = run.failed / run.attempted
    result = {"correct": run.failed == 0 and not run.errors, "attempted": run.attempted,
              "failed": run.failed, "metrics": body["metrics"]}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "env": env, "extra": body["extra"],
              "errors": run.errors[:50], "result": result,
              "instances": run.instances}
    if args.trace:
        record["spans"] = run.spans.spans
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if env["loaded"]:
        print(f"warning: load average exceeded nproc={env['nproc']} during the run")
    for err in run.errors[:20]:
        print(f"error: {err}")
    print("summary: " + json.dumps({"workload": args.workload, "env": env, **body["extra"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
