"""Run the benchmark over seeds 1-10 and record a BENCH_<label>.json baseline.

    python3 bench/baseline.py --label seed

For each workload of BENCHMARK.json: one `--trace 0` run per seed, then two
runs with `--trace 1` on the first seed.  Prints, per end-to-end metric, the median,
quartiles and spread ((q3 - q1) / median) next to
the metric's bound from BENCHMARK.json, flagging WIDE a spread at or above
a third of the bound, and checks that every count repeats
exactly across the traced runs.  With --label, writes bench/BENCH_<label>.json.
Runs are sequential; nothing else should load the machine meanwhile.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACED = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} failed ({proc.returncode}): {proc.stderr[-800:]}")
    result = json.loads(lines[-1])
    summary = json.loads(next(x for x in lines if x.startswith("summary: "))[9:])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv)}: incorrect: {lines[:-1]}")
    return {"seed": seed, "result": result, "summary": summary}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", help="write bench/BENCH_<label>.json")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        runs = [run(w, s, spec["run_seconds"], 0) for s in SEEDS]
        stats = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            stats[m["name"]] = {**spread(values), "bound": m["bound"], "unit": m["unit"],
                                "values": values}
            s = stats[m["name"]]
            flag = "" if s["spread"] < m["bound"] / 3 else "  WIDE"
            print(f"{w:12} {m['name']:14} median {s['median']:.6g} {m['unit']:3} "
                  f"spread {s['spread']:.4f} (bound {m['bound']}){flag}", flush=True)
        traced = [run(w, runs[0]["seed"], spec["run_seconds"], 1) for _ in range(TRACED)]
        counts = [{k: v["value"] for k, v in t["result"]["metrics"].items()
                   if v["unit"] == "count"} for t in traced]
        repeat = all(c == counts[0] for c in counts)
        ok = ok and repeat
        print(f"{w:12} traced x{len(traced)}: counts repeat exactly: {repeat}", flush=True)
        out["workloads"][w] = {
            "end_to_end": stats,
            "extra": [r["summary"] for r in runs],
            "per_layer": traced[0]["result"]["metrics"],
            "per_layer_summary": traced[0]["summary"],
            "counts_repeat": repeat,
        }
    if args.label:
        path = HERE / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
