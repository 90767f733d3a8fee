"""Smoke test of the benchmark at tiny size.

    python3 bench/smoke.py

For every workload, one `--trace 0` and one `--trace 1` run at `--scale tiny`
must end with a result line holding correct=true, failed=0 and exactly the
metrics BENCHMARK.json names for that mode, each with its unit, and the
summary line must show error_rate 0.  Last, in a copy that holds only
BENCHMARK.json and bench/, the benchmark must exit non-zero without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 300


def bench(cwd: Path, workload: str, trace: int, scale: str = "tiny"):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--scale", scale]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, w, trace)
            lines = proc.stdout.strip().splitlines()
            where = f"{w} --trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            summary = json.loads(next(x for x in lines if x.startswith("summary: "))[9:])
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if got != want:
                problems.append(f"{where}: metrics {got} != {want}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            if summary["error_rate"] != 0:
                problems.append(f"{where}: error_rate {summary['error_rate']}")
            print(f"ok  {where}: {len(got)} metrics, {result['attempted']} verdicts", flush=True)

    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(bare, "scan-gf2", 0, "full")
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or '"correct"' in last[0]:
            problems.append("the benchmark ran without the program's sources")
        else:
            print(f"ok  without src/: exit {proc.returncode}, no result", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
