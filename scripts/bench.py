#!/usr/bin/env python3
"""Record the end-to-end benchmark metrics of this checkout in BENCH_<n>.json.

    python3 scripts/bench.py N

Runs `perfbench/run.py --trace 0` once for each workload BENCHMARK.json
names, at the fixed seed SEED and for the benchmark's own run length, and
writes each workload's result (correctness counts and end-to-end metrics)
with the git commit and the Python and NumPy versions to BENCH_<N>.json at
the root of the checkout.  Takes about half a minute per workload.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def parse_result(stdout: str) -> dict:
    """The end-to-end result a perfbench run prints as its last stdout line."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def run_workload(name: str, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return parse_result(proc.stdout)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="number in the file name BENCH_<n>.json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    record = {
        "git_commit": git("rev-parse", "HEAD"),
        # edits to what the numbers depend on since that commit
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json")),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "seed": SEED, "seconds": seconds,
        "workloads": {w["name"]: run_workload(w["name"], seconds) for w in bench["workloads"]},
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
