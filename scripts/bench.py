#!/usr/bin/env python3
"""Record the end-to-end benchmark metrics of this checkout in BENCH_<n>.json.

    python3 scripts/bench.py N

Runs `perfbench/run.py` twice for each workload BENCHMARK.json names, at
the fixed seed SEED and for the benchmark's own run length: once with
`--trace 0` and once with `--trace 1`.  Then runs the Tier-1 test suite
once.  Writes each workload's result (correctness counts and end-to-end
metrics, and minflt_per_op: the minor page faults of the untraced run per
attempted operation), each workload's per-layer metrics from the traced run
under "layers", the suite's wall time and its passed, failed and error counts,
the two tracked sizes of src/leakline (its line count and the length of
leakline.__all__), with the git commit and the Python and NumPy versions,
to BENCH_<N>.json at the root of the checkout.  Takes about a minute per
workload.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def parse_result(stdout: str) -> dict:
    """The end-to-end result a perfbench run prints as its last stdout line."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def run_workload(name: str, seconds: float, trace: int) -> dict:
    """One perfbench run's result.  An untraced run also gets minflt_per_op:
    the ru_minflt that RUSAGE_CHILDREN gains over the perfbench/run.py
    subprocess, divided by its attempted count.  That count includes the
    faults of the set-up probe's interpreters, which perfbench starts and
    waits for, and those of the perfbench interpreter's own start-up."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                           "--seed", str(SEED), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    result = parse_result(proc.stdout)
    if not trace:
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
        result["minflt_per_op"] = faults / max(result["attempted"], 1)
    return result


def run_workloads(names: list[str], seconds: float) -> dict:
    """Each workload's untraced result, and under "layers" the per-layer
    metrics of one traced run of it."""
    return {"workloads": {name: run_workload(name, seconds, 0) for name in names},
            "layers": {name: run_workload(name, seconds, 1)["metrics"] for name in names}}


def parse_pytest_summary(stdout: str) -> dict:
    """Passed, failed and error counts from the summary line `pytest -q` ends with."""
    summary = (stdout.strip().splitlines() or [""])[-1]
    counts = dict.fromkeys(("passed", "failed", "errors"), 0)
    for number, outcome in re.findall(r"(\d+) (passed|failed|errors?)\b", summary):
        counts["errors" if outcome.startswith("error") else outcome] = int(number)
    return counts


def run_tier1() -> dict:
    """Run the Tier-1 suite (ROADMAP.md) once; its wall time and counts."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - t0, **parse_pytest_summary(proc.stdout)}


def source_size(package: Path) -> dict:
    """Lines of package/*.py, counted as `wc -l` counts them, and the number of
    names in the `__all__` list that package/__init__.py assigns."""
    lines = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    names = next(node.value for node in init.body if isinstance(node, ast.Assign)
                 and [getattr(target, "id", None) for target in node.targets] == ["__all__"])
    return {"src_lines": lines, "all_names": len(ast.literal_eval(names))}


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
        **run_workloads([w["name"] for w in bench["workloads"]], seconds),
        "tier1": run_tier1(),
        "size": source_size(ROOT / "src" / "leakline"),
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
