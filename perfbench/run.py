#!/usr/bin/env python3
"""leakline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a leakline checkout; the program is imported from
`src/`.  The inputs of the workload are generated from the seed into
`perfbench/_work/` (see gen.py), a set-up probe runs in fresh interpreters,
one warm-up pass runs, and then whole passes run back to back until
`--seconds` would be exceeded.  Every operation is checked.

With `--trace 0` the last stdout line carries the end-to-end metrics, which
every workload reports:

    setup_s      median over fresh interpreters of: import leakline and run
                 one `simulate` on a line-B scenario
    peak_rss_mb  peak resident set of this process
    pass_s       median over passes of the summed wall time of the pass's
                 calls (checks excluded)
    err_p50      median relative error of the pass's answers against ground
                 truth: |ell2_est - ell2| / L for position estimates, the
                 series-vs-FD max relative error for `verify`

A `report` line before it spells the pass out under the workload's own
names (verify_s, replay_*_samples_per_s, simulate_s, ..., failed_ratio).
With `--trace 1` untraced and traced passes alternate; the last line carries
the per-layer metrics of the traced passes (medians over them), the scaling
exponents, and the tracing overhead; spans go to
`perfbench/_work/spans-<workload>-<seed>.jsonl`.  Layers a workload does not
exercise read 0; a layer function a later commit no longer has is left out
and named on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS/OpenMP pools before numpy is imported anywhere in this process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
KEPT_TRACED_PASSES = 4
PROBE_REPEATS = 3

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import contextlib, io
import leakline
from leakline.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["simulate", sys.argv[2]])
print(rc, repr(time.perf_counter() - t0))
"""


def import_leakline():
    """Import leakline from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import leakline
        import leakline.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"error: cannot import leakline from {SRC}: {exc}")
    if Path(leakline.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: leakline imported from {leakline.__file__}, not from {SRC}")
    return leakline


def measure_setup(cfg: Path, ops: workloads.Ops) -> float:
    """Median time for a fresh interpreter to import leakline and simulate."""
    env = dict(os.environ, PYTHONPATH="", PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(SETUP_RUNS):
        ops.begin()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(cfg)],
                              capture_output=True, text=True, env=env, timeout=120,
                              cwd=ROOT)
        fields = proc.stdout.split()
        ok = proc.returncode == 0 and len(fields) == 2 and fields[0] == "0"
        ops.check(ok, f"setup probe: exit {proc.returncode} {proc.stderr[-200:]}")
        if ok:
            times.append(float(fields[1]))
    return statistics.median(times) if times else 0.0


def run_passes(run_pass, truth, work, ops, seconds, tracer=None):
    """Warm-up pass, then passes until the next one would overrun `seconds`.

    With a tracer, untraced and traced passes alternate; the spans of the
    first KEPT_TRACED_PASSES traced passes are kept for writing out.
    Returns the untraced and the traced results.
    """
    run_pass(truth, work, ops)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        stages, errs = run_pass(truth, work, ops)
        plain.append((time.perf_counter() - t0, stages, errs))
        if tracer is not None:
            tracer.begin_pass()
            tracer.install()
            try:
                t0 = time.perf_counter()
                run_pass(truth, work, ops)
                wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            traced.append((wall, tracer.layer_metrics()))
            if len(traced) > KEPT_TRACED_PASSES:
                del tracer.spans[tracer.pass_start:]
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    return plain, traced


def pooled_median(errs: dict) -> float:
    values = [v for vs in errs.values() for v in vs]
    return statistics.median(values) if values else 0.0


def workload_report(workload, truth, plain, ops, setup_s, rss_mb) -> dict:
    """The pass spelled out under the workload's own metric names."""
    report = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB"),
              "failed_ratio": (ops.failed / max(ops.attempted, 1), "1")}
    stage_keys = plain[0][1].keys()
    if workload.startswith("replay-"):
        samples = sum(s["samples"] for s in truth["streams"])
        for key in stage_keys:
            rule = key[:-2]
            report[f"replay_{rule}_samples_per_s"] = (
                statistics.median(samples / p[1][key] for p in plain), "1/s")
    else:
        for key in stage_keys:
            report[key] = (statistics.median(p[1][key] for p in plain), "s")
    for key, values in plain[0][2].items():
        if values:
            name = {"verify_max_rel": "verify_max_rel_p50"}.get(key, f"{key}_p50")
            report[name] = (statistics.median(values), "1")
    return {k: {"value": v, "unit": u} for k, (v, u) in report.items()}


def scaling_probes(workload, truth, work) -> dict:
    """Log-log exponents: run_monitor time against each stream's longest
    episode (per rule), fixation_time_empirical time against trajectory
    length.  Exponents a workload cannot measure read 0."""
    out = dict.fromkeys(tracing.SCALING, 0.0)
    if workload.startswith("replay-"):
        sizes = [s["drift"] + 5 for s in truth["streams"]]
        for rule in ("grid", "empirical"):
            probe = tracing.Tracer()
            times = []
            probe.install()
            try:
                for s in truth["streams"]:
                    workloads.cli(["monitor", work / s["cfg"], "--stream", work / s["csv"],
                                   "--rule", rule])
                    runs = probe.durations("monitor.run_monitor")
                    times.append(runs[-1] if runs else 0.0)
            finally:
                probe.uninstall()
            out[f"monitor.{rule}_scaling_exp"] = tracing.loglog_slope(sizes, times)
    elif workload == "sweep":
        import leakline as ll

        probe = truth["probe"]
        rows = list(ll.read_pressure_stream(work / probe["csv"]))
        spec = ll.load_scenario(work / probe["cfg"]).spec
        times = []
        for n in probe["lengths"]:
            traj = ll.PressureTrajectory(samples=tuple(rows[:n]),
                                         baseline=(spec.p_inlet_0, spec.p_outlet_0))
            runs = []
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                ll.fixation_time_empirical(traj)
                runs.append(time.perf_counter() - t0)
            times.append(statistics.median(runs))
        out["detection.fixation_empirical_scaling_exp"] = tracing.loglog_slope(
            probe["lengths"], times)
    return out


def run_record(leakline, args) -> dict:
    import importlib.util

    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        elif not ref.startswith("ref: "):
            commit = ref
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit,
        "fd_backend": "numba" if importlib.util.find_spec("numba") else "numpy",
        "leakline_version": getattr(leakline, "__version__", "unknown"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "load": "closed loop, one caller, one process",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    leakline = import_leakline()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        truth = gen.generate(args.workload, args.seed, work)
        ops = workloads.Ops()
        setup_s = measure_setup(work / truth["setup"], ops)
        run_pass = workloads.PASSES[args.workload]
        tracer = tracing.Tracer() if args.trace else None
        ops.tracer = tracer
        plain, traced = run_passes(run_pass, truth, work, ops, args.seconds, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report = workload_report(args.workload, truth, plain, ops, setup_s, rss_mb)

        if tracer is None:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
                "pass_s": {"value": statistics.median(sum(p[1].values()) for p in plain),
                           "unit": "s"},
                "err_p50": {"value": pooled_median(plain[0][2]), "unit": "1"},
            }
        else:
            units = tracing.metric_units()
            layer = {k: statistics.median(t[1][k] for t in traced) for k in traced[0][1]}
            layer.update(scaling_probes(args.workload, truth, work))
            layer["trace.overhead_s"] = (statistics.median(t[0] for t in traced)
                                         - statistics.median(p[0] for p in plain))
            metrics = {k: {"value": layer[k], "unit": units[k]} for k in units if k in layer}
            if tracer.absent:
                print(f"absent layer functions: {', '.join(tracer.absent)}", file=sys.stderr)
            WORK.mkdir(exist_ok=True)
            tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
            report["trace.overhead_s"] = metrics["trace.overhead_s"]

        record = run_record(leakline, args)
        (WORK / f"record-{args.workload}-{args.seed}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="ascii")
        for reason in ops.reasons:
            print(f"failed: {reason}", file=sys.stderr)
        print("record " + json.dumps(record, sort_keys=True))
        print("report " + json.dumps(report))
        print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                          "failed": ops.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
