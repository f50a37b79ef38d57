"""The benchmark's workloads: one pass of each, with a check on every operation.

A pass drives leakline in this process through its public entry points,
`leakline.cli.main` for subcommands and the package-level library functions
for the localisation chain, one call after another (closed loop, one caller).
Each function returns the wall time of its stages, the workload's position
or verification errors against ground truth, and counts every operation and
every failed check in `ops`.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import time
from pathlib import Path

# nx=500 is a quarter of criterion 6's resolution; the tolerance is raised
# from the CLI default 1e-3 to 4e-3 because the FD error at the end-of-line
# leak grows to about 2e-3 on the coarser grid.
VERIFY_ARGS = ["--nx", "500", "--t-end", "900", "--step", "50", "--tol", "0.004"]
QUANTUM = 100.0


class Ops:
    """Counts attempted operations and failed checks."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.tracer = tracer

    def begin(self) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)


def cli(argv: list[str]) -> tuple[int | None, str, float]:
    """Run `leakline <argv>` in-process; returns (exit code, stdout, seconds).

    An exception that escapes the CLI is reported as exit code None.
    """
    from leakline import cli as cli_mod

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_mod.main([str(a) for a in argv])
    except Exception as exc:   # a crash is a failed operation, not a harness error
        rc = None
        print(f"leakline {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return rc, out.getvalue(), time.perf_counter() - t0


def _lines(path: Path) -> int:
    with open(path, encoding="ascii") as fh:
        return sum(1 for _ in fh)


# -- oracle-verify ---------------------------------------------------------

def verify_pass(truth: dict, work: Path, ops: Ops) -> tuple[dict, dict]:
    stages = {"verify_s": 0.0}
    errs = []
    for case in truth["verify"]:
        ops.begin()
        rc, out, dt = cli(["verify", work / case["cfg"], *VERIFY_ARGS])
        stages["verify_s"] += dt
        rel = re.search(r"^max rel error\s*:\s*(\S+)", out, re.M)
        passed = re.search(r"^result\s*:\s*PASS$", out, re.M)
        ops.check(rc == 0 and passed is not None and rel is not None,
                  f"verify {case['cfg']}: exit {rc}")
        if rel is not None:
            errs.append(float(rel.group(1)))
    return stages, {"verify_max_rel": errs}


# -- replay ----------------------------------------------------------------

def _events(text: str) -> list[tuple[float, str, dict]]:
    events = []
    for line in text.splitlines():
        t, kind, payload = line.split(",", 2)
        fields = dict(kv.split("=", 1) for kv in payload.split(";") if "=" in kv)
        events.append((float(t), kind, fields))
    return events


def _check_stream(rc, out: str, stream: dict, ops: Ops) -> float | None:
    """Checks one replay; returns |ell2_est - ell2| / L for a rupture."""
    name = stream["csv"]
    if rc != 0:
        ops.check(False, f"monitor {name}: exit {rc}")
        return None
    try:
        events = _events(out)
    except ValueError:
        ops.check(False, f"monitor {name}: unparsable event line")
        return None
    accidents = [i for i, (_, kind, f) in enumerate(events)
                 if kind == "Verdict" and f.get("verdict") == "Accident"]
    rupture = stream["rupture"]
    if rupture is None:
        ops.check(not accidents, f"monitor {name}: Accident on a stream without rupture")
        return None
    ok = (len(accidents) == 1 and accidents[0] + 1 < len(events)
          and events[accidents[0] + 1][1] == "PlanIssued"
          and events[accidents[0]][0] >= rupture["onset"] - 1e-6
          and "ell2_est" in events[accidents[0]][2])
    ops.check(ok, f"monitor {name}: expected one Accident then PlanIssued after the onset")
    if not ok:
        return None
    est = float(events[accidents[0]][2]["ell2_est"])
    return abs(est - rupture["ell2"]) / stream["length"]


def replay_pass(rule: str):
    def run(truth: dict, work: Path, ops: Ops) -> tuple[dict, dict]:
        stages = {f"{rule}_s": 0.0}
        errs = []
        for stream in truth["streams"]:
            ops.begin()
            rc, out, dt = cli(["monitor", work / stream["cfg"],
                               "--stream", work / stream["csv"], "--rule", rule])
            stages[f"{rule}_s"] += dt
            err = _check_stream(rc, out, stream, ops)
            if err is not None:
                errs.append(err)
        return stages, {"replay_err": errs}
    return run


# -- sweep -----------------------------------------------------------------

def _localise(case: dict, path: Path) -> tuple[object, object, object, float]:
    """The library chain on a gauge-quantised trajectory."""
    import leakline as ll

    t0 = time.perf_counter()
    sc = ll.load_scenario(path)
    traj = ll.simulate_trajectory(sc.spec, sc.require_leak(), sc.series,
                                  sc.require_run().times(), quantum=QUANTUM)
    t_fix = ll.fixation_time_empirical(traj)
    est = ll.estimate_position(sc.spec, traj, t_fix)
    plan = ll.build_isolation_plan(sc.require_layout(), est.ell2_est)
    return traj, est, plan, time.perf_counter() - t0


def sweep_pass(truth: dict, work: Path, ops: Ops) -> tuple[dict, dict]:
    stages = dict.fromkeys(("simulate_s", "field_s", "curves_s", "locate_s", "localise_s"), 0.0)
    locate_errs, localise_errs = [], []
    out_dir = work / "out"
    out_dir.mkdir(exist_ok=True)
    for case in truth["sweep"]:
        dense, coarse, n = work / case["cfg"], work / case["coarse_cfg"], case["samples"]
        name = case["cfg"]

        ops.begin()
        rc, out, dt = cli(["simulate", dense])
        stages["simulate_s"] += dt
        ops.check(rc == 0 and len(out.splitlines()) == n + 1, f"simulate {name}: exit {rc}")

        ops.begin()
        csv = out_dir / "sim.csv"
        rc, _, dt = cli(["simulate", dense, "--csv", "--out", csv])
        stages["simulate_s"] += dt
        ops.check(rc == 0 and _lines(csv) == n + 1, f"simulate --csv {name}: exit {rc}")

        ops.begin()
        field = out_dir / "field.csv"
        rc, out, dt = cli(["simulate", coarse, "--field", field,
                           "--field-points", case["field_points"]])
        stages["field_s"] += dt
        instants = case["field_instants"]
        ops.check(rc == 0 and len(out.splitlines()) == instants + 1
                  and _lines(field) == instants * case["field_points"] + 1,
                  f"simulate --field {name}: exit {rc}")

        ops.begin()
        rc, out, dt = cli(["curves", dense])
        stages["curves_s"] += dt
        ops.check(rc == 0 and len(out.splitlines()) == n + 1, f"curves {name}: exit {rc}")

        ops.begin()
        rc, out, dt = cli(["locate", dense, "--at", f"{case['t_grid']:g}"])
        stages["locate_s"] += dt
        theta = re.search(r"^theta = (\S+)", out, re.M)
        rel = re.search(r"^rel_error_vs_true = (\S+)", out, re.M)
        ok = rc == 2 or (rc == 0 and theta is not None and rel is not None
                         and 0.0 <= float(theta.group(1)) <= 1.0)
        ops.check(ok, f"locate {name}: exit {rc}")
        if ok and rc == 0:
            locate_errs.append(float(rel.group(1)))

        ops.begin()
        try:
            traj, est, plan, dt = _localise(case, dense)
        except Exception as exc:   # a crash is a failed operation
            ops.check(False, f"localise {name}: {type(exc).__name__}: {exc}")
            continue
        stages["localise_s"] += dt
        ok = (len(traj.samples) == n and est.theta is not None and 0.0 <= est.theta <= 1.0
              and plan.close[0] < est.ell2_est < plan.close[1])
        ops.check(ok, f"localise {name}: theta {est.theta}")
        if ok:
            localise_errs.append(abs(est.ell2_est - case["ell2"]) / case["length"])
    return stages, {"locate_err": locate_errs, "localise_err": localise_errs}


PASSES = {
    "oracle-verify": verify_pass,
    "replay-grid": replay_pass("grid"),
    "replay-empirical": replay_pass("empirical"),
    "sweep": sweep_pass,
}
