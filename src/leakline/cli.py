"""Command-line front end.

Exit codes: 0 success, 1 validation/usage error, 2 undefined ratio or
insufficient signal, 3 oracle tolerance breach.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import detection, monitor as monitor_mod, oracle
from .model import SeriesConfig, pressure_field
from .scenario import RunWindow, Scenario, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_SIGNAL = 2
EXIT_TOLERANCE = 3


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors under the exit-code contract
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(f"{self.prog}: error: {message}")


class SystemExit2(Exception):
    """Usage/validation failure routed to exit code 1."""


def _fmt_table(v: float) -> str:
    """Render Pa in units of 1e4 Pa with two decimals, as gauges are read."""
    return f"{v / 1e4:.2f}"


def _require_positive(flag: str, value: float) -> None:
    """Reject a flag value that is not a finite number > 0."""
    if not value > 0:
        raise ValueError(f"{flag} must be > 0, got {value:g}")
    if value == math.inf:
        raise ValueError(f"{flag} must be finite, got {value:g}")


def _series_override(args, base: SeriesConfig) -> SeriesConfig:
    n_max = args.nmax if args.nmax is not None else base.n_max
    return SeriesConfig(n_max=n_max, tail_tol=base.tail_tol)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")


def cmd_simulate(args) -> int:
    if args.field_points < 1:
        raise ValueError(f"--field-points must be >= 1, got {args.field_points}")
    sc = load_scenario(args.scenario)
    leak, run = sc.require_leak(), sc.require_run()
    cfg = _series_override(args, sc.series)
    times = run.times()
    traj = detection.simulate_trajectory(sc.spec, leak, cfg, times)
    if args.csv:
        header, fmt, sep = "t_seconds,p_inlet_pa,p_outlet_pa", repr, ","  # repr round-trips
    else:
        header, fmt, sep = "t_s\tP_inlet_1e4Pa\tP_outlet_1e4Pa", _fmt_table, "\t"
    lines = [header] + [f"{t:g}{sep}{fmt(pin)}{sep}{fmt(pout)}"
                        for t, pin, pout in traj.samples.tolist()]
    _write_or_print("\n".join(lines) + "\n", args.out)

    if args.field is not None:
        xs = np.linspace(0.0, sc.spec.length, args.field_points)
        field = pressure_field(sc.spec, leak, cfg, xs, times)
        # one instant at a time: the cells joined by its t label, % filling in repr(p)
        cells = ["", *[f",{x:g},%r\n" for x in xs]]
        with open(args.field, "w", encoding="ascii") as dump:
            dump.write("t_seconds,x_m,pressure_pa\n")
            for t, profile in zip(times, field):
                dump.write(f"{t:g}".join(cells) % tuple(profile.tolist()))
    return EXIT_OK


def _trajectory_for(sc: Scenario, args) -> detection.PressureTrajectory:
    if args.observed is not None:
        rows = monitor_mod.read_pressure_stream(args.observed)
        return detection.PressureTrajectory(rows, (sc.spec.p_inlet_0, sc.spec.p_outlet_0))
    leak, run = sc.require_leak(), sc.require_run()
    cfg = _series_override(args, sc.series)
    return detection.simulate_trajectory(sc.spec, leak, cfg, run.times())


def cmd_locate(args) -> int:
    _require_positive("--eps-meas", args.eps_meas)
    sc = load_scenario(args.scenario)
    traj = _trajectory_for(sc, args)
    est = detection.estimate_position(sc.spec, traj, args.at, eps_meas=args.eps_meas)
    band = detection.admissible_band(sc.spec, args.at)
    out = []
    if est.theta is None:
        print(f"t_fix = {args.at:g} s", file=sys.stderr)
        print(f"ratio undefined: deviation below measurability floor ({est.ratio.cause.value})",
              file=sys.stderr)
        print(f"verdict = {est.verdict.value}", file=sys.stderr)
        return EXIT_NO_SIGNAL
    out.append(f"t_fix = {args.at:g} s")
    out.append(f"p = {est.ratio.p:.6g}")
    out.append(f"theta = {est.theta:.6f}" + ("" if est.theta == est.theta_raw
                                             else f" (raw {est.theta_raw:.6f}, out of range)"))
    out.append(f"ell2_est = {est.ell2_est:.6g} m")
    if sc.leak is not None and args.observed is None:
        rel = abs(est.ell2_est - sc.leak.ell2) / sc.spec.length
        out.append(f"rel_error_vs_true = {rel:.6f}  (|ell2_est - ell2| / length)")
    out.append(f"verdict = {est.verdict.value}")
    if band is None:
        out.append("band = unavailable at this time (classification via theta range)")
    else:
        out.append(f"band = ({band.lo:.6g}, {band.hi:.6g})")
    _write_or_print("\n".join(out) + "\n", args.out)
    return EXIT_OK


def cmd_curves(args) -> int:
    _require_positive("--eps-meas", args.eps_meas)
    lines = ["scenario_id,t,p"]
    for path in args.scenarios:
        try:
            sc = load_scenario(path)
            leak, run = sc.require_leak(), sc.require_run()
            cfg = _series_override(args, sc.series)
            traj = detection.simulate_trajectory(sc.spec, leak, cfg, run.times())
        except ValueError as exc:
            # with several scenarios, say which one failed (once)
            if len(args.scenarios) == 1 or str(exc).startswith(f"{path}: "):
                raise
            raise ValueError(f"{path}: {exc}") from exc
        p1, p2 = traj.baseline
        for t, p_in, p_out in traj.samples.tolist():
            rp = detection.ratio_from_deviations(p1 - p_in, p2 - p_out, t, args.eps_meas)
            value = f"{rp.p:.9g}" if rp.defined else ""
            lines.append(f"{sc.name},{t:g},{value}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.step is not None:
        _require_positive("--step", args.step)
    _require_positive("--tol", args.tol)
    if args.t_end is not None:
        _require_positive("--t-end", args.t_end)
    sc = load_scenario(args.scenario)
    leak = sc.require_leak()
    cfg = _series_override(args, sc.series)
    t_end = args.t_end if args.t_end is not None else (
        sc.run.t_end if sc.run is not None else 900.0)
    step = args.step if args.step is not None else max(t_end / 18.0, 1.0)
    if step > t_end:
        raise ValueError(f"--step {step:g} exceeds --t-end {t_end:g}: no snapshot time fits")
    times = RunWindow(step, t_end, step).times()
    grid = oracle.FdGrid(nx=args.nx, t_end=t_end)
    report = oracle.compare_with_series(sc.spec, leak, grid, cfg,
                                        output_times=times, tolerance=args.tol)
    print(report.summary())
    if not report.passed:
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_monitor(args) -> int:
    _require_positive("--eps-meas", args.eps_meas)
    if args.step is not None:
        _require_positive("--step", args.step)
    sc = load_scenario(args.scenario)
    step = args.step if args.step is not None else (
        sc.run.step if sc.run is not None else 60.0)
    cfg = monitor_mod.MonitorConfig(
        spec=sc.spec, layout=sc.layout, sampling_step=step,
        eps_meas=args.eps_meas, fixation_rule=monitor_mod.FixationRule(args.rule))
    stream = monitor_mod.read_pressure_stream(args.stream)
    events = monitor_mod.run_monitor(cfg, stream)
    for event in events:
        print(monitor_mod.format_event(event))
    if args.log is not None:
        monitor_mod.append_event_log(args.log, events)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process and reused by every `main` call."""
    parser = _Parser(prog="leakline",
                     description="Transient simulation, leak localisation and "
                                 "isolation planning for a two-line gas pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_series_flags(p):
        p.add_argument("--nmax", type=int, default=None, help="series truncation order")

    p = sub.add_parser("simulate", help="tabulate end pressures over the run window")
    p.add_argument("scenario")
    p.add_argument("--csv", action="store_true", help="full-precision CSV instead of the table view")
    p.add_argument("--out", default=None)
    p.add_argument("--field", default=None, help="also dump the full x-t field CSV here")
    p.add_argument("--field-points", type=int, default=101)
    add_series_flags(p)

    p = sub.add_parser("locate", help="estimate the leak position at an instant")
    p.add_argument("scenario")
    p.add_argument("--at", type=float, required=True, help="fixation instant (s)")
    p.add_argument("--observed", default=None,
                   help="observed t_seconds,p_inlet_pa,p_outlet_pa CSV instead of simulating")
    p.add_argument("--eps-meas", type=float, default=detection.DEFAULT_EPS_MEAS)
    p.add_argument("--out", default=None)
    add_series_flags(p)

    p = sub.add_parser("curves", help="long-form CSV of the drop ratio over time")
    p.add_argument("scenarios", nargs="*")
    p.add_argument("--eps-meas", type=float, default=detection.DEFAULT_EPS_MEAS)
    p.add_argument("--out", default=None)
    add_series_flags(p)

    p = sub.add_parser("verify", help="compare the series against the FD oracle")
    p.add_argument("scenario")
    p.add_argument("--nx", type=int, default=2000)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--step", type=float, default=None, help="snapshot spacing (s)")
    p.add_argument("--tol", type=float, default=1e-3, help="max relative error allowed")
    add_series_flags(p)

    p = sub.add_parser("monitor", help="replay a sensor stream through the decision flow")
    p.add_argument("scenario")
    p.add_argument("--stream", required=True)
    p.add_argument("--log", default=None, help="append events to this log file")
    p.add_argument("--rule", choices=[r.value for r in monitor_mod.FixationRule],
                   default=monitor_mod.FixationRule.GRID.value)
    p.add_argument("--eps-meas", type=float, default=detection.DEFAULT_EPS_MEAS)
    p.add_argument("--step", type=float, default=None, help="sampling step override (s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # each warning as one `warning: <message>` line, in this call only
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = parser.parse_args(argv)
            # looked up per call, so a rebound cmd_* (a tracing wrapper) is the one run
            return globals()[f"cmd_{args.command}"](args)
        except SystemExit2 as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_VALIDATION
        except (ValueError, OSError) as exc:  # ScenarioError and the stream errors too
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
