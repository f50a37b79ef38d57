"""Stream replay of end-pressure sensors with the dispatcher decision flow.

A monitor consumes one timestamped stream per line: the first samples fix the
baseline end pressures, a deviation beyond the measurability floor opens an
episode, and at the configured fixation time the drop ratio is classified.
An Accident verdict yields a localisation estimate and a valve isolation
plan; a Technological verdict re-arms the monitor once the line settles.
Each line is monitored independently (a rupture on one line of the pair does
not disturb the other), so the damaged line identifies itself.
"""

from __future__ import annotations

import enum
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .detection import (
    DEFAULT_EPS_MEAS,
    EmpiricalFixation,
    Verdict,
    estimate_from_ratio,
    fixation_time,
    ratio_from_deviations,
)
from .isolation import ValveLayout, build_isolation_plan
from .model import PipelineSpec

BASELINE_SAMPLES = 5
LOG_HEADER = "t,kind,payload"


class FixationRule(str, enum.Enum):
    GRID = "grid"
    EMPIRICAL = "empirical"


class EventKind(str, enum.Enum):
    BASELINE = "Baseline"
    DATA_QUALITY = "DataQuality"
    DEVIATION_DETECTED = "DeviationDetected"
    FIXATION = "Fixation"
    VERDICT = "Verdict"
    PLAN_ISSUED = "PlanIssued"


class StreamFormatError(ValueError):
    """Malformed stream input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class StreamOrderError(ValueError):
    """Non-monotone timestamps; the stream cannot be replayed further."""


class EventLogError(OSError):
    """The log destination was not writable; in-memory events are intact."""


@dataclass(frozen=True)
class MonitorConfig:
    spec: PipelineSpec
    layout: ValveLayout | None = None
    sampling_step: float = 60.0
    eps_meas: float = DEFAULT_EPS_MEAS
    fixation_rule: FixationRule = FixationRule.GRID

    def __post_init__(self):
        if not self.sampling_step > 0:
            raise ValueError("sampling_step must be > 0")
        if not self.eps_meas > 0:
            raise ValueError("eps_meas must be > 0")
        if not isinstance(self.fixation_rule, FixationRule):
            object.__setattr__(self, "fixation_rule", FixationRule(self.fixation_rule))
        if self.layout is not None:
            self.layout.check_against(self.spec)


@dataclass(frozen=True)
class MonitorEvent:
    t: float
    kind: EventKind
    payload: dict = field(default_factory=dict)


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, tuple)):
        return "|".join(_fmt_value(x) for x in v)
    if isinstance(v, enum.Enum):
        return str(v.value)
    return str(v).replace(",", "_").replace(";", "_")


def format_event(event: MonitorEvent) -> str:
    payload = ";".join(f"{k}={_fmt_value(v)}" for k, v in sorted(event.payload.items()))
    return f"{event.t:.3f},{event.kind.value},{payload}"


def _check_header(fh) -> None:
    if [c.strip() for c in fh.readline().strip().split(",")] != [
            "t_seconds", "p_inlet_pa", "p_outlet_pa"]:
        raise StreamFormatError(1, "expected header 't_seconds,p_inlet_pa,p_outlet_pa'")


def _read_rows(path: str | Path) -> list[tuple[float, float, float]]:
    """Line-by-line parse: accepts what `float` accepts, reports the first bad line."""
    rows = []
    with open(path, encoding="ascii") as fh:
        _check_header(fh)
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise StreamFormatError(line_no, f"expected 3 fields, got {len(parts)}")
            try:
                rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise StreamFormatError(line_no, str(exc)) from None
    return rows


def read_pressure_stream(path: str | Path) -> np.ndarray:
    """Parse a `t_seconds,p_inlet_pa,p_outlet_pa` CSV (header required) into
    an (n, 3) float array of (t, p_inlet, p_outlet) rows.

    The body is parsed in one NumPy pass.  A body NumPy rejects or reads to
    another shape is parsed again line by line, so the accepted input, the
    values and the StreamFormatError texts are those of `float` per field.
    """
    with open(path, encoding="ascii") as fh:
        _check_header(fh)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a body without rows
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # UnicodeDecodeError included
            rows = None
    if rows is None or rows.shape[1] != 3:
        rows = np.array(_read_rows(path), dtype=np.float64).reshape(-1, 3)
    return rows


def _after(indices: list[int], i: int, stop: int) -> int:
    """The first of the sorted `indices` beyond i, or stop if none is before it."""
    k = bisect_right(indices, i)
    return min(indices[k], stop) if k < len(indices) else stop


def run_monitor(cfg: MonitorConfig,
                stream: np.ndarray | Iterable[tuple[float, float, float]]) -> list[MonitorEvent]:
    """Replay a stream and return the ordered decision events.

    The episode clock is anchored at the last sample before the first
    measurable deviation (the earliest instant the rupture can have
    happened), so a grid-rule verdict lands at onset + fixation_time.  A
    non-finite or non-positive reading yields a DataQuality event and is
    left out of the baseline, the episode clock and the fixation rule.

    `stream` is an (n, 3) array of (t, p_inlet, p_outlet) rows or any
    iterable of such triples.  The samples up to the first out-of-order
    timestamp are replayed before StreamOrderError is raised.
    """
    rows = np.asarray(stream if isinstance(stream, np.ndarray) else list(stream),
                      dtype=np.float64)
    if rows.size == 0:
        rows = rows.reshape(0, 3)
    ts, p_ins, p_outs = rows.T
    with np.errstate(invalid="ignore", over="ignore"):
        steps = np.diff(ts)
        disorder = np.flatnonzero(~((ts[:-1] < ts[1:]) & (ts[1:] < math.inf)))
    stop = int(disorder[0]) + 1 if len(disorder) else len(rows)
    gap = np.zeros(len(rows), dtype=bool)
    gap[1:] = steps > 2.0 * cfg.sampling_step
    invalid = ~((0 < p_ins) & (p_ins < math.inf) & (0 < p_outs) & (p_outs < math.inf))
    # samples that emit a DataQuality event whatever the state
    flagged = np.flatnonzero(gap | invalid).tolist()
    wake: list[int] = []  # set with the baseline: the samples a quiet run ends at

    events: list[MonitorEvent] = []
    baseline_buf: list[tuple[float, float, float]] = []
    baseline: tuple[float, float] | None = None
    prev_quiet_t: float | None = None
    t_onset: float | None = None    # set while an episode is open
    empirical: EmpiricalFixation | None = None
    done = False
    rearm_pending = False
    quiet_since: float | None = None
    quiet_run = False  # armed and the last sample was quiet
    t_fix_target = fixation_time(cfg.spec, cfg.sampling_step)
    eps = cfg.eps_meas

    def emit(t, kind, **payload):
        events.append(MonitorEvent(t=t, kind=kind, payload=payload))

    def issue_verdict(t_abs, rp):
        est = estimate_from_ratio(cfg.spec, rp)
        payload = {"verdict": est.verdict, "t_onset": t_onset, "tau": rp.t, "p": rp.p}
        if est.theta is not None:
            payload.update(theta=est.theta, theta_raw=est.theta_raw,
                           ell2_est=est.ell2_est,
                           orientation=("inlet-half" if est.theta < 0.5
                                        else "midpoint" if est.theta == 0.5
                                        else "outlet-half"))
        emit(t_abs, EventKind.VERDICT, **payload)
        if est.verdict is Verdict.ACCIDENT:
            if cfg.layout is not None:
                plan = build_isolation_plan(cfg.layout, est.ell2_est)
                emit(t_abs, EventKind.PLAN_ISSUED, close=plan.close,
                     open=plan.open, span=plan.close, partial=plan.partial)
            else:
                emit(t_abs, EventKind.DATA_QUALITY,
                     warning="no valve layout configured; plan skipped")
        return est.verdict

    i = -1
    while True:
        if done:  # after an Accident only DataQuality events remain
            i = _after(flagged, i, stop)
        elif quiet_run:  # each quiet sample up to the next wake one only moves prev_quiet_t
            i = _after(wake, i, stop)
            prev_quiet_t = float(ts[i - 1])
        else:
            i += 1
        if i >= stop:
            break
        quiet_run = False
        t, p_in, p_out = rows[i].tolist()
        if gap[i]:
            emit(t, EventKind.DATA_QUALITY,
                 warning=f"gap {steps[i - 1]:.6g} s exceeds twice the sampling step")
        if invalid[i]:
            emit(t, EventKind.DATA_QUALITY,
                 warning=f"invalid reading p_inlet={p_in:.6g} p_outlet={p_out:.6g}; "
                         "sample skipped")
            continue

        if baseline is None:
            baseline_buf.append((t, p_in, p_out))
            if len(baseline_buf) == BASELINE_SAMPLES:
                mid = BASELINE_SAMPLES // 2  # the median, as the count is odd
                baseline = (sorted(s[1] for s in baseline_buf)[mid],
                            sorted(s[2] for s in baseline_buf)[mid])
                emit(t, EventKind.BASELINE, p_inlet=baseline[0], p_outlet=baseline[1],
                     n_samples=BASELINE_SAMPLES)
                prev_quiet_t = t
                quiet_run = True
                dev_ins, dev_outs = baseline[0] - p_ins, baseline[1] - p_outs
                quiet = ((-eps < dev_ins) & (dev_ins < eps)
                         & (-eps < dev_outs) & (dev_outs < eps) & ~invalid)
                wake = np.flatnonzero(~quiet | gap).tolist()
            continue
        if done:
            continue

        dev_in = baseline[0] - p_in
        dev_out = baseline[1] - p_out
        deviating = not (-eps < dev_in < eps and -eps < dev_out < eps)

        if t_onset is None:
            if rearm_pending:
                # stay disarmed until the line has been quiet for one full
                # fixation interval; any deviation restarts the quiet clock
                if deviating:
                    quiet_since = None
                else:
                    if quiet_since is None:
                        quiet_since = t
                    prev_quiet_t = t
                    if t - quiet_since >= t_fix_target:
                        rearm_pending = False
                continue
            if deviating:
                t_onset = prev_quiet_t if prev_quiet_t is not None else t - cfg.sampling_step
                empirical = EmpiricalFixation(cfg.sampling_step)
                emit(t, EventKind.DEVIATION_DETECTED, dev_inlet=dev_in,
                     dev_outlet=dev_out, t_onset=t_onset)
            else:
                prev_quiet_t = t
                quiet_run = True
                continue

        tau = t - t_onset
        if cfg.fixation_rule is FixationRule.GRID:
            fixed = (ratio_from_deviations(dev_in, dev_out, tau, eps)
                     if tau >= t_fix_target else None)
        else:
            fixed = empirical.push(ratio_from_deviations(dev_in, dev_out, tau, eps))

        if fixed is not None:
            emit(t, EventKind.FIXATION, tau=fixed.t, t_onset=t_onset,
                 rule=cfg.fixation_rule)
            verdict = issue_verdict(t, fixed)
            if verdict is Verdict.ACCIDENT:
                done = True
            else:
                rearm_pending = True
                quiet_since = None if deviating else t
                t_onset = None
    if stop < len(rows):
        raise StreamOrderError(f"timestamp {ts[stop]:.6g} is not a finite time after "
                               f"{ts[stop - 1]:.6g}; episode aborted")
    return events


def append_event_log(path: str | Path, events: list[MonitorEvent]) -> int:
    """Append events to a line-delimited log, writing the header when new.

    Returns the number of lines written.  On failure the events are left
    untouched in memory and an EventLogError is raised.
    """
    path = Path(path)
    try:
        new_file = not path.exists() or path.stat().st_size == 0
        with open(path, "a", encoding="ascii") as fh:
            if new_file:
                fh.write(LOG_HEADER + "\n")
            for event in events:
                fh.write(format_event(event) + "\n")
        return len(events) + new_file
    except OSError as exc:
        raise EventLogError(f"cannot write event log at {path}: {exc}") from exc
