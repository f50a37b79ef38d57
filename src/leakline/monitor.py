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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .detection import (
    DEFAULT_EPS_MEAS,
    EmpiricalFixation,
    RatioPoint,
    Verdict,
    _number_triples,
    defined_ratio,
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
        for name in ("sampling_step", "eps_meas"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be > 0 and finite")
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


def run_monitor(cfg: MonitorConfig,
                stream: np.ndarray | Iterable[tuple[float, float, float]]) -> list[MonitorEvent]:
    """Replay a stream and return the ordered decision events.

    The episode clock is anchored at the last sample before the first
    measurable deviation (the earliest instant the rupture can have
    happened), so a grid-rule verdict lands at onset + fixation_time.  A
    non-finite or non-positive reading yields a DataQuality event and is
    left out of the baseline, the episode clock and the fixation rule.

    `stream` is an (n, 3) array of (t, p_inlet, p_outlet) rows or any
    iterable of such triples of numbers (else ValueError).  The samples up
    to the first out-of-order timestamp are replayed before StreamOrderError
    is raised.
    """
    rows = _number_triples(stream if isinstance(stream, np.ndarray) else list(stream), "stream")
    ts, p_ins, p_outs = rows.T
    with np.errstate(invalid="ignore", over="ignore"):
        disorder = np.flatnonzero(~((ts[:-1] < ts[1:]) & (ts[1:] < math.inf)))
        stop = int(disorder[0]) + 1 if len(disorder) else len(rows)
        gap = np.zeros(stop, dtype=bool)
        gap[1:] = np.diff(ts[:stop]) > 2.0 * cfg.sampling_step
    p_ins, p_outs = p_ins[:stop], p_outs[:stop]
    invalid = ~((0 < p_ins) & (p_ins < math.inf) & (0 < p_outs) & (p_outs < math.inf))

    quality = []  # (sample index, event), as are the decisions
    for i in np.flatnonzero(gap | invalid).tolist():
        t, p_in, p_out = rows[i].tolist()
        if gap[i]:
            quality.append((i, MonitorEvent(t, EventKind.DATA_QUALITY, {
                "warning": f"gap {t - ts[i - 1]:.6g} s exceeds twice the sampling step"})))
        if invalid[i]:
            quality.append((i, MonitorEvent(t, EventKind.DATA_QUALITY, {
                "warning": f"invalid reading p_inlet={p_in:.6g} p_outlet={p_out:.6g}; "
                           "sample skipped"})))
    first = np.flatnonzero(~invalid)[:BASELINE_SAMPLES].tolist()
    decisions = (_decisions(cfg, rows[:stop], invalid, first)
                 if len(first) == BASELINE_SAMPLES else [])
    if stop < len(rows):
        raise StreamOrderError(f"timestamp {ts[stop]:.6g} is not a finite time after "
                               f"{ts[stop - 1]:.6g}; episode aborted")
    # a stable sort: each sample's DataQuality events come before its decisions
    return [event for _, event in sorted(quality + decisions, key=lambda pair: pair[0])]


def _decisions(cfg: MonitorConfig, rows: np.ndarray, invalid: np.ndarray,
               first: list[int]) -> list[tuple[int, MonitorEvent]]:
    """The Baseline event from the valid samples `first`, then the events of
    each episode, keyed by sample index.  An episode opens at a deviating
    sample while the monitor is armed and is decided from its own samples."""
    ts = rows[:, 0]
    stop = len(rows)
    b = first[-1]
    mid = BASELINE_SAMPLES // 2  # the median, as the count is odd
    base_in = sorted(rows[first, 1].tolist())[mid]
    base_out = sorted(rows[first, 2].tolist())[mid]
    eps = cfg.eps_meas
    dev_ins, dev_outs = base_in - rows[:, 1], base_out - rows[:, 2]
    quiet = (-eps < dev_ins) & (dev_ins < eps) & (-eps < dev_outs) & (dev_outs < eps)
    deviating = ~(quiet | invalid)
    deviating[:b + 1] = False
    starts = np.flatnonzero(deviating)  # the samples an armed monitor opens an episode at
    t_fix_target = fixation_time(cfg.spec, cfg.sampling_step)
    grid = cfg.fixation_rule is FixationRule.GRID
    events = []

    def emit(i, kind, **payload):
        events.append((i, MonitorEvent(t=float(ts[i]), kind=kind, payload=payload)))

    def decide(k, rp, t_onset):
        """Emit the Fixation at sample k, its Verdict and the plan (or the
        no-layout DataQuality); returns the verdict."""
        emit(k, EventKind.FIXATION, tau=rp.t, t_onset=t_onset, rule=cfg.fixation_rule)
        est = estimate_from_ratio(cfg.spec, rp)
        payload = {"verdict": est.verdict, "t_onset": t_onset, "tau": rp.t, "p": rp.p}
        if est.theta is not None:
            payload.update(theta=est.theta, theta_raw=est.theta_raw,
                           ell2_est=est.ell2_est,
                           orientation=("inlet-half" if est.theta < 0.5
                                        else "midpoint" if est.theta == 0.5
                                        else "outlet-half"))
        emit(k, EventKind.VERDICT, **payload)
        if est.verdict is Verdict.ACCIDENT:
            if cfg.layout is not None:
                plan = build_isolation_plan(cfg.layout, est.ell2_est)
                emit(k, EventKind.PLAN_ISSUED, close=plan.close,
                     open=plan.open, span=plan.close, partial=plan.partial)
            else:
                emit(k, EventKind.DATA_QUALITY,
                     warning="no valve layout configured; plan skipped")
        return est.verdict

    def episode(j, t_onset):
        """Walk the episode opened at sample j: fix a ratio under the
        configured rule and decide it, then wait for one quiet fixation
        interval (a deviation restarts its clock).  Returns the sample the
        monitor re-arms at, or None after an Accident or at the stream's end."""
        p_in, p_out = rows[j, 1:].tolist()
        emit(j, EventKind.DEVIATION_DETECTED, dev_inlet=base_in - p_in,
             dev_outlet=base_out - p_out, t_onset=t_onset)
        empirical = None if grid else EmpiricalFixation(cfg.sampling_step)
        fixed = quiet_since = None
        # read as Python floats in slices that double, so an episode
        # converts at most twice the samples it walks
        start, size = j, 16
        while start < stop:
            end = min(stop, start + size)
            for k, (t, p_in, p_out), bad, dev in zip(
                    range(start, end), rows[start:end].tolist(),
                    invalid[start:end].tolist(), deviating[start:end].tolist()):
                if bad:
                    continue
                if fixed is None:
                    tau = t - t_onset
                    if not grid:
                        if point := empirical.push(tau, defined_ratio(
                                base_in - p_in, base_out - p_out, eps)):
                            fixed = RatioPoint(t=point[0], p=point[1], defined=True)
                    elif tau >= t_fix_target:
                        fixed = ratio_from_deviations(base_in - p_in, base_out - p_out, tau, eps)
                    if fixed is None:
                        continue
                    if decide(k, fixed, t_onset) is Verdict.ACCIDENT:
                        return None
                # decided: wait for one quiet fixation interval from this sample on
                if dev:
                    quiet_since = None
                elif quiet_since is None:
                    quiet_since = t
                elif t - quiet_since >= t_fix_target:  # > 0, so never at a run's first sample
                    return k + 1
            start, size = end, 2 * size
        return None

    events.append((b, MonitorEvent(float(ts[b]), EventKind.BASELINE, {
        "p_inlet": base_in, "p_outlet": base_out, "n_samples": BASELINE_SAMPLES})))
    armed = b + 1
    while armed is not None and (n := int(np.searchsorted(starts, armed))) < len(starts):
        j = int(starts[n])
        onset = j - 1  # the valid sample before j: the baseline one at the earliest
        while invalid[onset]:
            onset -= 1
        armed = episode(j, float(ts[onset]))
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
