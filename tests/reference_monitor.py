"""Per-sample reference implementations of the stream reader and monitor.

`reference_read_pressure_stream` parses one line at a time with `float`, and
`reference_run_monitor` replays one sample at a time with no precomputed
masks, through its own copy of the empirical rule fed one RatioPoint at a
time.  The tests require `leakline.monitor` to give the same rows, events
and exceptions (type and text) as these.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator

from leakline.detection import (
    RatioPoint,
    Verdict,
    estimate_from_ratio,
    fixation_time,
    ratio_from_deviations,
)
from leakline.isolation import build_isolation_plan
from leakline.monitor import (
    BASELINE_SAMPLES,
    EventKind,
    FixationRule,
    MonitorConfig,
    MonitorEvent,
    StreamFormatError,
    StreamOrderError,
)


class EmpiricalFixation:
    """Streaming empirical rule, fed one ratio point at a time.

    A defined point is fixed once a sample at or after t + window has
    arrived, provided at least one defined point lies in (t, t + window] and
    none of those exceeds its |p - 1|.  The earliest such point wins.
    """

    def __init__(self, window: float):
        self.window = window
        self._open: deque[RatioPoint] = deque()

    def push(self, rp: RatioPoint) -> RatioPoint | None:
        """Feed the next point (times strictly increasing); returns the point
        fixed by this arrival, if any."""
        open_ = self._open
        if rp.defined:
            if open_ and rp.t > open_[-1].t + self.window:
                open_.pop()  # its window closes with no defined point
            while (open_ and abs(open_[-1].p - 1.0) < abs(rp.p - 1.0)
                   and rp.t <= open_[-1].t + self.window):
                open_.pop()
            open_.append(rp)
        fixed = None
        while open_ and open_[0].t + self.window <= rp.t:
            point = open_.popleft()
            if fixed is None and open_:
                fixed = point
        return fixed


def reference_read_pressure_stream(path: str | Path) -> Iterator[tuple[float, float, float]]:
    """Parse a `t_seconds,p_inlet_pa,p_outlet_pa` CSV (header required)."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline()
        if [c.strip() for c in header.strip().split(",")] != [
                "t_seconds", "p_inlet_pa", "p_outlet_pa"]:
            raise StreamFormatError(1, "expected header 't_seconds,p_inlet_pa,p_outlet_pa'")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise StreamFormatError(line_no, f"expected 3 fields, got {len(parts)}")
            try:
                yield float(parts[0]), float(parts[1]), float(parts[2])
            except ValueError as exc:
                raise StreamFormatError(line_no, str(exc)) from None


def reference_run_monitor(cfg: MonitorConfig,
                stream: Iterable[tuple[float, float, float]]) -> list[MonitorEvent]:
    """Replay a stream and return the ordered decision events.

    The episode clock is anchored at the last sample before the first
    measurable deviation (the earliest instant the rupture can have
    happened), so a grid-rule verdict lands at onset + fixation_time.  A
    non-finite or non-positive reading yields a DataQuality event and is
    left out of the baseline, the episode clock and the fixation rule.
    """
    events: list[MonitorEvent] = []
    baseline_buf: list[tuple[float, float, float]] = []
    baseline: tuple[float, float] | None = None
    prev_t: float | None = None
    prev_quiet_t: float | None = None
    t_onset: float | None = None    # set while an episode is open
    empirical: EmpiricalFixation | None = None
    done = False
    rearm_pending = False
    quiet_since: float | None = None
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

    for t, p_in, p_out in stream:
        if prev_t is not None and not prev_t < t < math.inf:  # also catches NaN
            raise StreamOrderError(f"timestamp {t:.6g} is not a finite time after "
                                   f"{prev_t:.6g}; episode aborted")
        if prev_t is not None and t - prev_t > 2.0 * cfg.sampling_step:
            emit(t, EventKind.DATA_QUALITY,
                 warning=f"gap {t - prev_t:.6g} s exceeds twice the sampling step")
        prev_t = t
        if not (0 < p_in < math.inf and 0 < p_out < math.inf):  # also false for NaN
            emit(t, EventKind.DATA_QUALITY,
                 warning=f"invalid reading p_inlet={p_in:.6g} p_outlet={p_out:.6g}; "
                         "sample skipped")
            continue

        if baseline is None:
            baseline_buf.append((t, p_in, p_out))
            if len(baseline_buf) == BASELINE_SAMPLES:
                baseline = (statistics.median(s[1] for s in baseline_buf),
                            statistics.median(s[2] for s in baseline_buf))
                emit(t, EventKind.BASELINE, p_inlet=baseline[0], p_outlet=baseline[1],
                     n_samples=BASELINE_SAMPLES)
                prev_quiet_t = t
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
                continue

        tau = t - t_onset
        rp = ratio_from_deviations(dev_in, dev_out, tau, cfg.eps_meas)
        if cfg.fixation_rule is FixationRule.GRID:
            fixed = rp if tau >= t_fix_target else None
        else:
            fixed = empirical.push(rp)

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
    return events
