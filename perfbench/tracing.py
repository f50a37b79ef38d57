"""Layer tracing for the benchmark, done from the outside.

`Tracer.install()` rebinds each public layer function in every `leakline.*`
namespace that binds it, so calls made through any import path are seen;
`uninstall()` puts the originals back, which keeps untraced passes free of
any wrapper.  Spans (id, name, start, end, parent id, operation id) stay in
memory until `write_spans` dumps them as JSON lines.  A span's self time is
its duration minus the time covered by its child spans; calls are sequential
in one thread, so children never overlap.
"""

from __future__ import annotations

import json
import math
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

# (module, function, span name) for every wrapped layer function.  The three
# point evaluators share one span name; nested point evaluations (inlet ->
# transient) collapse into the outermost one.
TIMED = [
    ("oracle", "fd_solve", "oracle.fd_solve"),
    ("oracle", "compare_with_series", "oracle.compare_with_series"),
    ("model", "series_tail", "model.series_tail"),
    ("model", "inlet_pressure", "model.point_eval"),
    ("model", "outlet_pressure", "model.point_eval"),
    ("model", "transient_pressure", "model.point_eval"),
    ("model", "pressure_profile", "model.pressure_profile"),
    ("detection", "simulate_trajectory", "detection.simulate_trajectory"),
    ("detection", "pressure_ratio", "detection.pressure_ratio"),
    ("detection", "fixation_time_empirical", "detection.fixation_time_empirical"),
    ("detection", "estimate_position", "detection.estimate_position"),
    ("monitor", "read_pressure_stream", "monitor.read_pressure_stream"),
    ("monitor", "run_monitor", "monitor.run_monitor"),
    ("monitor", "format_event", "monitor.format_event"),
    ("isolation", "build_isolation_plan", "isolation.build_isolation_plan"),
    ("scenario", "load_scenario", "scenario.load_scenario"),
    ("cli", "cmd_simulate", "cli.cmd_simulate"),
    ("cli", "cmd_locate", "cli.cmd_locate"),
    ("cli", "cmd_curves", "cli.cmd_curves"),
    ("cli", "cmd_verify", "cli.cmd_verify"),
    ("cli", "cmd_monitor", "cli.cmd_monitor"),
]
# Counted, not timed: called once per sample, a span would cost more than it.
COUNTED = [("detection", "ratio_from_deviations", "detection.ratio_from_deviations")]
_END = object()
VERDICT_KINDS = ("Accident", "Technological", "Indeterminate")
SCALING = ("detection.fixation_empirical_scaling_exp", "monitor.grid_scaling_exp",
           "monitor.empirical_scaling_exp")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in dict.fromkeys(name for _, _, name in TIMED):
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.errors": "count"})
        if name == "oracle.compare_with_series":
            units["oracle.snapshots"] = "count"
        elif name == "model.pressure_profile":
            units.update({"model.points": "count", "model.precision_warnings": "count"})
        elif name == "detection.estimate_position":
            units["detection.ratio_from_deviations.calls"] = "count"
        elif name == "monitor.format_event":
            units["monitor.samples"] = "count"
            units.update({f"monitor.verdicts.{k}": "count" for k in VERDICT_KINDS})
    units.update({name: "1" for name in SCALING})
    units["trace.overhead_s"] = "s"
    return units


class _Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "child", "error")

    def __init__(self, sid, name, parent, op):
        self.id, self.name, self.parent, self.op = sid, name, parent, op
        self.start = self.end = self.child = 0.0
        self.error = False


class _CountingWarnings:
    """Stands in for `warnings` inside leakline.model to count every warning
    the series raises, including repeats the default filter would hide."""

    def __init__(self, tracer):
        self._tracer = tracer

    def warn(self, message, category=UserWarning, stacklevel=1, **kw):
        self._tracer.counts["model.precision_warnings"] += 1
        warnings.warn(message, category, stacklevel=stacklevel + 1, **kw)

    def __getattr__(self, attr):
        return getattr(warnings, attr)


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.pass_start = 0
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        span = _Span(len(self.spans), name, parent, self.op)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child += span.end - span.start

    def _timed(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            top = tracer.stack[-1].name if tracer.stack else None
            if top == name:
                return fn(*args, **kwargs)   # nested evaluation of the same layer
            tracer.counts[name + ".calls"] += 1
            return tracer._call(name, fn, args, kwargs)
        return wrapper

    def _profile(self, name, fn):
        timed = self._timed(name, fn)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts["model.points"] += len(args[3] if len(args) > 3 else kwargs["xs"])
            if tracer.stack and tracer.stack[-1].name == "model.point_eval":
                return fn(*args, **kwargs)   # part of a point evaluation
            return timed(*args, **kwargs)
        return wrapper

    def _stream(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            it = iter(fn(*args, **kwargs))
            while True:
                row = tracer._call(name, next, (it, _END), {})
                if row is _END:
                    return
                tracer.counts["monitor.samples"] += 1
                yield row
        return wrapper

    def _with_post(self, name, fn, post):
        timed = self._timed(name, fn)

        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            post(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _post_fd(self, field):
        self.counts["oracle.snapshots"] += len(field.times)

    def _post_monitor(self, events):
        for ev in events:
            if getattr(ev.kind, "value", None) == "Verdict":
                verdict = ev.payload.get("verdict")
                self.counts["monitor.verdicts." + str(getattr(verdict, "value", verdict))] += 1

    def _wrapper_for(self, func, name, orig):
        if func == "pressure_profile":
            return self._profile(name, orig)
        if func == "read_pressure_stream":
            return self._stream(name, orig)
        if func == "fd_solve":
            return self._with_post(name, orig, self._post_fd)
        if func == "run_monitor":
            return self._with_post(name, orig, self._post_monitor)
        return self._timed(name, orig)

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Rebind every layer function in each leakline namespace binding it."""
        spaces = [m for k, m in sorted(sys.modules.items())
                  if m is not None and (k == "leakline" or k.startswith("leakline."))]
        self.absent = []
        for table, counted in ((TIMED, False), (COUNTED, True)):
            for mod, func, name in table:
                home = sys.modules.get(f"leakline.{mod}")
                orig = getattr(home, func, None) if home is not None else None
                if orig is None:
                    self.absent.append(f"{mod}.{func}")
                    continue
                wrapper = (self._counted(name, orig) if counted
                           else self._wrapper_for(func, name, orig))
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is orig:
                            self._saved.append((space, attr, orig))
                            setattr(space, attr, wrapper)
        model = sys.modules.get("leakline.model")
        if model is not None and getattr(model, "warnings", None) is warnings:
            self._saved.append((model, "warnings", warnings))
            model.warnings = _CountingWarnings(self)

    def uninstall(self) -> None:
        for space, attr, orig in reversed(self._saved):
            setattr(space, attr, orig)
        self._saved.clear()

    # -- results ----------------------------------------------------------
    def begin_pass(self) -> None:
        """Start a new pass: counters restart, earlier spans are kept."""
        self.pass_start = len(self.spans)
        self.counts.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over the spans of the current pass."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans[self.pass_start:]:
            out[span.name + ".self_s"] += (span.end - span.start) - span.child
            if span.error:
                out[span.name + ".errors"] += 1
        for key, value in self.counts.items():
            out[key] += value
        units = metric_units()
        present = {name for mod, func, name in TIMED + COUNTED
                   if f"{mod}.{func}" not in self.absent}
        missing = {f"{name}.{suffix}" for _, _, name in TIMED + COUNTED
                   if name not in present for suffix in ("calls", "self_s", "errors")}
        return {k: float(out.get(k, 0.0)) for k in units
                if k not in missing and k not in SCALING and k != "trace.overhead_s"}

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end,
                                     s.parent.id if s.parent is not None else None,
                                     s.op, s.error]) + "\n")


def loglog_slope(sizes: list[float], times: list[float]) -> float:
    """Least-squares exponent k of time ~ size^k; 0 without two distinct sizes."""
    pts = [(math.log(n), math.log(t)) for n, t in zip(sizes, times) if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
