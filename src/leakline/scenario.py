"""Scenario file ingestion.

Scenarios are section/key-value text files (configparser syntax):

    [pipeline]                      # required
    p1 = 55e4          # steady inlet pressure, Pa
    p2 = 25e4          # steady outlet pressure, Pa
    length = 10e4      # m
    g0 = 30            # steady linearised mass flux, Pa*s/m
    c = 383.3          # sound speed, m/s
    two_a = 0.1        # friction linearisation, 1/s

    [leak]                          # required for simulation commands
    ell2 = 0.5e4       # rupture position, m
    g_leak = 30        # optional, defaults to g0

    [series]                        # optional
    n_max = 64
    tail_tol = 1.0
    variant = reconciled            # optional; the only accepted value

    [valves]                        # optional; needed for isolation plans
    line = 0, 1e4, 2e4, ..., 10e4   # positions incl. both ends
    connectors = c1:1.5e4, c2:8.5e4 # id:position pairs

    [run]                           # optional; needed for time sweeps
    t_start = 100
    t_end = 900
    step = 100

Every module-level constraint is re-validated at parse time and reported with
its section.key path.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .isolation import ConnectorValve, ValveLayout
from .model import LeakScenario, PipelineSpec, SeriesConfig


class ScenarioError(ValueError):
    """Validation failure with a field-precise location."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class RunWindow:
    t_start: float
    t_end: float
    step: float

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be > 0")
        if not self.t_start >= 0:
            raise ValueError("t_start must be >= 0")
        if not self.t_start <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and >= t_start")
        if self.step == math.inf:
            raise ValueError("step must be finite")
        if self.step < 1e-9:
            raise ValueError(f"step must be >= 1e-9 s, the resolution times are rounded to, "
                             f"got {self.step:g}")

    def times(self) -> list[float]:
        """t_start + k * step for k = 0, 1, ... up to t_end, rounded to 1e-9 s."""
        n = math.floor((self.t_end - self.t_start) / self.step + 1e-9)  # t_end up to round-off
        return [round(self.t_start + k * self.step, 9) for k in range(n + 1)]


@dataclass(frozen=True)
class Scenario:
    name: str
    spec: PipelineSpec
    leak: LeakScenario | None
    series: SeriesConfig
    layout: ValveLayout | None
    run: RunWindow | None

    def require_leak(self) -> LeakScenario:
        if self.leak is None:
            raise ScenarioError("[leak]", "section required for this command")
        return self.leak

    def require_run(self) -> RunWindow:
        if self.run is None:
            raise ScenarioError("[run]", "section required for this command")
        return self.run

    def require_layout(self) -> ValveLayout:
        if self.layout is None:
            raise ScenarioError("[valves]", "section required for this command")
        return self.layout


def _number(section, sec_name: str, key: str, kind=float, default=None):
    """section[key] converted by kind; default when absent, required if None.

    A missing required key, a bad %-interpolation or a value kind rejects
    raises a ScenarioError at [sec_name].key.  A kind other than float or int
    words its own ValueError.
    """
    where = f"[{sec_name}].{key}"
    if key not in section:
        if default is None:
            raise ScenarioError(where, "missing required key")
        return default
    try:
        raw = section[key]
    except configparser.InterpolationError as exc:
        raise ScenarioError(where, f"bad interpolation: {exc}") from None
    try:
        return kind(raw)
    except ValueError as exc:
        noun = {float: "a number", int: "an integer"}.get(kind)
        raise ScenarioError(where, f"not {noun}: {raw!r}" if noun else str(exc)) from None


def _build(where: str, make, *args):
    """make(*args), with a ValueError it raises reported at where."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ScenarioError(where, str(exc)) from None


def _connectors(raw: str) -> tuple[ConnectorValve, ...]:
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise ValueError(f"expected id:position, got {tok!r}")
        valve_id, pos = tok.split(":", 1)
        try:
            out.append(ConnectorValve(position=float(pos), valve_id=valve_id.strip()))
        except ValueError:
            raise ValueError(f"bad connector position in {tok!r}") from None
    return tuple(out)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except FileNotFoundError:
        raise ScenarioError(str(path), "scenario file not found") from None
    except configparser.Error as exc:
        raise ScenarioError(str(path), f"parse error: {exc}") from None

    # Every value is fetched before its section is built, so _build only ever
    # sees the model's own ValueErrors.
    if "pipeline" not in parser:
        raise ScenarioError("[pipeline]", "missing required section")
    sec = parser["pipeline"]
    spec = _build("[pipeline]", PipelineSpec, *[_number(sec, "pipeline", key) for key in
                                                ("p1", "p2", "length", "g0", "c", "two_a")])

    leak = None
    if "leak" in parser:
        sec = parser["leak"]
        leak = _build("[leak]", LeakScenario, _number(sec, "leak", "ell2"),
                      _number(sec, "leak", "g_leak", default=spec.g0))
        _build("[leak]", leak.check_against, spec)

    series = SeriesConfig()
    if "series" in parser:
        sec = parser["series"]
        # one formulation; the key stays accepted because scenario files name it
        variant = _number(sec, "series", "variant", str, "reconciled")
        if variant != "reconciled":
            raise ScenarioError("[series].variant", f"must be 'reconciled', got {variant!r}")
        series = _build("[series]", SeriesConfig, _number(sec, "series", "n_max", int, 64),
                        _number(sec, "series", "tail_tol", default=1.0))

    layout = None
    if "valves" in parser:
        sec = parser["valves"]
        positions = _number(sec, "valves", "line",
                            lambda raw: tuple(float(tok) for tok in raw.split(",") if tok.strip()))
        layout = _build("[valves]", ValveLayout, positions,
                        _number(sec, "valves", "connectors", _connectors, default=()))
        _build("[valves].line", layout.check_against, spec)

    run = None
    if "run" in parser:
        sec = parser["run"]
        run = _build("[run]", RunWindow, _number(sec, "run", "t_start", default=0.0),
                     _number(sec, "run", "t_end"), _number(sec, "run", "step", default=60.0))

    return Scenario(name=path.stem, spec=spec, leak=leak, series=series,
                    layout=layout, run=run)
