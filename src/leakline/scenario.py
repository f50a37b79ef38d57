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
    variant = reconciled            # or as_printed

    [valves]                        # optional; needed for isolation plans
    line = 0, 1e4, 2e4, ..., 10e4   # positions incl. both ends
    connectors = c1:1.5e4, c2:8.5e4 # id:position pairs

    [run]                           # optional; needed for time sweeps
    t_start = 100
    t_end = 900
    step = 100

Every module-level invariant is re-validated at parse time and reported with
its section.key path.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .isolation import ConnectorValve, ValveLayout
from .model import LeakScenario, PipelineSpec, SeriesConfig, Variant


class ScenarioError(ValueError):
    """Validation failure with a field-precise location."""

    def __init__(self, where: str, message: str):
        self.where = where
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

    def times(self) -> list[float]:
        out = []
        t = self.t_start
        while t <= self.t_end + 1e-9:
            out.append(round(t, 9))
            t += self.step
        return out


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


def _get_float(section, sec_name: str, key: str, *, required: bool = True,
               default: float | None = None) -> float | None:
    if key not in section:
        if required:
            raise ScenarioError(f"[{sec_name}].{key}", "missing required key")
        return default
    raw = section[key]
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"[{sec_name}].{key}", f"not a number: {raw!r}") from None


def _get_int(section, sec_name: str, key: str, default: int) -> int:
    if key not in section:
        return default
    raw = section[key]
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"[{sec_name}].{key}", f"not an integer: {raw!r}") from None


def _parse_positions(raw: str, where: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ScenarioError(where, str(exc)) from None


def _parse_connectors(raw: str, where: str) -> list[ConnectorValve]:
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise ScenarioError(where, f"expected id:position, got {tok!r}")
        valve_id, pos = tok.split(":", 1)
        try:
            out.append(ConnectorValve(position=float(pos), valve_id=valve_id.strip()))
        except ValueError:
            raise ScenarioError(where, f"bad connector position in {tok!r}") from None
    return out


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

    if "pipeline" not in parser:
        raise ScenarioError("[pipeline]", "missing required section")
    sec = parser["pipeline"]
    try:
        spec = PipelineSpec(
            p_inlet_0=_get_float(sec, "pipeline", "p1"),
            p_outlet_0=_get_float(sec, "pipeline", "p2"),
            length=_get_float(sec, "pipeline", "length"),
            g0=_get_float(sec, "pipeline", "g0"),
            sound_speed=_get_float(sec, "pipeline", "c"),
            two_a=_get_float(sec, "pipeline", "two_a"),
        )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError("[pipeline]", str(exc)) from None

    leak = None
    if "leak" in parser:
        sec = parser["leak"]
        ell2 = _get_float(sec, "leak", "ell2")
        g_leak = _get_float(sec, "leak", "g_leak", required=False, default=spec.g0)
        try:
            leak = LeakScenario(ell2=ell2, g_leak=g_leak)
            leak.check_against(spec)
        except ValueError as exc:
            raise ScenarioError("[leak]", str(exc)) from None

    series = SeriesConfig()
    if "series" in parser:
        sec = parser["series"]
        variant_raw = sec.get("variant", Variant.RECONCILED.value)
        try:
            variant = Variant(variant_raw)
        except ValueError:
            raise ScenarioError("[series].variant",
                                f"must be one of {[v.value for v in Variant]}, "
                                f"got {variant_raw!r}") from None
        try:
            series = SeriesConfig(
                n_max=_get_int(sec, "series", "n_max", 64),
                tail_tol=_get_float(sec, "series", "tail_tol", required=False, default=1.0),
                variant=variant,
            )
        except ValueError as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError("[series]", str(exc)) from None

    layout = None
    if "valves" in parser:
        sec = parser["valves"]
        if "line" not in sec:
            raise ScenarioError("[valves].line", "missing required key")
        positions = _parse_positions(sec["line"], "[valves].line")
        connectors = _parse_connectors(sec.get("connectors", ""), "[valves].connectors")
        try:
            layout = ValveLayout(line_valves=tuple(positions),
                                 connector_valves=tuple(connectors))
        except ValueError as exc:
            raise ScenarioError("[valves]", str(exc)) from None
        if abs(layout.length - spec.length) > 1e-6 * spec.length:
            raise ScenarioError("[valves].line",
                                f"last valve at {layout.length:.6g} m must sit at the "
                                f"pipeline end {spec.length:.6g} m")

    run = None
    if "run" in parser:
        sec = parser["run"]
        try:
            run = RunWindow(
                t_start=_get_float(sec, "run", "t_start", required=False, default=0.0),
                t_end=_get_float(sec, "run", "t_end"),
                step=_get_float(sec, "run", "step", required=False, default=60.0),
            )
        except ValueError as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError("[run]", str(exc)) from None

    return Scenario(name=path.stem, spec=spec, leak=leak, series=series,
                    layout=layout, run=run)
