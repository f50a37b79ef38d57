"""Leak localisation toolkit for two-line parallel gas pipelines.

Simulates the rupture transient of the damaged line, localises the leak from
inlet/outlet pressure histories, separates accidents from technological
regime changes, and plans the valve isolation that reroutes gas through the
healthy line.
"""

from .detection import (
    DEFAULT_EPS_MEAS,
    PressureTrajectory,
    RatioPoint,
    RegimeBand,
    ThetaEstimate,
    Verdict,
    admissible_band,
    estimate_position,
    fixation_time,
    fixation_time_empirical,
    pressure_ratio,
    simulate_trajectory,
    theta_from_ratio,
)
from .isolation import (
    ConnectorValve,
    IsolationPlan,
    ValveLayout,
    build_isolation_plan,
)
from .model import (
    PIPELINE_A,
    PIPELINE_B,
    LeakScenario,
    PipelineSpec,
    SeriesConfig,
    SeriesPrecisionWarning,
    inlet_pressure,
    outlet_pressure,
    pressure_field,
    pressure_profile,
    steady_pressure,
    transient_pressure,
)
from .monitor import (
    EventKind,
    FixationRule,
    MonitorConfig,
    MonitorEvent,
    append_event_log,
    read_pressure_stream,
    run_monitor,
)
from .oracle import FdField, OracleReport, compare_with_series, fd_solve
from .scenario import RunWindow, Scenario, ScenarioError, load_scenario

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_EPS_MEAS", "PressureTrajectory", "RatioPoint", "RegimeBand", "ThetaEstimate",
    "Verdict", "admissible_band", "estimate_position", "fixation_time",
    "fixation_time_empirical", "pressure_ratio", "simulate_trajectory", "theta_from_ratio",
    "ConnectorValve", "IsolationPlan", "ValveLayout", "build_isolation_plan",
    "PIPELINE_A", "PIPELINE_B", "LeakScenario", "PipelineSpec", "SeriesConfig",
    "SeriesPrecisionWarning", "inlet_pressure",
    "outlet_pressure", "pressure_field", "pressure_profile", "steady_pressure",
    "transient_pressure", "EventKind", "FixationRule", "MonitorConfig", "MonitorEvent",
    "append_event_log", "read_pressure_stream", "run_monitor", "FdField",
    "OracleReport", "compare_with_series", "fd_solve", "RunWindow", "Scenario",
    "ScenarioError", "load_scenario",
]
