"""Valve selection for isolating a located rupture.

A two-line system carries shut-off valves along each line and valves on the
connectors joining the lines.  In the stationary regime line valves are open
and connector valves closed.  After a rupture is localised, the two line
valves bracketing the estimate are closed and the nearest connectors outside
the isolated span are opened so consumers keep receiving gas through the
healthy line.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass


@dataclass(frozen=True)
class ConnectorValve:
    position: float
    valve_id: str


@dataclass(frozen=True)
class ValveLayout:
    """Line-valve positions (m, must include 0 and L) plus connector valves."""

    line_valves: tuple[float, ...]
    connector_valves: tuple[ConnectorValve, ...] = ()

    def __post_init__(self):
        positions = tuple(float(p) for p in self.line_valves)
        object.__setattr__(self, "line_valves", positions)
        if len(positions) < 2:
            raise ValueError("need at least the two end valves")
        if not all(b > a for a, b in zip(positions, positions[1:])):
            raise ValueError("line valve positions must be strictly increasing")
        if positions[0] != 0.0:
            raise ValueError("first line valve must sit at 0")
        length = positions[-1]
        for c in self.connector_valves:
            if not 0 <= c.position <= length:
                raise ValueError(f"connector {c.valve_id} at {c.position:.6g} outside [0, {length:.6g}]")
        ids = [c.valve_id for c in self.connector_valves]
        if len(set(ids)) != len(ids):
            raise ValueError("connector ids must be unique")

    @property
    def length(self) -> float:
        return self.line_valves[-1]

    def check_against(self, spec) -> None:
        """Reject a layout whose last valve is not at the end of pipeline spec."""
        if abs(self.length - spec.length) > 1e-6 * spec.length:
            raise ValueError(f"last valve at {self.length:.6g} m must sit at the "
                             f"pipeline end {spec.length:.6g} m")


@dataclass(frozen=True)
class IsolationPlan:
    """Valve actions as a diff against the stationary regime state."""

    close: tuple[float, float]        # bracketing line-valve positions: the isolated span
    open: tuple[str, ...]             # connector ids to open
    partial: bool = False             # True when a side has no usable connector

    def __post_init__(self):
        l1, l3 = self.close
        if not l1 < l3:
            raise ValueError("isolated span must be non-empty")


def bounding_valves(layout: ValveLayout, ell2_est: float) -> tuple[float, float]:
    """Adjacent line valves bracketing the estimate.

    An estimate landing exactly on an interior valve widens to that valve's
    two neighbours: with a few-percent localisation error either side is
    plausible, so the conservative span is taken.
    """
    if not 0 < ell2_est < layout.length:
        raise ValueError(
            f"ell2_est = {ell2_est:.6g} must lie strictly inside (0, {layout.length:.6g})"
        )
    positions = layout.line_valves
    i = bisect_left(positions, ell2_est)
    if positions[i] == ell2_est:
        return positions[i - 1], positions[i + 1]
    return positions[i - 1], positions[i]


def build_isolation_plan(layout: ValveLayout, ell2_est: float) -> IsolationPlan:
    """Close the bracketing valves, open the nearest connectors outside them.

    The plan is flagged partial when rerouting is incomplete: either a side
    with pipe beyond its closed valve has no connector out there to feed it,
    or no connector can be opened at all (pure end-segment isolation).
    """
    l1, l3 = bounding_valves(layout, ell2_est)
    left = [c for c in layout.connector_valves if c.position <= l1]
    right = [c for c in layout.connector_valves if c.position >= l3]
    to_open = []
    if left:
        to_open.append(max(left, key=lambda c: c.position).valve_id)
    if right:
        to_open.append(min(right, key=lambda c: c.position).valve_id)
    stranded = (l1 > 0 and not left) or (l3 < layout.length and not right)
    return IsolationPlan(close=(l1, l3), open=tuple(to_open),
                         partial=stranded or not to_open)

