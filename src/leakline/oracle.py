"""Finite-difference oracle for the transient model.

Solves the deviation problem u_t = (c^2/two_a) u_xx - c^2 g_leak delta(x-ell2)
with zero-flux ends and u(x,0)=0 on a cell-centred grid with explicit Euler
stepping, independently of the cosine series.  The point sink is spread over
the single cell containing the leak, which keeps the scheme exactly
mass-conservative: the cell sum drains by c^2 * g_leak per unit time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    LeakScenario,
    PipelineSpec,
    SeriesConfig,
    pressure_profile,
)

try:
    from numba import njit
except ImportError:  # pragma: no cover - numba is an optional accelerator
    njit = None

DEFAULT_SAFETY = 0.45


class UnstableGridError(ValueError):
    def __init__(self, dt: float, dt_stable: float):
        self.dt_stable = dt_stable
        super().__init__(
            f"dt = {dt:.6g} s unstable for explicit stepping; need dt <= {dt_stable:.6g} s"
        )


@dataclass(frozen=True)
class FdGrid:
    """Explicit-Euler grid: nx interior cells, step dt, horizon t_end."""

    nx: int
    dt: float
    t_end: float

    def __post_init__(self):
        if self.nx < 3:
            raise ValueError("nx must be >= 3")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be > 0")

    @staticmethod
    def stable_dt(spec: PipelineSpec, nx: int, safety: float = DEFAULT_SAFETY) -> float:
        if not 0 < safety <= 1:
            raise ValueError("safety must lie in (0, 1]")
        dx = spec.length / nx
        return safety * dx * dx / (2.0 * spec.diffusivity)

    @classmethod
    def stable(cls, spec: PipelineSpec, nx: int, t_end: float,
               safety: float = DEFAULT_SAFETY) -> "FdGrid":
        return cls(nx=nx, dt=cls.stable_dt(spec, nx, safety), t_end=t_end)

    def check_stability(self, spec: PipelineSpec) -> None:
        dt_stable = self.stable_dt(spec, self.nx, safety=1.0)
        if self.dt > dt_stable:
            raise UnstableGridError(self.dt, self.stable_dt(spec, self.nx))


@dataclass(frozen=True)
class FdField:
    """Pressure snapshots: pressures[i] is the profile at times[i]."""

    times: tuple[float, ...]
    x: np.ndarray                 # cell centres
    pressures: np.ndarray         # shape (len(times), nx)
    spec: PipelineSpec

    def deviations(self) -> np.ndarray:
        steady = self.spec.p_inlet_0 - self.spec.two_a * self.spec.g0 * self.x
        return self.pressures - steady

    def mean_deviation(self, i: int) -> float:
        return float(self.deviations()[i].mean())


def _march_numpy(u: np.ndarray, r: float, sink_cell: int, sink_step: float,
                 steps: int) -> None:
    buf = np.empty_like(u)
    for _ in range(steps):
        buf[1:-1] = u[1:-1] + r * (u[2:] - 2.0 * u[1:-1] + u[:-2])
        buf[0] = u[0] + r * (u[1] - u[0])
        buf[-1] = u[-1] + r * (u[-2] - u[-1])
        buf[sink_cell] -= sink_step
        u[:] = buf


if njit is not None:
    @njit(cache=True)
    def _march_numba(u, r, sink_cell, sink_step, steps):  # pragma: no cover - compiled
        nx = u.shape[0]
        for _ in range(steps):
            prev_old = u[0]
            u[0] = u[0] + r * (u[1] - u[0])
            for i in range(1, nx - 1):
                cur_old = u[i]
                u[i] = cur_old + r * (u[i + 1] - 2.0 * cur_old + prev_old)
                prev_old = cur_old
            u[nx - 1] = u[nx - 1] + r * (prev_old - u[nx - 1])
            u[sink_cell] -= sink_step
else:
    _march_numba = None


def fd_solve(spec: PipelineSpec, scenario: LeakScenario, grid: FdGrid,
             output_times: list[float] | None = None) -> FdField:
    """March the deviation field and snapshot it at the requested times."""
    scenario.check_against(spec)
    grid.check_stability(spec)
    if output_times is None:
        output_times = [grid.t_end]
    times = sorted(float(t) for t in output_times)
    if times and times[-1] > grid.t_end + 1e-9:
        raise ValueError("output times exceed the grid horizon")

    nx = grid.nx
    dx = spec.length / nx
    x = (np.arange(nx) + 0.5) * dx
    sink_cell = min(int(scenario.ell2 / dx), nx - 1)
    kappa = spec.diffusivity
    sink_rate = spec.sound_speed**2 * scenario.g_leak / dx   # Pa/s into one cell

    include_zero = bool(times) and times[0] <= 1e-12
    positive = [t for t in times if t > 1e-12]
    u = np.zeros(nx)
    snaps = [u.copy()] if include_zero else []
    t_cur = 0.0
    for t_next in positive:
        steps = max(1, math.ceil((t_next - t_cur) / grid.dt - 1e-12))
        h = (t_next - t_cur) / steps
        r = kappa * h / (dx * dx)
        if _march_numba is not None:
            _march_numba(u, r, sink_cell, sink_rate * h, steps)
        else:
            _march_numpy(u, r, sink_cell, sink_rate * h, steps)
        t_cur = t_next
        snaps.append(u.copy())

    out_times = ([0.0] if include_zero else []) + positive
    steady = spec.p_inlet_0 - spec.two_a * spec.g0 * x
    pressures = steady + np.stack(snaps)
    return FdField(times=tuple(out_times), x=x, pressures=pressures, spec=spec)


@dataclass(frozen=True)
class OracleReport:
    """Pointwise series-vs-FD comparison over the snapshot times."""

    max_abs: float
    max_rel: float
    worst_t: float
    worst_x: float
    tolerance: float
    passed: bool
    first_t: float
    inlet_offset_first: float    # series - FD at x ~ 0 at the first snapshot
    outlet_offset_first: float   # series - FD at x ~ L at the first snapshot
    per_time: tuple[tuple[float, float, float], ...]  # (t, max_abs, max_rel)

    def summary(self) -> str:
        lines = [
            f"max abs error  : {self.max_abs:.6g} Pa at t = {self.worst_t:g} s, "
            f"x = {self.worst_x:g} m",
            f"max rel error  : {self.max_rel:.6g} (tolerance {self.tolerance:g})",
            f"inlet offset   : {self.inlet_offset_first:.6g} Pa at t = {self.first_t:g} s",
            f"outlet offset  : {self.outlet_offset_first:.6g} Pa at t = {self.first_t:g} s",
            f"result         : {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


def compare_with_series(spec: PipelineSpec, scenario: LeakScenario, grid: FdGrid,
                        cfg: SeriesConfig, output_times: list[float] | None = None,
                        tolerance: float = 1e-3,
                        field: FdField | None = None) -> OracleReport:
    """Compare the series evaluation against the FD oracle on the same grid.

    Relative error is pointwise |series - fd| / |series pressure|.  When an
    existing field is supplied its domain must match the spec.
    """
    if field is None:
        field = fd_solve(spec, scenario, grid, output_times)
    else:
        if field.x.shape[0] != grid.nx or not math.isclose(
                field.x[-1] + field.x[0], spec.length, rel_tol=1e-9):
            raise ValueError("supplied field does not match the requested domain")

    per_time = []
    max_abs = max_rel = 0.0
    worst_t = worst_x = 0.0
    inlet_offset = outlet_offset = 0.0
    first_t = None
    for i, t in enumerate(field.times):
        if t == 0.0:
            continue
        series = pressure_profile(spec, scenario, cfg, field.x, t)
        diff = series - field.pressures[i]
        rel = np.abs(diff) / np.abs(series)
        j = int(np.argmax(np.abs(diff)))
        per_time.append((t, float(np.abs(diff).max()), float(rel.max())))
        if abs(diff[j]) > max_abs:
            max_abs = float(abs(diff[j]))
            worst_t, worst_x = t, float(field.x[j])
        max_rel = max(max_rel, float(rel.max()))
        if first_t is None:
            first_t = t
            inlet_offset = float(diff[0])
            outlet_offset = float(diff[-1])
    if first_t is None:
        raise ValueError("no positive output times to compare")
    return OracleReport(max_abs=max_abs, max_rel=max_rel, worst_t=worst_t,
                        worst_x=worst_x, tolerance=tolerance,
                        passed=max_rel <= tolerance, first_t=first_t,
                        inlet_offset_first=inlet_offset,
                        outlet_offset_first=outlet_offset,
                        per_time=tuple(per_time))
