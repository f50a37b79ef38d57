"""Finite-difference oracle for the transient model.

Solves the deviation problem u_t = (c^2/two_a) u_xx - c^2 g_leak delta(x-ell2)
with zero-flux ends and u(x,0)=0 on a cell-centred grid, independently of the
cosine series.  The point sink is spread over the single cell containing the
leak, which keeps the scheme exactly mass-conservative: the cell sum drains by
c^2 * g_leak per unit time.

The semi-discrete system du/dt = (kappa/dx^2) T u - s, with T the three-point
zero-flux stencil, is integrated exactly in time.  T's eigenvectors are the
DCT-II modes v_k[i] = cos(pi k (i + 1/2) / nx) with eigenvalues
-4 sin^2(pi k / (2 nx)), so

    u(t) = sum_k phi(lambda_k, t) (v_k . s / |v_k|^2) v_k,
    phi(lambda, t) = expm1(lambda t) / lambda   (t for the constant mode).

The sum over modes is one FFT of length 2 nx per output time: there is no time
step, no stability limit and no nx-by-nx matrix.  The only error left is the
spatial one, first order in dx through the sink's place in its cell.
Pressures are the deviation added to model.steady_pressure at the cell centres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    LeakScenario,
    PipelineSpec,
    SeriesConfig,
    pressure_field,
    steady_pressure,
)


@dataclass(frozen=True)
class FdGrid:
    """nx cells over the line; output times may run up to t_end."""

    nx: int
    t_end: float

    def __post_init__(self):
        if not self.nx >= 3:
            raise ValueError("nx must be >= 3")
        if not self.t_end > 0:
            raise ValueError("t_end must be > 0")
        if self.t_end == np.inf:
            raise ValueError("t_end must be finite")


@dataclass(frozen=True)
class FdField:
    """Pressure snapshots: pressures[i] is the profile at times[i]."""

    times: tuple[float, ...]
    x: np.ndarray                 # cell centres
    pressures: np.ndarray         # shape (len(times), nx)
    spec: PipelineSpec

    def deviations(self) -> np.ndarray:
        return self.pressures - steady_pressure(self.spec, self.x)


def fd_solve(spec: PipelineSpec, scenario: LeakScenario, grid: FdGrid,
             output_times: list[float]) -> FdField:
    """Evaluate the semi-discrete deviation field at the requested times."""
    scenario.check_against(spec)
    times = sorted(float(t) for t in output_times)
    if not all(0 <= t < np.inf for t in times):
        raise ValueError("t must be >= 0 and finite")
    if times and times[-1] > grid.t_end + 1e-9:
        raise ValueError("output times exceed the grid horizon")
    include_zero = bool(times) and times[0] <= 1e-12
    out_times = ([0.0] if include_zero else []) + [t for t in times if t > 1e-12]

    nx = grid.nx
    dx = spec.length / nx
    x = (np.arange(nx) + 0.5) * dx
    sink_cell = min(int(scenario.ell2 / dx), nx - 1)
    sink_rate = spec.sound_speed**2 * scenario.g_leak / dx   # Pa/s into one cell

    k = np.arange(nx)
    lam = -(4.0 * spec.diffusivity / (dx * dx)) * np.sin(0.5 * np.pi * k / nx) ** 2
    weight = np.cos(np.pi * k * (sink_cell + 0.5) / nx) * (2.0 / nx)   # v_k[j] / |v_k|^2
    weight[0] = 1.0 / nx
    t = np.array(out_times)[:, None]
    phi = np.empty((len(out_times), nx))
    phi[:, :1] = t
    phi[:, 1:] = np.expm1(lam[1:] * t) / lam[1:]
    coeff = -sink_rate * weight * phi
    # sum_k coeff_k cos(pi k (i + 1/2) / nx) is the real part of a 2 nx FFT
    u = np.fft.fft(coeff * np.exp(-0.5j * np.pi * k / nx), n=2 * nx).real[:, :nx]

    return FdField(times=tuple(out_times), x=x, pressures=steady_pressure(spec, x) + u,
                   spec=spec)


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
                        cfg: SeriesConfig, output_times: list[float],
                        tolerance: float = 1e-3) -> OracleReport:
    """Compare the series evaluation against the FD oracle on the same grid.

    Relative error is pointwise |series - fd| / |series pressure|.
    """
    field = fd_solve(spec, scenario, grid, output_times)
    snapshots = [(i, t) for i, t in enumerate(field.times) if t != 0.0]
    if not snapshots:
        raise ValueError("no positive output times to compare")
    series_field = pressure_field(spec, scenario, cfg, field.x, [t for _, t in snapshots])
    per_time = []
    max_abs = max_rel = 0.0
    worst_t = worst_x = 0.0
    for (i, t), series in zip(snapshots, series_field):
        diff = series - field.pressures[i]
        rel = np.abs(diff) / np.abs(series)
        j = int(np.argmax(np.abs(diff)))
        per_time.append((t, float(np.abs(diff).max()), float(rel.max())))
        if abs(diff[j]) > max_abs:
            max_abs = float(abs(diff[j]))
            worst_t, worst_x = t, float(field.x[j])
        max_rel = max(max_rel, float(rel.max()))
    i0, first_t = snapshots[0]
    first_diff = series_field[0] - field.pressures[i0]
    return OracleReport(max_abs=max_abs, max_rel=max_rel, worst_t=worst_t,
                        worst_x=worst_x, tolerance=tolerance,
                        passed=max_rel <= tolerance, first_t=first_t,
                        inlet_offset_first=float(first_diff[0]),
                        outlet_offset_first=float(first_diff[-1]),
                        per_time=tuple(per_time))
