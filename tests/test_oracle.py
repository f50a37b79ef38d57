from __future__ import annotations

import numpy as np
import pytest

from leakline.model import (
    PIPELINE_A,
    PIPELINE_B,
    LeakScenario,
    SeriesConfig,
    steady_pressure,
)
from leakline.oracle import (
    FdGrid,
    compare_with_series,
    fd_solve,
)
from reference_as_printed import as_printed_profile

CFG = SeriesConfig()
LEAK_A = LeakScenario(ell2=0.5e4, g_leak=30.0)


def explicit_euler(spec, scenario, nx, t_end, dt):
    """Reference stepper for the same semi-discrete system as fd_solve."""
    dx = spec.length / nx
    sink_cell = min(int(scenario.ell2 / dx), nx - 1)
    steps = round(t_end / dt)
    h = t_end / steps
    u = np.zeros(nx)
    for _ in range(steps):
        flux = np.diff(u, prepend=u[0], append=u[-1])
        u = u + spec.diffusivity * h / (dx * dx) * np.diff(flux)
        u[sink_cell] -= spec.sound_speed**2 * scenario.g_leak / dx * h
    return u


class TestGrid:
    @pytest.mark.parametrize("nx,t_end", [(2, 100.0), (200, 0.0), (200, -1.0),
                                          (200, float("nan")), (200, float("inf"))])
    def test_bad_grid_rejected(self, nx, t_end):
        with pytest.raises(ValueError):
            FdGrid(nx, t_end)


class TestFdSolve:
    def test_zero_leak_stays_zero(self):
        quiet = LeakScenario(ell2=0.5e4, g_leak=0.0)
        field = fd_solve(PIPELINE_A, quiet, FdGrid(200, 100.0),
                         [50.0, 100.0])
        assert np.abs(field.deviations()).max() == 0.0

    def test_initial_slice_is_steady(self):
        field = fd_solve(PIPELINE_A, LEAK_A, FdGrid(200, 100.0),
                         [0.0, 100.0])
        assert field.times[0] == 0.0
        assert np.array_equal(field.pressures[0], steady_pressure(PIPELINE_A, field.x))

    def test_inlet_drop_anchor(self):
        # inlet deviation after 100 s for the near-inlet rupture
        field = fd_solve(PIPELINE_A, LEAK_A, FdGrid(1000, 100.0),
                         [100.0])
        assert field.deviations()[0][0] == pytest.approx(-2.77e4, abs=0.03e4)

    def test_mean_drain_linear(self):
        field = fd_solve(PIPELINE_A, LEAK_A, FdGrid(500, 300.0),
                         [300.0])
        expected = -(PIPELINE_A.sound_speed**2 * LEAK_A.g_leak / PIPELINE_A.length) * 300.0
        assert field.deviations()[0].mean() == pytest.approx(expected, rel=0.005)

    @pytest.mark.parametrize("t", [10.0, 50.0, 300.0])
    def test_field_satisfies_stencil(self, t):
        # du/dt by central difference in t equals (kappa/dx^2) T u - sink e_j
        nx, delta = 40, 1e-3
        dx = PIPELINE_A.length / nx
        u_minus, u, u_plus = fd_solve(PIPELINE_A, LEAK_A, FdGrid(nx, 400.0),
                                      [t - delta, t, t + delta]).deviations()
        dudt = (u_plus - u_minus) / (2 * delta)
        rhs = PIPELINE_A.diffusivity / (dx * dx) * np.diff(
            np.diff(u, prepend=u[0], append=u[-1]))
        rhs[int(LEAK_A.ell2 / dx)] -= PIPELINE_A.sound_speed**2 * LEAK_A.g_leak / dx
        assert np.abs(dudt - rhs).max() <= 1e-6 * np.abs(rhs).max()

    def test_explicit_euler_converges_to_exact_solve(self):
        # first order: halving dt halves the stepper's distance to the solve
        nx, t_end = 200, 50.0
        dx = PIPELINE_A.length / nx
        dt = 0.45 * dx * dx / (2 * PIPELINE_A.diffusivity)
        exact = fd_solve(PIPELINE_A, LEAK_A, FdGrid(nx, t_end), [t_end]).deviations()[0]
        err = [np.abs(explicit_euler(PIPELINE_A, LEAK_A, nx, t_end, h) - exact).max()
               for h in (dt, dt / 2)]
        assert err[0] < 3.0     # Pa, on deviations of about 1.8e4 Pa
        assert 0.45 < err[1] / err[0] < 0.55

    def test_finite_everywhere(self):
        field = fd_solve(PIPELINE_B, LeakScenario(ell2=1.5e4, g_leak=10.0),
                         FdGrid(300, 600.0), [60.0, 600.0])
        assert np.isfinite(field.pressures).all()


class TestCompare:
    def test_series_matches_fd_small_grid(self):
        grid = FdGrid(1000, 300.0)
        report = compare_with_series(PIPELINE_A, LEAK_A, grid, CFG,
                                     output_times=[100.0, 200.0, 300.0])
        assert report.passed
        assert report.max_rel <= 1e-3

    def test_zero_leak_report_is_null(self):
        quiet = LeakScenario(ell2=0.5e4, g_leak=0.0)
        grid = FdGrid(200, 100.0)
        report = compare_with_series(PIPELINE_A, quiet, grid, CFG, output_times=[100.0])
        assert report.max_abs == pytest.approx(0.0, abs=1e-9)

    def test_refinement_decreases_error(self):
        errors = []
        for nx in (500, 1000, 2000):
            grid = FdGrid(nx, 300.0)
            report = compare_with_series(PIPELINE_A, LEAK_A, grid, CFG,
                                         output_times=[100.0, 200.0, 300.0])
            errors.append(report.max_abs)
        assert errors[0] > errors[1] > errors[2]

    def test_as_printed_fails_against_oracle(self):
        # compare_with_series' check, on tests/reference_as_printed.py
        field = fd_solve(PIPELINE_A, LEAK_A, FdGrid(300, 100.0), [10.0, 50.0, 100.0])
        audited = np.array([as_printed_profile(PIPELINE_A, LEAK_A, CFG, field.x, t)
                            for t in field.times])
        diff = audited - field.pressures
        assert (np.abs(diff) / np.abs(audited)).max() > 1e-3
        # the spurious start-up series shows up as an inlet offset of order
        # 0.5 * two_a * L * g0 at small times
        expected = 0.5 * PIPELINE_A.two_a * PIPELINE_A.length * PIPELINE_A.g0
        assert diff[0, 0] == pytest.approx(expected, rel=0.15)
        # the reconciled series passes the same check on the same grid
        assert compare_with_series(PIPELINE_A, LEAK_A, FdGrid(300, 100.0), CFG,
                                   output_times=[10.0, 50.0, 100.0]).max_rel < 1e-3

    def test_bad_output_times_rejected(self):
        # neither moved to 0 s nor dropped: a negative or NaN time is an error
        for times in ([-5.0, 10.0], [float("nan"), 10.0]):
            with pytest.raises(ValueError, match="t must be >= 0 and finite"):
                fd_solve(PIPELINE_A, LEAK_A, FdGrid(200, 100.0), times)

    def test_output_times_beyond_horizon_rejected(self):
        grid = FdGrid(200, 100.0)
        with pytest.raises(ValueError, match="horizon"):
            fd_solve(PIPELINE_A, LEAK_A, grid, [200.0])
