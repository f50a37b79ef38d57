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


def deviations(spec, field):
    return field.pressures - steady_pressure(spec, field.x)


class TestFdSolve:
    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError, match="nx must be >= 3"):
            fd_solve(PIPELINE_A, LEAK_A, 2, [100.0])

    def test_zero_leak_stays_zero(self):
        quiet = LeakScenario(ell2=0.5e4, g_leak=0.0)
        field = fd_solve(PIPELINE_A, quiet, 200, [50.0, 100.0])
        assert np.abs(deviations(PIPELINE_A, field)).max() == 0.0

    def test_initial_slice_is_steady(self):
        field = fd_solve(PIPELINE_A, LEAK_A, 200, [0.0, 100.0])
        assert field.times[0] == 0.0
        assert np.array_equal(field.pressures[0], steady_pressure(PIPELINE_A, field.x))

    def test_inlet_drop_anchor(self):
        # inlet deviation after 100 s for the near-inlet rupture
        field = fd_solve(PIPELINE_A, LEAK_A, 1000, [100.0])
        assert deviations(PIPELINE_A, field)[0][0] == pytest.approx(-2.77e4, abs=0.03e4)

    @pytest.mark.parametrize("t", [300.0, 1e6])
    def test_mean_drain_linear(self, t):
        # the constant mode alone, exact at any t >= 0: the solve has no time horizon
        field = fd_solve(PIPELINE_A, LEAK_A, 500, [t])
        expected = -(PIPELINE_A.sound_speed**2 * LEAK_A.g_leak / PIPELINE_A.length) * t
        assert deviations(PIPELINE_A, field)[0].mean() == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("t", [10.0, 50.0, 300.0])
    def test_field_satisfies_stencil(self, t):
        # du/dt by central difference in t equals (kappa/dx^2) T u - sink e_j
        nx, delta = 40, 1e-3
        dx = PIPELINE_A.length / nx
        u_minus, u, u_plus = deviations(PIPELINE_A, fd_solve(PIPELINE_A, LEAK_A, nx,
                                                             [t - delta, t, t + delta]))
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
        exact = deviations(PIPELINE_A, fd_solve(PIPELINE_A, LEAK_A, nx, [t_end]))[0]
        err = [np.abs(explicit_euler(PIPELINE_A, LEAK_A, nx, t_end, h) - exact).max()
               for h in (dt, dt / 2)]
        assert err[0] < 3.0     # Pa, on deviations of about 1.8e4 Pa
        assert 0.45 < err[1] / err[0] < 0.55

    def test_finite_everywhere(self):
        field = fd_solve(PIPELINE_B, LeakScenario(ell2=1.5e4, g_leak=10.0),
                         300, [60.0, 600.0])
        assert np.isfinite(field.pressures).all()


class TestCompare:
    def test_series_matches_fd_small_grid(self):
        report = compare_with_series(PIPELINE_A, LEAK_A, 1000, CFG,
                                     output_times=[100.0, 200.0, 300.0])
        assert report.passed
        assert report.max_rel <= 1e-3

    def test_zero_leak_report_is_null(self):
        quiet = LeakScenario(ell2=0.5e4, g_leak=0.0)
        report = compare_with_series(PIPELINE_A, quiet, 200, CFG, output_times=[100.0])
        assert report.max_abs == pytest.approx(0.0, abs=1e-9)

    def test_refinement_decreases_error(self):
        errors = []
        for nx in (500, 1000, 2000):
            report = compare_with_series(PIPELINE_A, LEAK_A, nx, CFG,
                                         output_times=[100.0, 200.0, 300.0])
            errors.append(report.max_abs)
        assert errors[0] > errors[1] > errors[2]

    def test_as_printed_fails_against_oracle(self):
        # compare_with_series' check, on tests/reference_as_printed.py
        field = fd_solve(PIPELINE_A, LEAK_A, 300, [10.0, 50.0, 100.0])
        audited = np.array([as_printed_profile(PIPELINE_A, LEAK_A, CFG, field.x, t)
                            for t in field.times])
        diff = audited - field.pressures
        assert (np.abs(diff) / np.abs(audited)).max() > 1e-3
        # the spurious start-up series shows up as an inlet offset of order
        # 0.5 * two_a * L * g0 at small times
        expected = 0.5 * PIPELINE_A.two_a * PIPELINE_A.length * PIPELINE_A.g0
        assert diff[0, 0] == pytest.approx(expected, rel=0.15)
        # the reconciled series passes the same check on the same grid
        assert compare_with_series(PIPELINE_A, LEAK_A, 300, CFG,
                                   output_times=[10.0, 50.0, 100.0]).max_rel < 1e-3

    def test_bad_output_times_rejected(self):
        # neither moved to 0 s nor dropped: a negative or NaN time is an error
        for times in ([-5.0, 10.0], [float("nan"), 10.0]):
            with pytest.raises(ValueError, match="t must be >= 0 and finite"):
                fd_solve(PIPELINE_A, LEAK_A, 200, times)
