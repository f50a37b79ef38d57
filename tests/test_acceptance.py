"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Every
criterion must pass at the stated tolerances.  Two were red until mended:

  * criterion 1: the golden table for line A carried an erratum (mid-span
    block, t=600, outlet published as 23.49).  Mirror symmetry makes the
    mid-span inlet and outlet drops equal, so the row must read
    outlet = inlet - 30.00 = 23.56, as every other kept row of the block
    does to within 0.01; the finite-difference oracle independently puts the
    outlet at 23.557e4 Pa.  reference_tables.py carries the corrected cell
    and the published value;
  * criterion 5: the closed-form inversion evaluated at the first fixation
    instant is biased at quarter-span positions (18% of length on line A,
    9% on line B).  estimate_position now inverts the model's full series
    ratio, so the 4% bound holds with this test unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from leakline.detection import (
    Verdict,
    classify_regime,
    estimate_position,
    fixation_time,
    min_information_latency,
    pressure_ratio,
    simulate_trajectory,
    theta_from_ratio,
)
from leakline.detection import PressureTrajectory, admissible_band, first_band_time
from leakline.model import (
    PIPELINE_A,
    PIPELINE_B,
    LeakScenario,
    SeriesConfig,
    inlet_pressure,
    outlet_pressure,
    pressure_profile,
    steady_pressure,
    transient_pressure,
)
from leakline.monitor import FixationRule, MonitorConfig, format_event, run_monitor
from leakline.oracle import FdGrid, compare_with_series

from reference_tables import (
    TABLE_A,
    TABLE_A_EXCLUDED,
    TABLE_B,
    trajectory_from_gauge_rows,
)

CFG = SeriesConfig()
PRESSURE_TOL = 0.02e4      # Pa, golden-table reproduction
POSITION_TOL = 0.01e4      # m, golden localisation columns
LOCALISATION_BOUND = 0.04  # |ell2_est - ell2| / length at the fixation time
ORACLE_RTOL = 1e-3
EPS_FULL_PRECISION = 1.0   # Pa, floor for noise-free simulated streams


def report(criterion: str, failures: list[str]) -> None:
    print(f"CRITERION {criterion}: {'PASS' if not failures else 'FAIL'}")
    for line in failures:
        print(f"  - {line}")
    assert not failures, f"criterion {criterion}: {len(failures)} check(s) failed"


def _table_failures(spec, table, excluded):
    failures = []
    for ell2, rows in table.items():
        leak = LeakScenario(ell2=ell2, g_leak=spec.g0)
        for t, pin_ref, pout_ref in rows:
            if (ell2, t) in excluded:
                continue
            pin = inlet_pressure(spec, leak, CFG, float(t))
            pout = outlet_pressure(spec, leak, CFG, float(t))
            for label, got, ref in (("inlet", pin, pin_ref * 1e4),
                                    ("outlet", pout, pout_ref * 1e4)):
                if abs(got - ref) > PRESSURE_TOL:
                    failures.append(
                        f"ell2={ell2:g} t={t} {label}: model {got / 1e4:.4f}e4 "
                        f"vs table {ref / 1e4:.4f}e4 (|d|={abs(got - ref):.0f} Pa)")
    return failures


def test_criterion_1_table_a_reproduction():
    report("1 (line-A pressure table, +-0.02e4 Pa)",
           _table_failures(PIPELINE_A, TABLE_A, TABLE_A_EXCLUDED))


def test_criterion_2_table_b_reproduction():
    report("2 (line-B pressure table, +-0.02e4 Pa)",
           _table_failures(PIPELINE_B, TABLE_B, set()))


def test_criterion_3_localization_from_gauge_tables():
    expected = [
        (PIPELINE_A, TABLE_A, (55e4, 25e4), 300.0,
         [(0.5e4, 0.55e4), (5e4, 5.00e4), (9.5e4, 9.45e4)]),
        (PIPELINE_B, TABLE_B, (14e4, 11e4), 120.0,
         [(0.5e4, 0.28e4), (1.5e4, 1.50e4), (2.5e4, 2.72e4)]),
    ]
    failures = []
    for spec, table, baseline, t_fix, cases in expected:
        for ell2, want in cases:
            traj = trajectory_from_gauge_rows(table[ell2], baseline)
            rp = pressure_ratio(traj, t_fix)
            if not rp.defined:
                failures.append(f"ell2={ell2:g}: ratio undefined at {t_fix:g} s")
                continue
            got = theta_from_ratio(spec, rp.p, t_fix).theta * spec.length
            if abs(got - want) > POSITION_TOL:
                failures.append(f"ell2={ell2:g}: estimate {got:.1f} m vs {want:.1f} m")
    report("3 (gauge-table localisation at fixation, +-0.01e4 m)", failures)


def test_criterion_4_fixation_times():
    failures = []
    if fixation_time(PIPELINE_A, 100.0) != 300.0:
        failures.append(f"line A fixation {fixation_time(PIPELINE_A, 100.0)} != 300")
    if fixation_time(PIPELINE_B, 60.0) != 120.0:
        failures.append(f"line B fixation {fixation_time(PIPELINE_B, 60.0)} != 120")
    if round(min_information_latency(PIPELINE_A)) != 261:
        failures.append(
            f"line A latency {min_information_latency(PIPELINE_A):.2f} !~ 261")
    report("4 (fixation times and information latency)", failures)


def test_criterion_5_end_to_end_error_bound():
    failures = []
    for spec, step in ((PIPELINE_A, 100.0), (PIPELINE_B, 60.0)):
        t_fix = fixation_time(spec, step)
        times = [step * k for k in range(1, 11)]
        for theta in (0.05, 0.25, 0.5, 0.75, 0.95):
            leak = LeakScenario(ell2=theta * spec.length, g_leak=spec.g0)
            traj = simulate_trajectory(spec, leak, CFG, times)
            est = estimate_position(spec, traj, t_fix, eps_meas=EPS_FULL_PRECISION)
            if est.ell2_est is None:
                failures.append(f"L={spec.length:g} theta={theta}: no estimate")
                continue
            rel = abs(est.ell2_est - leak.ell2) / spec.length
            if rel > LOCALISATION_BOUND:
                failures.append(
                    f"L={spec.length:g} theta={theta}: rel error {rel:.4f} > 0.04 "
                    f"(est {est.ell2_est:.0f} m vs true {leak.ell2:.0f} m)")
    report("5 (end-to-end localisation error <= 4% of length)", failures)


def test_criterion_6_oracle_equivalence():
    failures = []
    times = [50.0 * k for k in range(1, 19)]  # 50..900
    for ell2 in (0.5e4, 5e4, 9.5e4):
        leak = LeakScenario(ell2=ell2, g_leak=PIPELINE_A.g0)
        grid = FdGrid(2000, 900.0)
        rep = compare_with_series(PIPELINE_A, leak, grid, CFG, output_times=times,
                                  tolerance=ORACLE_RTOL)
        if not rep.passed:
            failures.append(f"ell2={ell2:g}: max rel {rep.max_rel:.2e} > {ORACLE_RTOL}")
    # one refinement chain must show decreasing error
    errs = []
    leak = LeakScenario(ell2=0.5e4, g_leak=PIPELINE_A.g0)
    for nx in (500, 1000, 2000):
        rep = compare_with_series(PIPELINE_A, leak, FdGrid(nx, 900.0),
                                  CFG, output_times=times)
        errs.append(rep.max_abs)
    if not errs[0] > errs[1] > errs[2]:
        failures.append(f"refinement errors not decreasing: {errs}")
    report("6 (series vs finite-difference oracle, rel <= 1e-3)", failures)


def test_criterion_7_property_suite():
    failures = []

    # t = 0 consistency within the tail tolerance
    leak = LeakScenario(ell2=0.5e4, g_leak=30.0)
    for x in np.linspace(0.0, PIPELINE_A.length, 21):
        d = abs(transient_pressure(PIPELINE_A, leak, CFG, float(x), 0.0)
                - steady_pressure(PIPELINE_A, float(x)))
        if d > CFG.tail_tol:
            failures.append(f"t=0 consistency at x={x:g}: |d|={d:.3g} Pa")
            break

    # spatial-mean drain within 0.5%
    for spec, leak_ in ((PIPELINE_A, LeakScenario(0.5e4, 30.0)),
                        (PIPELINE_B, LeakScenario(1.5e4, 10.0))):
        xs = np.linspace(0.0, spec.length, 4001)
        steady = spec.p_inlet_0 - spec.two_a * spec.g0 * xs
        dev = pressure_profile(spec, leak_, CFG, xs, 300.0) - steady
        mean = float(np.trapezoid(dev, xs)) / spec.length
        want = -(spec.sound_speed**2 * leak_.g_leak / spec.length) * 300.0
        if abs(mean - want) > 0.005 * abs(want):
            failures.append(f"mean drain L={spec.length:g}: {mean:.1f} vs {want:.1f}")

    # pressure continuity at the rupture point
    for t in (100.0, 500.0):
        lo = transient_pressure(PIPELINE_A, leak, CFG, 0.5e4 - 0.01, t)
        hi = transient_pressure(PIPELINE_A, leak, CFG, 0.5e4 + 0.01, t)
        if abs(lo - hi) > 1.0:
            failures.append(f"leak-point continuity at t={t:g}: |d|={abs(lo - hi):.3g}")

    # mirror symmetry of end deviations under theta -> 1 - theta
    for theta in (0.1, 0.3, 0.45):
        l_in = PIPELINE_A.p_inlet_0 - inlet_pressure(
            PIPELINE_A, LeakScenario(theta * 10e4, 30.0), CFG, 300.0)
        l_out = PIPELINE_A.p_outlet_0 - outlet_pressure(
            PIPELINE_A, LeakScenario((1 - theta) * 10e4, 30.0), CFG, 300.0)
        if abs(l_in - l_out) > 1e-3:
            failures.append(f"mirror symmetry theta={theta}: |d|={abs(l_in - l_out):.3g}")

    # reciprocal symmetry of the inversion
    for p in (0.01, 0.2, 3.0, 250.0):
        s = theta_from_ratio(PIPELINE_A, p, 300.0).theta \
            + theta_from_ratio(PIPELINE_A, 1.0 / p, 300.0).theta
        if abs(s - 1.0) > 1e-9:
            failures.append(f"reciprocal symmetry p={p}: sum={s!r}")

    # band/theta duality on a 100 x 100 grid
    t0 = first_band_time(PIPELINE_B)
    ps = np.logspace(-3, 3, 100)
    ts = np.linspace(t0 * 1.01, 100.0 * t0, 100)
    for t in ts:
        band = admissible_band(PIPELINE_B, float(t))
        for p in ps:
            inside = band.contains(float(p))
            in_range = 0.0 < theta_from_ratio(PIPELINE_B, float(p), float(t)).theta < 1.0
            if inside != in_range:
                failures.append(f"duality broken at p={p:g}, t={t:g}")
                break
        else:
            continue
        break

    # determinism of monitor replays
    leak_b = LeakScenario(ell2=0.5e4, g_leak=10.0)
    prefix = [(-300.0 + 60 * k, 14e4, 11e4) for k in range(6)]
    traj = simulate_trajectory(PIPELINE_B, leak_b, CFG,
                               [60.0 * k for k in range(1, 11)], quantum=100.0)
    stream = prefix + list(traj.samples)
    mon = MonitorConfig(spec=PIPELINE_B, layout=None, sampling_step=60.0,
                        eps_meas=100.0, fixation_rule=FixationRule.GRID)
    runs = [[format_event(e) for e in run_monitor(mon, stream)] for _ in range(2)]
    if runs[0] != runs[1]:
        failures.append("monitor replay not deterministic")

    report("7 (model/detection property suite)", failures)


def test_criterion_8_classification():
    failures = []
    for spec, step in ((PIPELINE_A, 100.0), (PIPELINE_B, 60.0)):
        t_fix = fixation_time(spec, step)
        times = [step * k for k in range(1, 11)]
        for theta in (0.05, 0.25, 0.5, 0.75, 0.95):
            leak = LeakScenario(ell2=theta * spec.length, g_leak=spec.g0)
            traj = simulate_trajectory(spec, leak, CFG, times)
            verdict = classify_regime(spec, traj, t_fix, eps_meas=EPS_FULL_PRECISION)
            if verdict is not Verdict.ACCIDENT:
                failures.append(f"L={spec.length:g} theta={theta}: {verdict.value}")
    flat = PressureTrajectory(
        samples=tuple((60.0 * k, 14e4, 11e4) for k in range(1, 11)),
        baseline=(14e4, 11e4))
    if classify_regime(PIPELINE_B, flat, 120.0) is not Verdict.INDETERMINATE:
        failures.append("flat stream not Indeterminate")
    # inlet drop eight times the outlet drop at late times: outside the
    # limiting (1/7, 7) band, so a technological regime change
    ramp = PressureTrajectory(
        samples=tuple((300.0 * k, 55e4 - 8.0 * 10.0 * 300.0 * k, 25e4 - 10.0 * 300.0 * k)
                      for k in range(1, 11)),
        baseline=(55e4, 25e4))
    if classify_regime(PIPELINE_A, ramp, 3000.0) is not Verdict.TECHNOLOGICAL:
        failures.append("late-time p=8 ramp not Technological")
    report("8 (classification verdicts)", failures)
