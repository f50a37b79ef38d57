#!/usr/bin/env python3
"""Desk-scale reproduction of the end-pressure and localisation tables.

For each bundled scenario this prints the end-pressure history in units of
1e4 Pa (two decimals, gauge resolution) and the position estimate over time
obtained by feeding those gauge-resolution readings back through the ratio
inversion.  Entries where either deviation sits below the measurability
floor are printed as '-'.
"""

from __future__ import annotations

from pathlib import Path

from leakline.detection import (
    DEFAULT_EPS_MEAS,
    estimate_position,
    fixation_time,
    simulate_trajectory,
)
from leakline.scenario import load_scenario

HERE = Path(__file__).resolve().parent.parent
SCENARIOS = [
    "pipeline_a_start", "pipeline_a_mid", "pipeline_a_end",
    "pipeline_b_start", "pipeline_b_mid", "pipeline_b_end",
]


def main() -> None:
    for name in SCENARIOS:
        sc = load_scenario(HERE / "scenarios" / f"{name}.cfg")
        run = sc.require_run()
        t_fix = fixation_time(sc.spec, run.step)
        traj = simulate_trajectory(sc.spec, sc.require_leak(), sc.series,
                                   run.times(), quantum=100.0)
        print(f"\n=== {name}  (ell2 = {sc.leak.ell2:g} m, fixation {t_fix:g} s) ===")
        print(f"{'t_s':>6}  {'P_in':>7}  {'P_out':>7}  {'ell2_est_m':>11}  {'rel_err/L':>9}")
        for t, p_in, p_out in traj.samples.tolist():
            est = estimate_position(sc.spec, traj, t, eps_meas=DEFAULT_EPS_MEAS)
            if est.ell2_est is None:
                loc, err = "-", "-"
            else:
                loc = f"{est.ell2_est:.0f}"
                err = f"{abs(est.ell2_est - sc.leak.ell2) / sc.spec.length:.4f}"
            mark = " <- fixation" if t == t_fix else ""
            print(f"{t:6g}  {p_in / 1e4:7.2f}  {p_out / 1e4:7.2f}  {loc:>11}  {err:>9}{mark}")


if __name__ == "__main__":
    main()
