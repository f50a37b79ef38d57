#!/usr/bin/env python3
"""Grid-convergence study of the finite-difference oracle against the series."""

from __future__ import annotations

import argparse
from pathlib import Path

from leakline.oracle import compare_with_series
from leakline.scenario import load_scenario

HERE = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("scenario", nargs="?",
                    default=str(HERE / "scenarios" / "pipeline_a_start.cfg"))
    ap.add_argument("--levels", type=int, nargs="*", default=[250, 500, 1000, 2000])
    ap.add_argument("--t-end", type=float, default=900.0)
    ap.add_argument("--step", type=float, default=50.0)
    args = ap.parse_args()

    sc = load_scenario(args.scenario)
    leak = sc.require_leak()
    times = [args.step * k for k in range(1, int(args.t_end / args.step) + 1)]
    print(f"{'nx':>6}  {'dx_m':>8}  {'max_abs_Pa':>11}  {'max_rel':>10}")
    prev = None
    for nx in args.levels:
        rep = compare_with_series(sc.spec, leak, nx, sc.series, output_times=times)
        ratio = "" if prev is None else f"  (x{prev / rep.max_abs:.2f} down)"
        print(f"{nx:6d}  {sc.spec.length / nx:8.2f}  {rep.max_abs:11.4f}  "
              f"{rep.max_rel:10.3e}{ratio}")
        prev = rep.max_abs


if __name__ == "__main__":
    main()
