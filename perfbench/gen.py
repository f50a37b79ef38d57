"""Seeded input generator for the benchmark.

Writes scenario `.cfg` files and sensor-stream `.csv` files plus a
`truth.json` with the ground-truth labels.  It never imports `leakline`:
rupture histories come from this file's own closed-form evaluation of the
cosine series, in plain Python with a fixed summation order, so one seed
yields byte-identical inputs whatever the program under test looks like.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# The two bundled line geometries: steady end pressures (Pa), length (m),
# steady flux g0 (Pa*s/m), sound speed c (m/s), friction two_a (1/s).
LINES = {
    "A": dict(p1=55e4, p2=25e4, length=10e4, g0=30.0, c=383.3, two_a=0.1,
              valves=[k * 1e4 for k in range(11)],
              connectors=[("c1", 1.5e4), ("c2", 8.5e4)]),
    "B": dict(p1=14e4, p2=11e4, length=3e4, g0=10.0, c=383.3, two_a=0.1,
              valves=[k * 0.5e4 for k in range(7)],
              connectors=[("c1", 0.75e4), ("c2", 2.25e4)]),
}
N_MAX = 64
QUANTUM = 100.0            # gauge resolution, Pa
NOISE = 40.0               # quiet-line noise amplitude, Pa (below the 100 Pa floor)
BASELINE_SAMPLES = 5

# oracle-verify: line A at the three bundled leak positions.
VERIFY_POSITIONS = {"start": 0.5e4, "mid": 5e4, "end": 9.5e4}

# replay: sampling step per line, chosen so that the grid fixation instant
# (first sample after L/c) falls where the admissible ratio band exists.
REPLAY_STEP = {"A": 600.0, "B": 60.0}
REPLAY_PER_LINE = 4                # streams per line, all but one ruptured
DRIFT_LADDER = [100, 143, 186, 229, 271, 314, 357, 400]   # growth samples
# rupture tail per line: 3000 s on A, 1440 s on B, short enough that the
# drained line stays above zero pressure wherever the leak sits
RUPTURE_SAMPLES = {"A": 5, "B": 24}
STREAM_SAMPLES = 2400

# sweep: dense sampling step per line and run-window lengths (samples).
# The longest window ends by 2700 s on A and 1800 s on B, while every end
# pressure is still positive.
SWEEP_STEP = {"A": 15.0, "B": 10.0}
SWEEP_LADDER = [40, 60, 80, 100, 120, 140, 160, 180]
FIELD_INSTANTS = 12
FIELD_POINTS = 2000
# scaling probe: one long gauge-quantised rupture history on line A at 1 s
# sampling, replayed by prefixes of these lengths
PROBE_LENGTHS = [250, 500, 1000, 2000]


def _fmt(v: float) -> str:
    return repr(float(v))


def end_pressures(line: dict, ell2: float, t: float) -> tuple[float, float]:
    """Inlet and outlet pressure of the ruptured line at time t > 0.

    Reconciled cosine series with N_MAX modes and a leak flux equal to g0:
    steady profile, uniform drain c^2 g t / L, static Neumann kernel and the
    decaying modes.
    """
    L, g, two_a, c = line["length"], line["g0"], line["two_a"], line["c"]
    rate = math.pi ** 2 * c * c / (two_a * L * L)
    drain = c * c * g / L * t
    amp = 2.0 * two_a * L * g / math.pi ** 2
    out = []
    for x in (0.0, L):
        kernel = (x * x + ell2 * ell2) / (2.0 * L) + L / 3.0 - max(x, ell2)
        modes = 0.0
        for n in range(1, N_MAX + 1):
            modes += (math.cos(math.pi * n * x / L) * math.cos(math.pi * n * ell2 / L)
                      * math.exp(-n * n * rate * t) / (n * n))
        steady = line["p1"] - two_a * line["g0"] * x
        out.append(steady - drain - two_a * g * kernel + amp * modes)
    return out[0], out[1]


def grid_fixation(line: dict, step: float) -> float:
    """First sampling instant strictly after the travel time L/c."""
    return (math.floor(line["length"] / line["c"] / step) + 1) * step


def scenario_text(line: dict, ell2: float | None,
                  run: tuple[float, float, float] | None) -> str:
    lines = [
        "[pipeline]",
        f"p1 = {line['p1']:g}", f"p2 = {line['p2']:g}", f"length = {line['length']:g}",
        f"g0 = {line['g0']:g}", f"c = {line['c']:g}", f"two_a = {line['two_a']:g}",
    ]
    if ell2 is not None:
        lines += ["", "[leak]", f"ell2 = {_fmt(ell2)}"]
    lines += [
        "", "[series]", f"n_max = {N_MAX}", "tail_tol = 1.0", "variant = reconciled",
        "", "[valves]",
        "line = " + ", ".join(f"{v:g}" for v in line["valves"]),
        "connectors = " + ", ".join(f"{k}:{v:g}" for k, v in line["connectors"]),
    ]
    if run is not None:
        lines += ["", "[run]", f"t_start = {run[0]:g}", f"t_end = {run[1]:g}",
                  f"step = {run[2]:g}"]
    return "\n".join(lines) + "\n"


def _strata_centres(rng: random.Random, k: int, lo: float = 0.05, hi: float = 0.95) -> list[float]:
    """Centres of k equal strata of (lo, hi), in seeded order.

    Fixed positions keep the error medians a property of the estimator, not
    of the draw; the seed decides which stream or window gets which one.
    """
    width = (hi - lo) / k
    thetas = [lo + width * (i + 0.5) for i in range(k)]
    rng.shuffle(thetas)
    return thetas


def gen_setup(out: Path) -> dict:
    """A bundled-style line-B mid-span scenario for the set-up probe."""
    (out / "setup_b_mid.cfg").write_text(
        scenario_text(LINES["B"], 1.5e4, (60.0, 600.0, 60.0)), encoding="ascii")
    return {"setup": "setup_b_mid.cfg"}


def gen_verify(rng: random.Random, out: Path) -> dict:
    names = list(VERIFY_POSITIONS)
    rng.shuffle(names)
    cases = []
    for name in names:
        cfg = f"verify_a_{name}.cfg"
        (out / cfg).write_text(
            scenario_text(LINES["A"], VERIFY_POSITIONS[name], (100.0, 900.0, 100.0)),
            encoding="ascii")
        cases.append({"cfg": cfg, "ell2": VERIFY_POSITIONS[name]})
    return {"verify": cases}


class _Stream:
    """Accumulates `t,p_inlet,p_outlet` rows at a fixed sampling step."""

    def __init__(self, line: dict, step: float, rng: random.Random):
        self.line, self.step, self.rng = line, step, rng
        self.rows: list[str] = []
        self.t = -step * BASELINE_SAMPLES

    def _emit(self, p_in: float, p_out: float) -> None:
        self.rows.append(f"{self.t:g},{_fmt(p_in)},{_fmt(p_out)}")
        self.t += self.step

    def quiet(self, n: int) -> None:
        for _ in range(n):
            self._emit(self.line["p1"] + round(self.rng.uniform(-NOISE, NOISE), 3),
                       self.line["p2"] + round(self.rng.uniform(-NOISE, NOISE), 3))

    def drop(self, dev_in: float, dev_out: float) -> None:
        """One noise-free sample with the given end-pressure drops."""
        self._emit(self.line["p1"] - dev_in, self.line["p2"] - dev_out)

    def text(self) -> str:
        return "t_seconds,p_inlet_pa,p_outlet_pa\n" + "\n".join(self.rows) + "\n"


def _technological(s: _Stream, kind: str, rng: random.Random) -> None:
    """A regime change whose drop ratio sits far below the admissible band.

    The inlet drops by about 150 Pa while the outlet drops by 30 kPa or
    more, so p stays under 0.01 and no fixation rule can call it a leak.
    A step holds both drops; a ramp lets the inlet drop grow by half, so p
    rises and |p - 1| shrinks: either way the first ratio is the extremum.
    """
    dev_in = 150.0 + 20.0 * rng.random()
    dev_out = 30e3 + 5e3 * rng.random()
    n = 4 + int(6 * rng.random())
    for i in range(n):
        s.drop(dev_in * (1.0 + 0.5 * i / n if kind == "ramp" else 1.0), dev_out)


def _drift(s: _Stream, growth: int, rng: random.Random) -> None:
    """Slow drift: the outlet drop grows every sample, so |p - 1| grows for
    `growth` samples before a 5-sample plateau."""
    dev_in = 150.0 + 20.0 * rng.random()
    d0 = 30e3 + 5e3 * rng.random()
    rise = 20e3 + 5e3 * rng.random()
    for i in range(growth):
        s.drop(dev_in, d0 + rise * i / growth)
    for _ in range(5):
        s.drop(dev_in, d0 + rise)


def gen_replay(rng: random.Random, out: Path) -> dict:
    lines = ["A", "B"] * REPLAY_PER_LINE
    rng.shuffle(lines)
    # each line takes every other rung of the drift ladder, in seeded order
    drifts = {}
    for j, key in enumerate(("A", "B")):
        drifts[key] = DRIFT_LADDER[j::2]
        rng.shuffle(drifts[key])
        drifts[key] = iter(drifts[key])
    # per line, one stream without a rupture and ruptures at stratum centres
    thetas = {}
    for key in ("A", "B"):
        slots = _strata_centres(rng, REPLAY_PER_LINE - 1) + [None]
        rng.shuffle(slots)
        thetas[key] = iter(slots)
    streams = []
    for i in range(len(lines)):
        key = lines[i]
        line, step = LINES[key], REPLAY_STEP[key]
        rearm = int(grid_fixation(line, step) / step) + 3
        drift = next(drifts[key])
        s = _Stream(line, step, rng)
        s.quiet(BASELINE_SAMPLES + rearm)
        events = ["step", "ramp", "step", "ramp", "drift"]
        rng.shuffle(events)
        for kind in events:
            if kind == "drift":
                _drift(s, drift, rng)
            else:
                _technological(s, kind, rng)
            s.quiet(rearm + int(10 * rng.random()))
        s.quiet(STREAM_SAMPLES - RUPTURE_SAMPLES[key] - len(s.rows))
        theta = next(thetas[key])
        entry = {"csv": f"stream_{i}.csv", "cfg": f"stream_{i}.cfg", "line": key,
                 "step": step, "length": line["length"], "drift": drift,
                 "rupture": None}
        if theta is not None:
            ell2 = theta * line["length"]
            onset = s.t - s.step      # last quiet sample: the rupture instant
            for k in range(1, RUPTURE_SAMPLES[key] + 1):
                p_in, p_out = end_pressures(line, ell2, k * step)
                s._emit(round(p_in / QUANTUM) * QUANTUM, round(p_out / QUANTUM) * QUANTUM)
            entry["rupture"] = {"onset": onset, "ell2": ell2}
        else:
            s.quiet(RUPTURE_SAMPLES[key])
        entry["samples"] = len(s.rows)
        (out / entry["csv"]).write_text(s.text(), encoding="ascii")
        # the monitor reads the line, its valves and the sampling step only
        (out / entry["cfg"]).write_text(scenario_text(line, None, (step, 10 * step, step)),
                                        encoding="ascii")
        streams.append(entry)
    return {"streams": streams}


def gen_sweep(rng: random.Random, out: Path) -> dict:
    lengths = list(SWEEP_LADDER)
    rng.shuffle(lengths)
    keys = ["A", "B"] * (len(lengths) // 2)
    rng.shuffle(keys)
    thetas = {k: iter(_strata_centres(rng, keys.count(k))) for k in ("A", "B")}
    cases = []
    for i, (key, n) in enumerate(zip(keys, lengths)):
        line, step = LINES[key], SWEEP_STEP[key]
        ell2 = next(thetas[key]) * line["length"]
        t_end = n * step
        coarse = float(math.ceil(t_end / FIELD_INSTANTS))   # whole seconds: exact sums
        dense_cfg, coarse_cfg = f"sweep_{i}.cfg", f"sweep_{i}_coarse.cfg"
        (out / dense_cfg).write_text(scenario_text(line, ell2, (step, t_end, step)),
                                     encoding="ascii")
        (out / coarse_cfg).write_text(scenario_text(line, ell2, (coarse, coarse * FIELD_INSTANTS,
                                                                  coarse)),
                                      encoding="ascii")
        cases.append({"cfg": dense_cfg, "coarse_cfg": coarse_cfg, "line": key,
                      "ell2": ell2, "length": line["length"], "samples": n,
                      "step": step, "t_grid": grid_fixation(line, step),
                      "field_instants": FIELD_INSTANTS, "field_points": FIELD_POINTS})
    line = LINES["A"]
    ell2 = (0.05 + 0.9 * rng.random()) * line["length"]
    rows = ["t_seconds,p_inlet_pa,p_outlet_pa"]
    for k in range(1, max(PROBE_LENGTHS) + 1):
        p_in, p_out = end_pressures(line, ell2, float(k))
        rows.append(f"{k},{_fmt(round(p_in / QUANTUM) * QUANTUM)},"
                    f"{_fmt(round(p_out / QUANTUM) * QUANTUM)}")
    (out / "probe.csv").write_text("\n".join(rows) + "\n", encoding="ascii")
    (out / "probe.cfg").write_text(scenario_text(line, ell2, None), encoding="ascii")
    probe = {"csv": "probe.csv", "cfg": "probe.cfg", "lengths": PROBE_LENGTHS}
    return {"sweep": cases, "probe": probe}


GENERATORS = {"oracle-verify": gen_verify, "replay-grid": gen_replay,
              "replay-empirical": gen_replay, "sweep": gen_sweep}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload into `out` and return the labels."""
    out.mkdir(parents=True, exist_ok=True)
    truth = {"workload": workload, "seed": seed}
    truth.update(gen_setup(out))
    truth.update(GENERATORS[workload](random.Random(seed), out))
    (out / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True) + "\n",
                                    encoding="ascii")
    return truth

