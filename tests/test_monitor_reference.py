"""Differential tests: the NumPy reader and the skipping monitor against the
per-sample reference implementations in reference_monitor.py."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakline import monitor
from leakline.isolation import ConnectorValve, ValveLayout
from leakline.model import PIPELINE_A, PIPELINE_B
from leakline.monitor import (
    FixationRule,
    MonitorConfig,
    StreamFormatError,
    format_event,
    read_pressure_stream,
    run_monitor,
)
from reference_monitor import reference_read_pressure_stream, reference_run_monitor

HEADER = b"t_seconds,p_inlet_pa,p_outlet_pa"
LAYOUT_B = ValveLayout(
    line_valves=tuple(0.5e4 * k for k in range(7)),
    connector_valves=(ConnectorValve(0.75e4, "c1"), ConnectorValve(2.25e4, "c2")),
)
LAYOUT_A = ValveLayout(
    line_valves=tuple(1e4 * k for k in range(11)),
    connector_valves=(ConnectorValve(2.5e4, "c1"), ConnectorValve(7.5e4, "c2")),
)
LINES = {"A": (PIPELINE_A, LAYOUT_A, 55e4, 25e4), "B": (PIPELINE_B, LAYOUT_B, 14e4, 11e4)}


def replay(fn, cfg, rows):
    """Event lines, or the exception's type and text."""
    try:
        return [format_event(e) for e in fn(cfg, rows)]
    except ValueError as exc:
        return type(exc), str(exc)


# -- monitor ---------------------------------------------------------------

@st.composite
def scenarios(draw):
    line = draw(st.sampled_from(sorted(LINES)))
    spec, layout, base_in, base_out = LINES[line]
    eps = draw(st.sampled_from([50.0, 100.0, 1000.0]))
    cfg = MonitorConfig(
        spec=spec, layout=draw(st.sampled_from([None, layout])),
        sampling_step=draw(st.sampled_from([30.0, 60.0])), eps_meas=eps,
        fixation_rule=draw(st.sampled_from(list(FixationRule))))
    dt = draw(st.sampled_from([30.0, 60.0]))
    bad = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -5.0])
    noise = st.sampled_from([0.0, 0.3, -0.7, 0.999, -1.0, 1.0])  # in units of eps
    drift = st.tuples(st.just("drift"), st.integers(1, 12),
                      st.sampled_from([0.5, 1.0, 2.0, 5.0, 12.0, -1.0]),
                      st.sampled_from([30.0, 200.0, 1000.0, 3000.0]))
    quiet = st.tuples(st.just("quiet"), st.integers(1, 25), noise, noise)
    segment = st.one_of(
        quiet, drift,
        st.tuples(drift, quiet),  # a drift and its quiet reprise
        st.tuples(st.just("gap"), st.sampled_from([2.0, 2.5, 7.0])),
        st.tuples(st.just("bad"), bad, st.sampled_from(["in", "out", "both"])),
    )
    t = draw(st.sampled_from([-600.0, -300.0, 0.0]))
    rows = []
    segments = draw(st.lists(segment, max_size=20))
    for kind, *args in (s for seg in segments
                        for s in (seg if isinstance(seg[0], tuple) else (seg,))):
        if kind == "quiet":
            n, a, b = args
            for _ in range(n):
                rows.append((t, base_in + a * eps, base_out + b * eps))
                t += dt
        elif kind == "drift":
            n, ratio, rate = args
            for k in range(1, n + 1):
                rows.append((t, base_in - ratio * rate * k, base_out - rate * k))
                t += dt
        elif kind == "gap":
            t += args[0] * dt
        else:
            value, which = args
            rows.append((t, base_in if which == "out" else value,
                         base_out if which == "in" else value))
            t += dt
    if rows and draw(st.integers(0, 4)) == 0:  # one bad timestamp in a fifth of the streams
        i = draw(st.integers(0, len(rows) - 1))
        what = draw(st.sampled_from([math.nan, math.inf, -math.inf, "repeat", "back"]))
        prev = rows[i - 1][0] if i > 0 else rows[i][0]
        t_bad = prev if what == "repeat" else prev - 1.0 if what == "back" else what
        rows[i] = (t_bad,) + rows[i][1:]
    return cfg, rows


def quiet_b(times):
    return [(float(t), 14e4, 11e4) for t in times]


def drift_b(times, ratio, rate=200.0):
    return [(float(t), 14e4 - ratio * rate * k, 11e4 - rate * k)
            for k, t in enumerate(times, start=1)]


GRID_B = MonitorConfig(spec=PIPELINE_B, layout=LAYOUT_B, eps_meas=100.0)  # fixes at tau 120 s
# the sample after a 180 s gap is the grid fixation sample: DataQuality, then Fixation
GAP_AT_FIXATION = quiet_b(range(0, 300, 60)) + drift_b([300, 480, 540], 5.0)
# a bad reading at 360 s just before the first deviating sample: the onset is 300 s
INVALID_BEFORE_ONSET = (quiet_b(range(0, 360, 60)) + [(360.0, math.nan, 11e4)]
                        + drift_b(range(420, 660, 60), 5.0))
# a Technological verdict at 360 s; deviations at 480 s and 660-840 s each restart
# the quiet clock, so the monitor re-arms at 1020 s and not at 540 s
DEVIATION_WHILE_REARMING = (quiet_b(range(0, 300, 60)) + drift_b([300, 360], 12.0)
                            + quiet_b([420]) + drift_b([480], 12.0) + quiet_b([540, 600])
                            + drift_b(range(660, 900, 60), 5.0) + quiet_b(range(900, 1080, 60))
                            + drift_b(range(1080, 1260, 60), 5.0))


class TestMonitorMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(scenarios())
    @example((GRID_B, GAP_AT_FIXATION))
    @example((GRID_B, INVALID_BEFORE_ONSET))
    @example((GRID_B, DEVIATION_WHILE_REARMING))
    def test_events_or_error_identical(self, case):
        cfg, rows = case
        expected = replay(reference_run_monitor, cfg, rows)
        array = np.array(rows, dtype=float).reshape(-1, 3)
        assert replay(run_monitor, cfg, rows) == expected
        assert replay(run_monitor, cfg, array) == expected
        # one NumPy row at a time, as a traced read_pressure_stream yields them
        assert replay(run_monitor, cfg, (row for row in array)) == expected

    @pytest.mark.parametrize("rule", list(FixationRule))
    def test_long_stream(self, rule):
        """10^5 samples: quiet noise with technological ramps, gaps, bad
        readings and a rupture near the end."""
        rng = np.random.default_rng(3)
        n = 100_000
        t = np.cumsum(np.where(rng.random(n) < 4e-4, 180.0, 60.0)) - 3e5
        p_in = 14e4 + rng.uniform(-90.0, 90.0, n)
        p_out = 11e4 + rng.uniform(-90.0, 90.0, n)
        for start in rng.choice(np.arange(1000, n - 2000), 30, replace=False):
            ramp = 400.0 * np.arange(1, 6)
            p_in[start:start + 5] -= 12.0 * ramp
            p_out[start:start + 5] -= ramp
        bad = rng.choice(n, 50, replace=False)
        p_in[bad[:25]] = math.nan
        p_out[bad[25:]] = -1.0
        leak = n - 500
        p_in[leak:] -= 5.0 * 2100.0
        p_out[leak:] -= 2100.0
        rows = np.column_stack([t, p_in, p_out])
        cfg = MonitorConfig(spec=PIPELINE_B, layout=LAYOUT_B, eps_meas=100.0,
                            fixation_rule=rule)
        expected = replay(reference_run_monitor, cfg, rows.tolist())
        assert any("Verdict" in line for line in expected)
        assert replay(run_monitor, cfg, rows) == expected

    def test_long_growing_episode(self, monkeypatch):
        """10^5 samples with one episode whose |p - 1| grows for 5 * 10^4
        samples: each scanned valid sample is pushed exactly once."""
        n, j, grow = 100_000, 1000, 50_000
        k = np.arange(n, dtype=float)
        t = 60.0 * k - 3e5
        growth = np.clip(k - j + 1, 0, grow)  # 1 .. grow over the episode, then held
        drop_out = np.where(k >= j, 2000.0, 0.0)
        p_in = 14e4 - (1.0 + 1e-5 * growth) * drop_out
        p_out = 11e4 - drop_out
        bad = [j + 7, j + 20_000, j + grow + 3]
        p_in[bad] = math.nan
        rows = np.column_stack([t, p_in, p_out])
        pushed = []

        class Counting(monitor.EmpiricalFixation):
            def push(self, tau, p):
                pushed.append(tau)
                return super().push(tau, p)

        monkeypatch.setattr(monitor, "EmpiricalFixation", Counting)
        cfg = MonitorConfig(spec=PIPELINE_B, layout=LAYOUT_B, eps_meas=100.0,
                            fixation_rule=FixationRule.EMPIRICAL)
        got = replay(run_monitor, cfg, rows)
        expected = replay(reference_run_monitor, cfg, rows.tolist())
        decided = [line for line in expected if ",Fixation," in line or ",Verdict," in line]
        assert len(decided) == 2
        assert [line for line in got if line in decided] == decided
        assert got == expected
        # fixed at the sample after the last growing one, j + grow
        fixed_at = j + grow
        assert decided[0].startswith(f"{t[fixed_at]:.3f},Fixation,")
        assert len(pushed) == fixed_at - j + 1 - 2  # two bad readings in between
        assert pushed == sorted(set(pushed))

    @pytest.mark.parametrize("rule", list(FixationRule))
    @pytest.mark.parametrize("leak_offset", [0, -1])
    def test_long_wait_for_quiet(self, rule, leak_offset):
        """10^5 samples: a Technological step held deviating for 5 * 10^4
        samples, a quiet stretch, then a leak from the reference's re-arm
        sample r (it opens an episode there) or from r - 1 (it restarts the
        quiet clock, so nothing more is decided)."""
        n, j, held = 100_000, 1000, 50_000
        k = np.arange(n, dtype=float)
        t = 60.0 * k - 3e5
        p_in, p_out = np.full(n, 14e4), np.full(n, 11e4)
        p_in[j:j + held] -= 50.0 * 400.0  # ratio 50: Technological from tau = 60 s on
        p_out[j:j + held] -= 400.0
        p_in[j + 20_000] = 14e4 + 99.0  # one quiet sample: the clock starts, then restarts
        p_out[j + 20_000] = 11e4 - 99.0
        quiet = j + held
        p_in[[j + 3, j + 30_000, quiet + 2]] = math.nan
        # quiet from t[quiet]; quiet + 2 (120 s on) is a bad reading, so quiet + 3 ends it
        rearm = quiet + 4
        leak = rearm + leak_offset
        p_in[leak:] -= 5.0 * 2100.0
        p_out[leak:] -= 2100.0
        rows = np.column_stack([t, p_in, p_out])
        cfg = MonitorConfig(spec=PIPELINE_B, layout=LAYOUT_B, eps_meas=100.0,
                            fixation_rule=rule)
        expected = replay(reference_run_monitor, cfg, rows.tolist())
        verdicts = [line.split("verdict=")[1].split(";")[0]
                    for line in expected if ",Verdict," in line]
        opened = [line.split(",")[0] for line in expected if ",DeviationDetected," in line]
        if leak_offset == 0:
            assert verdicts == ["Technological", "Accident"]
            assert opened == [f"{t[j]:.3f}", f"{t[rearm]:.3f}"]
        else:
            assert verdicts == ["Technological"]
            assert opened == [f"{t[j]:.3f}"]
        assert replay(run_monitor, cfg, rows) == expected


# -- reader ----------------------------------------------------------------

TOKENS = ["0", "60", "-300", "140000", "1.5e5", "  7 ", "-0", "1_000", "nan", "-inf",
          "1e400", "", "#1", '"1"', "1d3"]
PADS = ["", " ", "\t", "\v", "\f"]
EOLS = [b"\n", b"\r\n", b"\r"]


@st.composite
def stream_files(draw):
    field = st.builds(lambda a, tok, b: a + tok + b,
                      st.sampled_from(PADS), st.sampled_from(TOKENS), st.sampled_from(PADS))
    line = st.one_of(
        st.lists(field, min_size=3, max_size=3).map(",".join),
        st.lists(field, min_size=3, max_size=3).map(";".join),
        st.lists(field, min_size=2, max_size=2).map(",".join),
        st.lists(field, min_size=4, max_size=4).map(",".join),
        st.sampled_from(["", "   ", "\t \v"]),
    )
    # mostly well-formed rows, so that whole files of them are drawn too
    good = st.tuples(st.integers(-5, 5), st.integers(1, 9), st.integers(1, 9)).map(
        lambda r: f"{60 * r[0]},{r[1]}e4,{r[2]}.5e4")
    lines = draw(st.lists(st.one_of(good, good, line), max_size=8))
    eol = draw(st.sampled_from(EOLS))
    body = HEADER + eol + eol.join(s.encode("ascii") for s in lines)
    if lines and draw(st.booleans()):
        body += eol
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(body)))
        body = body[:at] + b"\xe9" + body[at:]
    return body


def read_outcome(fn, path):
    try:
        rows = fn(path)
        return np.array(list(rows), dtype=float).reshape(-1, 3).tobytes()
    except StreamFormatError as exc:
        return type(exc), exc.line_no, str(exc)
    except ValueError as exc:
        return type(exc), str(exc)


class TestReaderMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(stream_files())
    def test_rows_or_error_identical(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("stream") / "s.csv"
        path.write_bytes(body)
        assert read_outcome(read_pressure_stream, path) == \
            read_outcome(reference_read_pressure_stream, path)

    @pytest.mark.parametrize("body", [
        b"1_000,140000,110000\n",         # NumPy rejects, float accepts
        b"0,140000,110000\n60,oops\n",    # a bad line after good ones
        b"",                              # header only
        b"\n  \n",                        # blank and whitespace-only lines
        b"0,1,2\n\n60,1,2\r\n",
    ])
    def test_fixed_bodies(self, tmp_path, body):
        path = tmp_path / "s.csv"
        path.write_bytes(HEADER + b"\n" + body)
        assert read_outcome(read_pressure_stream, path) == \
            read_outcome(reference_read_pressure_stream, path)

    def test_returns_float_array(self, replay_path):
        rows = read_pressure_stream(replay_path("pipeline_b_start_leak"))
        assert rows.dtype == np.float64 and rows.ndim == 2 and rows.shape[1] == 3
        assert rows.tolist() == [list(r) for r in
                                 reference_read_pressure_stream(
                                     replay_path("pipeline_b_start_leak"))]
