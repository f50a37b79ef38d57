from __future__ import annotations

import math
import re

import numpy as np
import pytest

from leakline.cli import main
from leakline.detection import PressureTrajectory, Verdict, fixation_time_empirical
from leakline.isolation import ConnectorValve, ValveLayout
from leakline.model import PIPELINE_A, PIPELINE_B
from leakline.monitor import (
    EventKind,
    EventLogError,
    FixationRule,
    MonitorConfig,
    StreamFormatError,
    StreamOrderError,
    append_event_log,
    format_event,
    read_pressure_stream,
    run_monitor,
)

LAYOUT_B = ValveLayout(
    line_valves=tuple(0.5e4 * k for k in range(7)),
    connector_valves=(ConnectorValve(0.75e4, "c1"), ConnectorValve(2.25e4, "c2")),
)


def config(**kw):
    defaults = dict(spec=PIPELINE_B, layout=LAYOUT_B, sampling_step=60.0,
                    eps_meas=100.0, fixation_rule=FixationRule.GRID)
    defaults.update(kw)
    return MonitorConfig(**defaults)


def quiet_prefix():
    return [(-300.0 + 60.0 * k, 14e4, 11e4) for k in range(6)]  # t = -300 .. 0


def kinds(events):
    return [e.kind for e in events]


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["sampling_step", "eps_meas"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be > 0 and finite"):
            config(**{field: value})


    def test_layout_must_end_at_pipeline_end(self):
        with pytest.raises(ValueError) as info:
            config(spec=PIPELINE_A)  # the 30 km line-B layout on the 100 km line A
        assert str(info.value) == ("last valve at 30000 m must sit at the "
                                   "pipeline end 100000 m")

    def test_layout_end_within_relative_tolerance_accepted(self):
        near = ValveLayout(line_valves=(0.0, 1.5e4, 3e4 * (1 + 5e-7)))
        assert config(layout=near).layout is near
        assert config(layout=None).layout is None


class TestLeakReplay:
    def test_bundled_leak_stream(self, replay_path):
        stream = list(read_pressure_stream(replay_path("pipeline_b_start_leak")))
        events = run_monitor(config(), stream)
        assert kinds(events) == [EventKind.BASELINE, EventKind.DEVIATION_DETECTED,
                                 EventKind.FIXATION, EventKind.VERDICT,
                                 EventKind.PLAN_ISSUED]
        verdict = events[3]
        assert verdict.t == 120.0
        assert verdict.payload["verdict"] is Verdict.ACCIDENT
        assert verdict.payload["tau"] == 120.0
        # the series root, within criterion 5's 4 % of the true 0.5e4
        assert verdict.payload["ell2_est"] == pytest.approx(0.5e4, abs=0.04 * PIPELINE_B.length)
        assert verdict.payload["orientation"] == "inlet-half"
        plan = events[4]
        assert plan.payload["close"] == (0.5e4, 1e4)
        assert plan.payload["open"] == ("c2",)
        lo, hi = plan.payload["span"]
        assert lo <= 0.5e4 <= hi

    def test_position_matches_locate(self, replay_path, scenario_path, capsys):
        replay = replay_path("pipeline_b_start_leak")
        events = run_monitor(config(), read_pressure_stream(replay))
        verdict = next(e for e in events if e.kind is EventKind.VERDICT)
        assert main(["locate", scenario_path("pipeline_b_start"), "--observed", replay,
                     "--at", "120"]) == 0
        located = re.search(r"^ell2_est = (\S+) m$", capsys.readouterr().out, re.M)
        assert f"{verdict.payload['ell2_est']:.6g}" == located.group(1)

    def test_no_verdict_before_fixation(self, replay_path):
        stream = list(read_pressure_stream(replay_path("pipeline_b_start_leak")))
        events = run_monitor(config(), stream)
        for e in events:
            if e.kind is EventKind.VERDICT:
                assert e.t - e.payload["t_onset"] >= 120.0

    def test_determinism(self, replay_path):
        stream = list(read_pressure_stream(replay_path("pipeline_b_start_leak")))
        a = run_monitor(config(), stream)
        b = run_monitor(config(), stream)
        assert [format_event(e) for e in a] == [format_event(e) for e in b]


class TestFlatAndRamp:
    def test_flat_stream_baseline_only(self, replay_path):
        stream = list(read_pressure_stream(replay_path("pipeline_b_flat")))
        events = run_monitor(config(), stream)
        assert kinds(events) == [EventKind.BASELINE]

    def test_technological_ramp_no_plan(self, replay_path):
        stream = list(read_pressure_stream(replay_path("pipeline_b_tech_ramp")))
        events = run_monitor(config(), stream)
        verdicts = [e for e in events if e.kind is EventKind.VERDICT]
        assert len(verdicts) == 1
        assert verdicts[0].payload["verdict"] is Verdict.TECHNOLOGICAL
        assert not any(e.kind is EventKind.PLAN_ISSUED for e in events)

    def test_rearm_after_technological(self):
        # ramp outside the band, then quiet for a full fixation interval,
        # then a genuine leak-shaped deviation: two verdicts total
        rows = quiet_prefix()
        for k in range(1, 4):
            t = 60.0 * k
            rows.append((t, 14e4 - 12.0 * 200.0 * k, 11e4 - 200.0 * k))
        for k in range(4, 8):  # quiet again
            rows.append((60.0 * k, 14e4, 11e4))
        for k in range(8, 12):  # ratio 2 deviation, inside the band
            step = k - 7
            rows.append((60.0 * k, 14e4 - 2.0 * 1000.0 * step, 11e4 - 1000.0 * step))
        events = run_monitor(config(), rows)
        verdicts = [e.payload["verdict"] for e in events if e.kind is EventKind.VERDICT]
        assert verdicts == [Verdict.TECHNOLOGICAL, Verdict.ACCIDENT]


class TestEmpiricalRule:
    def test_empirical_fixation_on_leak(self, replay_path):
        stream = list(read_pressure_stream(replay_path("pipeline_b_start_leak")))
        events = run_monitor(config(fixation_rule=FixationRule.EMPIRICAL,
                                    eps_meas=0.05e4), stream)
        fixation = next(e for e in events if e.kind is EventKind.FIXATION)
        assert fixation.payload["tau"] == 120.0
        verdict = next(e for e in events if e.kind is EventKind.VERDICT)
        assert verdict.payload["verdict"] is Verdict.ACCIDENT

    @pytest.mark.parametrize("eps_meas", [100.0, 0.05e4, 0.2e4])
    def test_stream_and_batch_rules_agree(self, replay_path, eps_meas):
        # the replay's onset is t = 0, so the stream's tau is the batch's t
        stream = list(read_pressure_stream(replay_path("pipeline_b_start_leak")))
        events = run_monitor(config(fixation_rule=FixationRule.EMPIRICAL,
                                    eps_meas=eps_meas), stream)
        fixation = next(e for e in events if e.kind is EventKind.FIXATION)
        traj = PressureTrajectory(samples=tuple(r for r in stream if r[0] > 0),
                                  baseline=(14e4, 11e4))
        assert fixation.payload["tau"] == fixation_time_empirical(traj, eps_meas=eps_meas)

    def test_point_before_gap_not_fixed(self):
        # p = 1.5, 3 | gap | 3, 2.5, 2: the point at 120 s is the largest
        # |p - 1| so far but nothing confirms it within one step
        ratios = {60.0: 1.5, 120.0: 3.0, 300.0: 3.0, 360.0: 2.5, 420.0: 2.0}
        rows = [(t, 14e4 - 1000.0 * p, 11e4 - 1000.0) for t, p in ratios.items()]
        traj = PressureTrajectory(samples=tuple(rows), baseline=(14e4, 11e4))
        assert fixation_time_empirical(traj, eps_meas=100.0) == 300.0
        events = run_monitor(config(fixation_rule=FixationRule.EMPIRICAL),
                             quiet_prefix() + rows)
        fixation = next(e for e in events if e.kind is EventKind.FIXATION)
        assert fixation.payload["tau"] == 300.0


class TestBadReadings:
    """Invalid readings are reported and never decide anything."""

    def leak_rows(self, replay_path):
        return list(read_pressure_stream(replay_path("pipeline_b_start_leak")))

    def dq_warnings(self, events):
        return [e.payload["warning"] for e in events if e.kind is EventKind.DATA_QUALITY]

    def test_nan_inlet_during_rupture(self, replay_path):
        rows = self.leak_rows(replay_path)
        i = next(i for i, r in enumerate(rows) if r[0] == 120.0)
        rows[i] = (120.0, math.nan, rows[i][2])
        events = run_monitor(config(), rows)
        assert any("invalid reading" in w for w in self.dq_warnings(events))
        verdict = next(e for e in events if e.kind is EventKind.VERDICT)
        assert verdict.payload["verdict"] is Verdict.ACCIDENT
        assert verdict.payload["tau"] == 180.0  # the next valid sample

    def test_nan_baseline_samples_skipped(self, replay_path):
        rows = self.leak_rows(replay_path)
        nans = [(-480.0 + 60.0 * k, math.nan, math.nan) for k in range(3)]
        events = run_monitor(config(), nans + rows)
        assert len(self.dq_warnings(events)) == 3
        baseline = next(e for e in events if e.kind is EventKind.BASELINE)
        assert (baseline.payload["p_inlet"], baseline.payload["p_outlet"]) == (14e4, 11e4)
        assert next(e for e in events if e.kind is EventKind.VERDICT).payload["verdict"] \
            is Verdict.ACCIDENT

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, -5.0, 0.0])
    def test_repeated_invalid_readings_decide_nothing(self, bad):
        rows = quiet_prefix() + [(60.0 * k, bad, bad) for k in range(1, 11)]
        events = run_monitor(config(), rows)
        assert kinds(events) == [EventKind.BASELINE] + [EventKind.DATA_QUALITY] * 10

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_timestamp_aborts(self, bad):
        rows = quiet_prefix() + [(bad, 13.37e4, 10.97e4)]
        with pytest.raises(StreamOrderError, match="not a finite time"):
            run_monitor(config(), rows)


class TestStreamHygiene:
    def test_gap_warning(self):
        rows = quiet_prefix() + [(60.0, 13.37e4, 10.97e4), (300.0, 11.99e4, 9.98e4)]
        events = run_monitor(config(), rows)
        assert any(e.kind is EventKind.DATA_QUALITY and "gap" in e.payload["warning"]
                   for e in events)

    def test_non_monotone_aborts(self):
        rows = quiet_prefix() + [(60.0, 13.37e4, 10.97e4), (60.0, 13.0e4, 10.8e4)]
        with pytest.raises(StreamOrderError):
            run_monitor(config(), rows)

    @pytest.mark.parametrize("rows", [
        [(0.0, 14e4), (60.0, 14e4)],                        # two fields
        [(0.0, 14e4, 11e4, 1.0), (60.0, 14e4, 11e4, 1.0)],  # four fields
        [0.0, 14e4, 11e4],                                  # one flat triple
        [(0.0, "14e4", 11e4), (60.0, 14e4, 11e4)],          # a string, not a number
        [(0.0, 14e4, 11e4), (60.0, 14e4)],                  # ragged rows
        np.array([0.0, 14e4, 11e4]),                        # a flat array
    ])
    def test_library_stream_must_be_number_triples(self, rows):
        with pytest.raises(ValueError) as info:
            run_monitor(config(), rows)
        assert str(info.value) == "stream must be (t, p_inlet, p_outlet) triples of numbers"

    @pytest.mark.parametrize("rows", [[], (), np.empty((0, 3))])
    def test_empty_stream_no_events(self, rows):
        assert run_monitor(config(), rows) == []

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,140000,110000\n")
        with pytest.raises(StreamFormatError, match="line 1"):
            list(read_pressure_stream(path))

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_seconds,p_inlet_pa,p_outlet_pa\n0,140000,110000\n60,oops\n")
        with pytest.raises(StreamFormatError, match="line 3"):
            list(read_pressure_stream(path))


class TestEventLog:
    def test_empty_events_header_only(self, tmp_path):
        path = tmp_path / "events.log"
        append_event_log(path, [])
        assert path.read_text() == "t,kind,payload\n"

    def test_sequential_runs_append(self, tmp_path, replay_path):
        path = tmp_path / "events.log"
        stream = list(read_pressure_stream(replay_path("pipeline_b_start_leak")))
        events = run_monitor(config(), stream)
        append_event_log(path, events)
        first = path.read_text()
        append_event_log(path, events)
        second = path.read_text()
        assert second == first + first[len("t,kind,payload\n"):]

    def test_rerun_is_byte_identical(self, tmp_path, replay_path):
        stream = list(read_pressure_stream(replay_path("pipeline_b_start_leak")))
        events = run_monitor(config(), stream)
        p1, p2 = tmp_path / "a.log", tmp_path / "b.log"
        append_event_log(p1, events)
        append_event_log(p2, run_monitor(config(), stream))
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_destination_reported(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "events.log"
        with pytest.raises(EventLogError):
            append_event_log(target, [])
