from __future__ import annotations

import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from leakline.cli import EXIT_NO_SIGNAL, EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION, main
from leakline.detection import PressureTrajectory, estimate_position
from leakline.model import PIPELINE_A, SeriesConfig, pressure_field
from leakline.scenario import load_scenario

GOLDEN = Path(__file__).parent / "golden"
BUNDLED = ["pipeline_a_start", "pipeline_a_mid", "pipeline_a_end",
           "pipeline_b_start", "pipeline_b_mid", "pipeline_b_end"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_rows(out):
    rows = {}
    for line in out.strip().splitlines()[1:]:
        t, pin, pout = line.split("\t")
        rows[float(t)] = (float(pin), float(pout))
    return rows


def grab(pattern, text):
    m = re.search(pattern, text)
    assert m, f"{pattern!r} not found in:\n{text}"
    return float(m.group(1))


class TestSimulate:
    def test_table_mode_anchors(self, capsys, scenario_path):
        code, out, _ = run(capsys, "simulate", scenario_path("pipeline_a_start"))
        assert code == EXIT_OK
        rows = table_rows(out)
        assert rows[100.0][0] == pytest.approx(52.23, abs=0.02)
        assert rows[100.0][1] == pytest.approx(25.00, abs=0.02)
        assert rows[900.0][0] == pytest.approx(44.13, abs=0.02)

    def test_table_mode_line_b_end(self, capsys, scenario_path):
        code, out, _ = run(capsys, "simulate", scenario_path("pipeline_b_end"))
        assert code == EXIT_OK
        rows = table_rows(out)
        assert rows[60.0] == (pytest.approx(13.97, abs=0.02), pytest.approx(10.37, abs=0.02))

    def test_single_steady_row(self, capsys, scenario_path, tmp_path):
        src = scenario_path("pipeline_b_mid")
        dst = tmp_path / "steady.cfg"
        text = open(src).read().replace("t_start = 60", "t_start = 0") \
                               .replace("t_end = 600", "t_end = 0")
        dst.write_text(text)
        code, out, _ = run(capsys, "simulate", str(dst))
        assert code == EXIT_OK
        rows = table_rows(out)
        assert rows == {0.0: (14.00, 11.00)}

    def test_csv_mode_full_precision(self, capsys, scenario_path, tmp_path):
        out_path = tmp_path / "sim.csv"
        code, _, _ = run(capsys, "simulate", scenario_path("pipeline_b_mid"),
                         "--csv", "--out", str(out_path))
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t_seconds,p_inlet_pa,p_outlet_pa"
        assert len(lines) == 11
        assert "." in lines[1].split(",")[1]  # full precision, not table-rounded

    def test_byte_stable_output(self, capsys, scenario_path, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "simulate", scenario_path("pipeline_a_mid"), "--csv", "--out", str(p1))
        run(capsys, "simulate", scenario_path("pipeline_a_mid"), "--csv", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    # The golden files pin the printed digits of the evaluator as it was before
    # pressure_field.  Regenerate them only after a deliberate change, with
    #   leakline simulate scenarios/<name>.cfg --csv --out tests/golden/<name>.simulate.csv
    #   leakline simulate scenarios/pipeline_b_mid.cfg --out /dev/null \
    #     --field tests/golden/pipeline_b_mid.field.csv
    @pytest.mark.parametrize("name", BUNDLED)
    def test_csv_matches_golden(self, capsys, scenario_path, tmp_path, name):
        out_path = tmp_path / "sim.csv"
        code, _, _ = run(capsys, "simulate", scenario_path(name), "--csv", "--out", str(out_path))
        assert code == EXIT_OK
        assert out_path.read_bytes() == (GOLDEN / f"{name}.simulate.csv").read_bytes()

    def test_field_dump_matches_golden(self, capsys, scenario_path, tmp_path):
        field = tmp_path / "field.csv"
        code, _, _ = run(capsys, "simulate", scenario_path("pipeline_b_mid"),
                         "--field", str(field))
        assert code == EXIT_OK
        assert field.read_bytes() == (GOLDEN / "pipeline_b_mid.field.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore::leakline.model.SeriesPrecisionWarning")
    @pytest.mark.parametrize("points", [1, 2, 7, 2000])
    @pytest.mark.parametrize("name,edit,nmax", [
        ("pipeline_a_start", None, None),
        ("pipeline_b_end", None, None),
        # the first instant, 0.5 s, lies below line A's early-time floor of 0.69 s
        ("pipeline_a_mid", ("t_start = 100", "t_start = 0.5"), None),
        ("pipeline_b_start", None, 2),
    ], ids=["A", "B", "A-early", "B-nmax2"])
    def test_field_dump_equals_per_value_formatting(self, capsys, scenario_path, tmp_path,
                                                    points, name, edit, nmax):
        path = tmp_path / f"{name}.cfg"
        text = Path(scenario_path(name)).read_text()
        path.write_text(text.replace(*edit) if edit else text)
        field = tmp_path / "field.csv"
        extra = ["--nmax", str(nmax)] if nmax else []
        code, _, _ = run(capsys, "simulate", str(path), "--field", str(field),
                         "--field-points", str(points), *extra)
        assert code == EXIT_OK
        sc = load_scenario(path)
        cfg = SeriesConfig(n_max=nmax or sc.series.n_max, tail_tol=sc.series.tail_tol)
        times = sc.run.times()
        xs = np.linspace(0.0, sc.spec.length, points).tolist()
        profiles = pressure_field(sc.spec, sc.leak, cfg, xs, times).tolist()
        rows = ["t_seconds,x_m,pressure_pa"] + [
            f"{t:g},{x:g},{p!r}" for t, profile in zip(times, profiles)
            for x, p in zip(xs, profile)]
        assert field.read_bytes() == ("\n".join(rows) + "\n").encode("ascii")

    def test_field_dump_memory_is_per_instant(self, capsys, scenario_path, tmp_path):
        # 2000 points x 60 instants: one instant's text at a time peaks near
        # 4 MB, while the row strings of the whole dump take about 19 MB
        path = tmp_path / "long.cfg"
        # g_leak = 5 keeps both ends positive to 3600 s (at the default g0 the
        # outlet is negative from 2280 s, which simulate rejects)
        path.write_text(Path(scenario_path("pipeline_b_mid")).read_text()
                        .replace("t_end = 600", "t_end = 3600")
                        .replace("ell2 = 1.5e4", "ell2 = 1.5e4\ng_leak = 5"))
        field = tmp_path / "field.csv"
        argv = ["simulate", str(path), "--out", str(tmp_path / "sim.txt"),
                "--field", str(field), "--field-points", "2000"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert field.read_bytes().count(b"\n") == 1 + 60 * 2000
        assert peak < 8e6

    def test_field_dump(self, capsys, scenario_path, tmp_path):
        field = tmp_path / "field.csv"
        code, _, _ = run(capsys, "simulate", scenario_path("pipeline_b_mid"),
                         "--field", str(field), "--field-points", "11")
        assert code == EXIT_OK
        lines = field.read_text().splitlines()
        assert lines[0] == "t_seconds,x_m,pressure_pa"
        assert len(lines) == 1 + 10 * 11

    def test_validation_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[pipeline]\np1 = 5\n")
        code, _, err = run(capsys, "simulate", str(bad))
        assert code == EXIT_VALIDATION
        assert "[pipeline]" in err

    def test_infinite_pipeline_value_exit_one(self, capsys, scenario_path, tmp_path):
        bad = tmp_path / "bad.cfg"
        text = Path(scenario_path("pipeline_b_start")).read_text()
        bad.write_text(text.replace("c = 383.3", "c = inf"))
        code, out, err = run(capsys, "simulate", str(bad))
        assert code == EXIT_VALIDATION
        assert out == "" and err == "error: [pipeline]: all values must be finite\n"


class TestLocate:
    def test_mid_leak_exact(self, capsys, scenario_path):
        code, out, _ = run(capsys, "locate", scenario_path("pipeline_b_mid"), "--at", "180")
        assert code == EXIT_OK
        assert grab(r"ell2_est = (\S+) m", out) == pytest.approx(1.50e4, abs=1.0)
        assert grab(r"rel_error_vs_true = (\S+)", out) == pytest.approx(0.0, abs=1e-6)
        assert "Accident" in out

    def test_mid_leak_time_independent(self, capsys, scenario_path):
        code, out, _ = run(capsys, "locate", scenario_path("pipeline_b_mid"), "--at", "60")
        assert code == EXIT_OK
        assert grab(r"ell2_est = (\S+) m", out) == pytest.approx(1.50e4, abs=1.0)

    def test_end_leak_within_len_fraction(self, capsys, scenario_path):
        code, out, _ = run(capsys, "locate", scenario_path("pipeline_a_end"),
                           "--at", "300", "--eps-meas", "1.0")
        assert code == EXIT_OK
        assert grab(r"ell2_est = (\S+) m", out) == pytest.approx(9.5e4, abs=0.01e4)
        assert grab(r"rel_error_vs_true = (\S+)", out) <= 0.04

    def test_observed_csv_reproduces_gauge_value(self, capsys, tmp_path):
        # gauge-resolution history of the near-outlet rupture on line A; its
        # inlet drop sits at the 100 Pa floor, where the model's own is 42 Pa,
        # so the estimate must follow these rows and not the scenario's leak
        rows = [(300, 54.99e4, 19.30e4), (400, 54.97e4, 18.21e4)]
        path = tmp_path / "obs.csv"
        path.write_text("t_seconds,p_inlet_pa,p_outlet_pa\n" +
                        "\n".join(f"{t},{a:g},{b:g}" for t, a, b in rows) + "\n")
        code, out, _ = run(capsys, "locate", str(scenario_a_end_path()), "--at", "300",
                           "--observed", str(path))
        assert code == EXIT_OK
        traj = PressureTrajectory(samples=tuple((float(t), a, b) for t, a, b in rows),
                                  baseline=(55e4, 25e4))
        want = estimate_position(PIPELINE_A, traj, 300.0).ell2_est
        got = grab(r"ell2_est = (\S+) m", out)
        assert got == float(f"{want:.6g}")
        code, out, _ = run(capsys, "locate", str(scenario_a_end_path()), "--at", "300",
                           "--eps-meas", "1.0")
        assert code == EXIT_OK
        assert abs(got - grab(r"ell2_est = (\S+) m", out)) > 0.01e4

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_observed_non_finite_exit_one(self, capsys, scenario_path, tmp_path, bad):
        path = tmp_path / "obs.csv"
        path.write_text(f"t_seconds,p_inlet_pa,p_outlet_pa\n60,{bad},110000\n120,133000,109700\n")
        code, _, err = run(capsys, "locate", scenario_path("pipeline_b_start"), "--at", "120",
                           "--observed", str(path))
        assert code == EXIT_VALIDATION
        assert "finite" in err

    def test_observed_header_only_exit_one(self, capsys, scenario_path, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t_seconds,p_inlet_pa,p_outlet_pa\n")
        code, out, err = run(capsys, "locate", scenario_path("pipeline_b_start"), "--at", "120",
                             "--observed", str(path))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", "error: need at least one sample\n")

    def test_scenario_stray_percent_exit_one(self, capsys, scenario_path, tmp_path):
        path = tmp_path / "pct.cfg"
        text = open(scenario_path("pipeline_b_start")).read()
        path.write_text(text.replace("p1 = 14e4", "p1 = 14e4 %", 1))
        code, out, err = run(capsys, "locate", str(path), "--at", "120")
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", "error: [pipeline].p1: bad interpolation: "
                                  "'%' must be followed by '%' or '(', found: '%'\n")

    def test_undefined_ratio_exit_two(self, capsys, scenario_path):
        # full-precision outlet deviation at 300 s sits below the 100 Pa floor
        code, _, err = run(capsys, "locate", scenario_path("pipeline_a_start"), "--at", "300")
        assert code == EXIT_NO_SIGNAL
        assert "below measurability floor" in err

    def test_band_printed_when_available(self, capsys, scenario_path):
        code, out, _ = run(capsys, "locate", scenario_path("pipeline_b_start"), "--at", "120")
        assert code == EXIT_OK
        assert "band = (" in out


def scenario_a_end_path():
    from conftest import SCENARIO_DIR
    return SCENARIO_DIR / "pipeline_a_end.cfg"


class TestRoundTrip:
    @pytest.mark.parametrize("name,ell2,t_fix", [
        ("pipeline_a_start", 0.5e4, 300.0),
        ("pipeline_a_mid", 5e4, 300.0),
        ("pipeline_a_end", 9.5e4, 300.0),
        ("pipeline_b_mid", 1.5e4, 120.0),
        ("pipeline_b_start", 0.5e4, 120.0),
        ("pipeline_b_end", 2.5e4, 120.0),
    ])
    def test_simulate_then_locate(self, capsys, scenario_path, tmp_path, name, ell2, t_fix):
        csv = tmp_path / "sim.csv"
        code, _, _ = run(capsys, "simulate", scenario_path(name), "--csv", "--out", str(csv))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "locate", scenario_path(name), "--at", str(t_fix),
                           "--observed", str(csv), "--eps-meas", "1.0")
        assert code == EXIT_OK
        est = grab(r"ell2_est = (\S+) m", out)
        sc_length = 10e4 if name.startswith("pipeline_a") else 3e4
        assert abs(est - ell2) / sc_length <= 0.04


class TestCurves:
    def test_three_curves_mid_constant_one(self, capsys, scenario_path, tmp_path):
        out_path = tmp_path / "curves.csv"
        code, _, _ = run(capsys, "curves", scenario_path("pipeline_a_start"),
                         scenario_path("pipeline_a_mid"), scenario_path("pipeline_a_end"),
                         "--eps-meas", "1.0", "--out", str(out_path))
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "scenario_id,t,p"
        mid = {float(t): v for sid, t, v in (l.split(",") for l in lines[1:])
               if sid == "pipeline_a_mid" and v}
        assert mid and all(abs(float(v) - 1.0) < 1e-6 for v in mid.values())

    def test_reciprocal_curves_multiply_to_one(self, capsys, scenario_path, tmp_path):
        out_path = tmp_path / "curves.csv"
        run(capsys, "curves", scenario_path("pipeline_b_start"),
            scenario_path("pipeline_b_end"), "--eps-meas", "1.0", "--out", str(out_path))
        values = {}
        for line in out_path.read_text().splitlines()[1:]:
            sid, t, v = line.split(",")
            if v:
                values.setdefault(float(t), {})[sid] = float(v)
        checked = 0
        for t, by_sid in values.items():
            if len(by_sid) == 2:
                product = by_sid["pipeline_b_start"] * by_sid["pipeline_b_end"]
                # CSV carries 9 significant digits, so allow that rounding
                assert product == pytest.approx(1.0, rel=1e-7)
                checked += 1
        assert checked >= 5

    def test_undefined_cells_empty(self, capsys, scenario_path, tmp_path):
        out_path = tmp_path / "curves.csv"
        run(capsys, "curves", scenario_path("pipeline_a_start"), "--out", str(out_path))
        first = out_path.read_text().splitlines()[1]
        assert first.endswith(",")  # outlet still quiet at t=100 -> empty cell

    def test_matches_golden(self, capsys, scenario_path):
        # regenerate after a deliberate change with
        #   leakline curves scenarios/pipeline_{a,b}_{start,mid,end}.cfg > tests/golden/curves.csv
        code, out, _ = run(capsys, "curves", *map(scenario_path, BUNDLED))
        assert code == EXIT_OK
        assert out.encode("ascii") == (GOLDEN / "curves.csv").read_bytes()

    def test_empty_scenario_set(self, capsys, tmp_path):
        out_path = tmp_path / "curves.csv"
        code, _, _ = run(capsys, "curves", "--out", str(out_path))
        assert code == EXIT_OK
        assert out_path.read_text() == "scenario_id,t,p\n"


class TestVerify:
    def test_default_grid_passes(self, capsys, scenario_path):
        code, out, _ = run(capsys, "verify", scenario_path("pipeline_a_start"),
                           "--nx", "500", "--t-end", "300", "--step", "100")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_tolerance_breach_exit_three(self, capsys, scenario_path):
        # the coarse grid's own error, about 6.8e-4, against a tolerance of 1e-6
        code, out, _ = run(capsys, "verify", scenario_path("pipeline_a_start"),
                           "--nx", "300", "--t-end", "50", "--step", "10", "--tol", "1e-6")
        assert code == EXIT_TOLERANCE
        assert "FAIL" in out
        assert grab(r"max rel error\s+: (\S+)", out) == pytest.approx(6.8e-4, rel=0.01)

    def test_zero_leak_trivial_pass(self, capsys, scenario_path, tmp_path):
        text = open(scenario_path("pipeline_a_start")).read() \
            .replace("ell2 = 0.5e4", "ell2 = 0.5e4\ng_leak = 0")
        path = tmp_path / "quiet.cfg"
        path.write_text(text)
        code, out, _ = run(capsys, "verify", str(path), "--nx", "300", "--t-end", "100")
        assert code == EXIT_OK

    def test_snapshots_stop_at_t_end(self, capsys, scenario_path):
        # a step that does not divide --t-end: the last snapshot is at 60 s, not 120 s
        code, out, err = run(capsys, "verify", scenario_path("pipeline_b_mid"),
                             "--nx", "300", "--t-end", "100", "--step", "60")
        assert code == EXIT_OK and err == ""
        assert "PASS" in out and "at t = 60 s" in out

    def test_step_longer_than_t_end_exit_one(self, capsys, scenario_path):
        code, out, err = run(capsys, "verify", scenario_path("pipeline_b_mid"),
                             "--nx", "300", "--t-end", "30", "--step", "50")
        assert code == EXIT_VALIDATION and out == ""
        assert err == "error: --step 50 exceeds --t-end 30: no snapshot time fits\n"


class TestMonitorCommand:
    def test_bundled_replay_accident(self, capsys, scenario_path, replay_path, tmp_path):
        log = tmp_path / "events.log"
        code, out, _ = run(capsys, "monitor", scenario_path("pipeline_b_start"),
                           "--stream", replay_path("pipeline_b_start_leak"),
                           "--log", str(log))
        assert code == EXIT_OK
        assert re.search(r"^120\.000,Verdict,.*verdict=Accident", out, re.M)
        assert "PlanIssued" in out
        assert log.read_text().startswith("t,kind,payload\n")

    def test_flat_replay_no_verdict(self, capsys, scenario_path, replay_path):
        code, out, _ = run(capsys, "monitor", scenario_path("pipeline_b_start"),
                           "--stream", replay_path("pipeline_b_flat"))
        assert code == EXIT_OK
        assert "Verdict" not in out

    @pytest.mark.parametrize("rule", ["grid", "empirical"])
    @pytest.mark.parametrize("replay", ["pipeline_b_start_leak", "pipeline_b_flat",
                                        "pipeline_b_tech_ramp"])
    def test_event_lines_match_golden(self, capsys, scenario_path, replay_path, replay, rule):
        # regenerate a golden file, after a deliberate change, with
        #   leakline monitor scenarios/pipeline_b_start.cfg \
        #     --stream scenarios/replays/<replay>.csv --rule <rule> > tests/golden/<replay>.<rule>.log
        code, out, _ = run(capsys, "monitor", scenario_path("pipeline_b_start"),
                           "--stream", replay_path(replay), "--rule", rule)
        assert code == EXIT_OK
        golden = GOLDEN / f"{replay}.{rule}.log"
        assert out.encode("ascii") == golden.read_bytes()

    def test_infinite_run_step_exit_one(self, capsys, scenario_path, replay_path, tmp_path):
        cfg = tmp_path / "inf_step.cfg"
        text = Path(scenario_path("pipeline_b_start")).read_text()
        cfg.write_text(re.sub(r"^step = .*$", "step = inf", text, count=1, flags=re.M))
        code, out, err = run(capsys, "monitor", str(cfg),
                             "--stream", replay_path("pipeline_b_start_leak"))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: [run]: step must be finite\n"

    def test_malformed_csv_exit_one(self, capsys, scenario_path, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_seconds,p_inlet_pa,p_outlet_pa\n0,140000,110000\nnope\n")
        code, _, err = run(capsys, "monitor", scenario_path("pipeline_b_start"),
                           "--stream", str(bad))
        assert code == EXIT_VALIDATION
        assert "line 3" in err

    def test_malformed_line_reported_before_disorder(self, capsys, scenario_path, tmp_path):
        # the stream is read whole before replay, so a malformed line is
        # reported even when an out-of-order timestamp comes before it
        bad = tmp_path / "bad.csv"
        bad.write_text("t_seconds,p_inlet_pa,p_outlet_pa\n0,140000,110000\n"
                       "60,140000,110000\n30,140000,110000\nnope\n")
        code, out, err = run(capsys, "monitor", scenario_path("pipeline_b_start"),
                             "--stream", str(bad))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: line 5: expected 3 fields, got 1\n"


class TestWarnings:
    @pytest.mark.parametrize("command", ["curves", "simulate"])
    def test_one_line_per_warning(self, capsys, scenario_path, command):
        shown = warnings.showwarning
        code, _, err = run(capsys, command, scenario_path("pipeline_a_start"), "--nmax", "1")
        assert code == EXIT_OK
        lines = err.splitlines()
        assert lines and all(re.fullmatch(r"warning: series tail .* with n_max = 1", line)
                             for line in lines)
        assert ".py" not in err
        # the format is main's alone: the process-wide hook is back as it was
        assert warnings.showwarning is shown


class TestUsageErrors:
    def test_unknown_variant_exit_one(self, capsys, scenario_path):
        # there is one series formulation, so no --variant flag at all
        for variant in ("reconciled", "as_printed"):
            code, out, err = run(capsys, "simulate", scenario_path("pipeline_a_start"),
                                 "--variant", variant)
            assert code == EXIT_VALIDATION
            assert out == ""
            assert f"error: unrecognized arguments: --variant {variant}" in err

    def test_missing_subcommand_argument(self, capsys):
        code, _, err = run(capsys, "locate")
        assert code == EXIT_VALIDATION

    def test_verify_zero_step_exit_one(self, capsys, scenario_path):
        code, out, err = run(capsys, "verify", scenario_path("pipeline_a_mid"), "--step", "0")
        assert code == EXIT_VALIDATION
        assert out == "" and err.startswith("error: --step must be > 0")

    @pytest.mark.parametrize("value,message", [
        ("-5", "must be > 0, got -5"), ("0", "must be > 0, got 0"),
        ("nan", "must be > 0, got nan"), ("inf", "must be finite, got inf"),
    ])
    @pytest.mark.parametrize("command,flag", [
        ("locate", "--eps-meas"), ("curves", "--eps-meas"), ("monitor", "--eps-meas"),
        ("monitor", "--step"), ("verify", "--step"), ("verify", "--tol"),
        ("verify", "--t-end"),
    ])
    def test_bad_positive_flag_exit_one(self, capsys, scenario_path, replay_path,
                                        command, flag, value, message):
        extra = {"locate": ["--at", "300"], "curves": [], "verify": ["--nx", "100"],
                 "monitor": ["--stream", replay_path("pipeline_b_start_leak")]}[command]
        code, out, err = run(capsys, command, scenario_path("pipeline_b_start"), *extra,
                             flag, value)
        assert code == EXIT_VALIDATION
        assert out == "" and err == f"error: {flag} {message}\n"

    @pytest.mark.parametrize("command,extra", [
        ("simulate", []), ("locate", ["--at", "300"]), ("curves", []),
        ("verify", ["--nx", "100"]),
    ])
    def test_nmax_above_limit_exit_one(self, capsys, scenario_path, command, extra):
        # rejected while building the series config, before any array is sized by it
        code, out, err = run(capsys, command, scenario_path("pipeline_b_start"), *extra,
                             "--nmax", "1000000000000")
        assert code == EXIT_VALIDATION
        assert out == "" and err == "error: n_max must be <= 4096, got 1000000000000\n"

    @pytest.mark.parametrize("command,extra", [("curves", []), ("locate", ["--at", "120"]),
                                               ("simulate", [])])
    def test_non_positive_pressure_named_exit_one(self, capsys, scenario_path, tmp_path,
                                                  command, extra):
        # g_leak = 400 outgrows line B's linear model: the inlet is negative at 60 s
        bad = tmp_path / "overdrawn.cfg"
        bad.write_text(Path(scenario_path("pipeline_b_start")).read_text()
                       .replace("ell2 = 0.5e4", "ell2 = 0.5e4\ng_leak = 400"))
        code, out, err = run(capsys, command, str(bad), *extra)
        assert code == EXIT_VALIDATION and out == ""
        assert err == "error: pressures must be positive: inlet -113469 Pa at t = 60 s\n"

    def test_curves_names_the_failing_scenario(self, capsys, scenario_path, tmp_path):
        good = scenario_path("pipeline_b_start")
        bad = tmp_path / "overdrawn.cfg"
        bad.write_text(Path(good).read_text()
                       .replace("ell2 = 0.5e4", "ell2 = 0.5e4\ng_leak = 400"))
        code, out, err = run(capsys, "curves", good, str(bad))
        assert code == EXIT_VALIDATION and out == ""
        assert err == (f"error: {bad}: pressures must be positive: "
                       "inlet -113469 Pa at t = 60 s\n")
        missing = tmp_path / "missing.cfg"  # a message that names its file already
        code, _, err = run(capsys, "curves", good, str(missing))
        assert code == EXIT_VALIDATION
        assert err == f"error: {missing}: scenario file not found\n"

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_field_points_below_one_exit_one(self, capsys, scenario_path, tmp_path, points):
        field = tmp_path / "field.csv"
        code, out, err = run(capsys, "simulate", scenario_path("pipeline_b_mid"),
                             "--field", str(field), "--field-points", points)
        assert code == EXIT_VALIDATION
        assert out == "" and err.startswith("error: --field-points must be >= 1")
        assert not field.exists()


class TestModuleEntryPoint:
    """`python -m leakline` runs cli.main in a fresh interpreter and exits with its code."""

    @staticmethod
    def run_module(*argv):
        from conftest import REPO
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        return subprocess.run([sys.executable, "-m", "leakline", *argv], cwd=REPO, env=env,
                              capture_output=True, timeout=120)

    def test_simulate_csv_matches_golden(self):
        result = self.run_module("simulate", "scenarios/pipeline_b_start.cfg", "--csv")
        assert result.returncode == EXIT_OK and result.stderr == b""
        assert result.stdout == (GOLDEN / "pipeline_b_start.simulate.csv").read_bytes()

    def test_usage_error_exit_one(self):
        result = self.run_module("simulate")
        assert result.returncode == EXIT_VALIDATION and result.stdout == b""
        assert result.stderr.endswith(
            b"leakline simulate: error: the following arguments are required: scenario\n")
