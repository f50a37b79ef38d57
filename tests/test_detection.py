from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakline.detection import (
    EmpiricalFixation,
    PressureTrajectory,
    UndefinedCause,
    Verdict,
    _series_log_ratio,
    admissible_band,
    classify_regime,
    estimate_position,
    first_band_time,
    fixation_time,
    fixation_time_empirical,
    min_information_latency,
    position_gain,
    pressure_ratio,
    ratio_from_deviations,
    simulate_trajectory,
    theta_from_ratio,
)
from leakline.model import (
    DEFAULT_SERIES,
    PIPELINE_A,
    PIPELINE_B,
    LeakScenario,
    PipelineSpec,
    SeriesConfig,
    SeriesPrecisionWarning,
    early_time_floor,
    pressure_profile,
)
from leakline.monitor import read_pressure_stream
from leakline.oracle import FdGrid, fd_solve
from leakline.scenario import load_scenario

from reference_tables import (
    LOCALIZATION_A,
    LOCALIZATION_B,
    TABLE_A,
    TABLE_B,
    trajectory_from_gauge_rows,
)

CFG = SeriesConfig()
BASE_A = (55e4, 25e4)
BASE_B = (14e4, 11e4)


def traj_a(ell2):
    return trajectory_from_gauge_rows(TABLE_A[ell2], BASE_A)


def traj_b(ell2):
    return trajectory_from_gauge_rows(TABLE_B[ell2], BASE_B)


class TestPressureRatio:
    def test_mid_leak_ratio_is_one(self):
        rp = pressure_ratio(traj_a(5e4), 300.0)
        assert rp.defined and rp.p == pytest.approx(1.00, abs=1e-9)

    def test_line_b_start_ratio(self):
        rp = pressure_ratio(traj_b(0.5e4), 120.0)
        assert rp.defined and rp.p == pytest.approx(5.00, abs=1e-9)

    def test_equal_deviations_give_one(self):
        traj = PressureTrajectory(samples=((0.0, 54e4, 24e4),), baseline=BASE_A)
        assert pressure_ratio(traj, 0.0).p == pytest.approx(1.0)

    def test_below_floor_undefined(self):
        rp = pressure_ratio(traj_a(0.5e4), 100.0)  # outlet still at 25.00
        assert not rp.defined and rp.cause is UndefinedCause.BELOW_FLOOR
        assert math.isnan(rp.p)

    def test_pressure_rise_distinct_cause(self):
        traj = PressureTrajectory(samples=((0.0, 56e4, 24e4),), baseline=BASE_A)
        rp = pressure_ratio(traj, 0.0)
        assert not rp.defined and rp.cause is UndefinedCause.NEGATIVE_DEVIATION

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        lambda traj, eps: pressure_ratio(traj, 0.0, eps),
        lambda traj, eps: pressure_ratio(traj, 1e6, eps),  # out of span: eps is checked first
        lambda traj, eps: fixation_time_empirical(traj, eps),
        lambda traj, eps: estimate_position(PIPELINE_A, traj, 0.0, eps),
    ])
    def test_bad_floor_rejected(self, call, bad):
        # both ends at baseline: a zero floor used to divide by the zero drop
        traj = PressureTrajectory(samples=((0.0, *BASE_A), (60.0, 54e4, 24e4)),
                                  baseline=BASE_A)
        with pytest.raises(ValueError, match=r"eps_meas must be > 0 and finite, got "):
            call(traj, bad)

    @pytest.mark.parametrize("dev_in,dev_out", [(math.nan, 300.0), (500.0, math.inf),
                                                (-math.inf, 300.0), (math.inf, 300.0)])
    def test_non_finite_deviation_undefined(self, dev_in, dev_out):
        rp = ratio_from_deviations(dev_in, dev_out, 120.0, 100.0)
        assert not rp.defined and rp.cause is UndefinedCause.NON_FINITE
        assert math.isnan(rp.p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_trajectory_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PressureTrajectory(samples=((60.0, bad, 24e4),), baseline=BASE_A)
        with pytest.raises(ValueError, match="finite"):
            PressureTrajectory(samples=((60.0, 54e4, bad),), baseline=BASE_A)

    def test_trajectory_rejects_empty(self):
        with pytest.raises(ValueError, match="need at least one sample"):
            PressureTrajectory(samples=(), baseline=BASE_A)

    def test_outside_span_rejected(self):
        with pytest.raises(ValueError, match="span"):
            pressure_ratio(traj_a(0.5e4), 1200.0)

    def test_samples_are_one_read_only_array(self, tmp_path):
        ref = traj_a(0.5e4)  # built from a tuple of tuples
        path = tmp_path / "observed.csv"
        path.write_text("t_seconds,p_inlet_pa,p_outlet_pa\n" + "".join(
            f"{t!r},{a!r},{b!r}\n" for t, a, b in ref.samples.tolist()))
        stream = read_pressure_stream(path)
        for samples in (list(stream), stream):  # NumPy rows, then the reader's array
            traj = PressureTrajectory(samples=samples, baseline=BASE_A)
            assert traj.samples.dtype == np.float64 and traj.samples.shape == (len(stream), 3)
            assert not traj.samples.flags.writeable
            assert np.array_equal(traj.samples, ref.samples)
        assert stream.flags.writeable  # the caller's array is copied, not frozen
        with pytest.raises(ValueError, match="read-only"):
            ref.samples[0, 1] = 0.0

    @pytest.mark.parametrize("samples", [
        ((0.0, 54e4),), ((0.0, 54e4, 24e4, 1.0),), ((0.0, 54e4, 24e4), (60.0, 54e4)),
        ((0.0, "54e4", 24e4),),
    ], ids=["2-field", "4-field", "ragged", "string"])
    def test_trajectory_rejects_rows_that_are_not_numeric_triples(self, samples):
        with pytest.raises(ValueError, match=r"^samples must be \(t, p_inlet, p_outlet\) "
                                             r"triples of numbers$"):
            PressureTrajectory(samples=samples, baseline=BASE_A)

    @pytest.mark.parametrize("samples,where", [
        (((0.0, 54e4, 24e4), (60.0, 53e4, -2.5), (120.0, -1.0, -1.0)), "outlet -2.5 Pa at t = 60 s"),
        (((0.0, 54e4, 24e4), (60.0, 0.0, 0.0)), "inlet 0 Pa at t = 60 s"),
        (((30.5, -1234567.0, 24e4),), "inlet -1.23457e+06 Pa at t = 30.5 s"),
    ], ids=["outlet", "both-ends", "first-sample"])
    def test_trajectory_names_the_first_non_positive_pressure(self, samples, where):
        with pytest.raises(ValueError) as exc:
            PressureTrajectory(samples=samples, baseline=BASE_A)
        assert str(exc.value) == f"pressures must be positive: {where}"

    def test_lookup_is_exact_up_to_round_off(self):
        traj = traj_a(0.5e4)
        assert pressure_ratio(traj, 300.0 * (1 + 1e-12)).p == pressure_ratio(traj, 300.0).p
        with pytest.raises(ValueError, match="no sample at t = 301 s"):
            pressure_ratio(traj, 301.0)


class TestSimulateTrajectory:
    @pytest.mark.parametrize("name", ["pipeline_a_start", "pipeline_a_mid", "pipeline_a_end",
                                      "pipeline_b_start", "pipeline_b_mid", "pipeline_b_end"])
    def test_quantum_rounds_like_python_round(self, scenario_path, name):
        # np.round and round both take ties to even, element for element
        sc = load_scenario(scenario_path(name))
        args = (sc.spec, sc.require_leak(), sc.series, sc.require_run().times())
        exact = simulate_trajectory(*args).samples.tolist()
        gauge = simulate_trajectory(*args, quantum=100).samples.tolist()
        assert gauge == [[t, round(a / 100) * 100, round(b / 100) * 100] for t, a, b in exact]

    def test_quantum_tie_goes_to_even(self):
        # at t = 0 the inlet is exactly 14e4 Pa, 2.5 quanta of 56e3 Pa
        leak = LeakScenario(ell2=1.5e4, g_leak=10.0)
        traj = simulate_trajectory(PIPELINE_B, leak, CFG, [0.0], quantum=56e3)
        assert traj.samples.tolist() == [[0.0, 2 * 56e3, 2 * 56e3]]


class TestPositionGain:
    def test_late_time_limit(self):
        assert position_gain(PIPELINE_A, 1e9) == pytest.approx(2.0 / 3.0)

    def test_line_a_at_fixation(self):
        assert position_gain(PIPELINE_A, 300.0) == pytest.approx(0.4468, abs=1e-3)

    def test_line_b_at_fixation(self):
        assert position_gain(PIPELINE_B, 120.0) == pytest.approx(0.6102, abs=1e-3)

    def test_monotone_increasing(self):
        ts = [10.0 * k for k in range(1, 200)]
        gains = [position_gain(PIPELINE_A, t) for t in ts]
        assert all(b > a for a, b in zip(gains, gains[1:]))


class TestThetaFromRatio:
    def test_unit_ratio_centre(self):
        for t in (60.0, 300.0, 5000.0):
            assert theta_from_ratio(PIPELINE_A, 1.0, t).theta == pytest.approx(0.5)

    def test_near_inlet_estimate(self):
        tv = theta_from_ratio(PIPELINE_A, 570.0, 300.0)
        assert tv.theta == pytest.approx(0.0548, abs=5e-4)
        assert tv.theta * PIPELINE_A.length == pytest.approx(0.55e4, abs=0.01e4)

    def test_near_outlet_estimate(self):
        tv = theta_from_ratio(PIPELINE_A, 0.01 / 5.70, 300.0)
        assert tv.theta == pytest.approx(0.945, abs=5e-4)

    def test_line_b_estimate(self):
        tv = theta_from_ratio(PIPELINE_B, 5.00, 120.0)
        assert tv.theta * PIPELINE_B.length == pytest.approx(0.28e4, abs=0.01e4)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError):
            theta_from_ratio(PIPELINE_A, 0.0, 300.0)

    @given(p=st.floats(1e-3, 1e3), t=st.floats(0.0, 5000.0))
    @settings(max_examples=100, deadline=None)
    def test_reciprocal_symmetry(self, p, t):
        a = theta_from_ratio(PIPELINE_A, p, t).theta
        b = theta_from_ratio(PIPELINE_A, 1.0 / p, t).theta
        assert a + b == pytest.approx(1.0, abs=1e-9)

    def test_strictly_decreasing_in_ratio(self):
        ps = [0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0]
        thetas = [theta_from_ratio(PIPELINE_A, p, 300.0).theta for p in ps]
        assert all(b < a for a, b in zip(thetas, thetas[1:]))

    def test_out_of_range_flagged_not_clamped(self):
        tv = theta_from_ratio(PIPELINE_A, 0.0428, 800.0)  # late-time end-leak row
        assert not tv.in_range and tv.theta > 1.0


class TestGoldenLocalization:
    @pytest.mark.parametrize("ell2", sorted(LOCALIZATION_A))
    def test_line_a_rows(self, ell2):
        traj = traj_a(ell2)
        for t, expected_1e4 in LOCALIZATION_A[ell2]:
            rp = pressure_ratio(traj, float(t))
            assert rp.defined, (ell2, t)
            tv = theta_from_ratio(PIPELINE_A, rp.p, float(t))
            assert tv.theta * PIPELINE_A.length == pytest.approx(
                expected_1e4 * 1e4, abs=0.01e4), (ell2, t)

    @pytest.mark.parametrize("ell2", sorted(LOCALIZATION_B))
    def test_line_b_rows(self, ell2):
        traj = traj_b(ell2)
        for t, expected_1e4 in LOCALIZATION_B[ell2]:
            rp = pressure_ratio(traj, float(t))
            assert rp.defined, (ell2, t)
            tv = theta_from_ratio(PIPELINE_B, rp.p, float(t))
            assert tv.theta * PIPELINE_B.length == pytest.approx(
                expected_1e4 * 1e4, abs=0.01e4), (ell2, t)


class TestAdmissibleBand:
    def test_late_time_limits(self):
        band = admissible_band(PIPELINE_A, 1e9)
        assert band.lo == pytest.approx(1.0 / 7.0)
        assert band.hi == pytest.approx(7.0)

    def test_unavailable_at_line_a_fixation(self):
        assert admissible_band(PIPELINE_A, 300.0) is None

    def test_first_valid_band_after_threshold(self):
        t_star = first_band_time(PIPELINE_A)
        assert admissible_band(PIPELINE_A, t_star - 1.0) is None
        band = admissible_band(PIPELINE_A, t_star + 1.0)
        assert band is not None and band.lo == pytest.approx(1.0 / band.hi)

    @pytest.mark.parametrize("spec", [
        PIPELINE_A, PIPELINE_B,
        PipelineSpec(p_inlet_0=55e4, p_outlet_0=25e4, length=1e4, g0=300.0,
                     sound_speed=1e9, two_a=0.1)])  # the crossing is at 7.75e-13 s
    def test_first_band_time_is_the_crossing(self, spec):
        t_star = first_band_time(spec)
        assert position_gain(spec, t_star) > 0.5
        assert position_gain(spec, 0.999999 * t_star) <= 0.5
        assert admissible_band(spec, t_star) is not None

    def test_reciprocal_bounds(self):
        band = admissible_band(PIPELINE_B, 120.0)
        assert band is not None
        assert band.lo == pytest.approx(1.0 / band.hi)
        assert 0 < band.lo < 1 < band.hi

    @given(p=st.floats(1e-4, 1e4), scale=st.floats(1.05, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_band_theta_duality(self, p, scale):
        # for any time past the band threshold, membership matches theta in (0,1)
        t = first_band_time(PIPELINE_B) * scale
        band = admissible_band(PIPELINE_B, t)
        tv = theta_from_ratio(PIPELINE_B, p, t)
        assert band.contains(p) == (0.0 < tv.theta < 1.0)


class TestClassification:
    def test_simulated_leak_is_accident(self):
        leak = LeakScenario(ell2=1.5e4, g_leak=10.0)
        traj = simulate_trajectory(PIPELINE_B, leak, CFG, [60.0 * k for k in range(1, 11)])
        assert classify_regime(PIPELINE_B, traj, 120.0) is Verdict.ACCIDENT

    def test_late_time_ratio_eight_is_technological(self):
        rows = [(t, 55e4 - 8.0 * 10.0 * t, 25e4 - 10.0 * t)
                for t in [300.0 * k for k in range(1, 11)]]
        traj = PressureTrajectory(samples=tuple(rows), baseline=BASE_A)
        assert classify_regime(PIPELINE_A, traj, 3000.0) is Verdict.TECHNOLOGICAL

    def test_flat_trajectory_indeterminate(self):
        rows = [(60.0 * k, 14e4, 11e4) for k in range(1, 11)]
        traj = PressureTrajectory(samples=tuple(rows), baseline=BASE_B)
        assert classify_regime(PIPELINE_B, traj, 120.0) is Verdict.INDETERMINATE

    def test_pressure_rise_is_technological(self):
        rows = [(60.0 * k, 14e4 + 500.0 * k, 11e4) for k in range(1, 11)]
        traj = PressureTrajectory(samples=tuple(rows), baseline=BASE_B)
        assert classify_regime(PIPELINE_B, traj, 120.0) is Verdict.TECHNOLOGICAL

    def test_estimate_carries_plan_inputs(self):
        leak = LeakScenario(ell2=0.5e4, g_leak=10.0)
        traj = simulate_trajectory(PIPELINE_B, leak, CFG,
                                   [60.0 * k for k in range(1, 11)], quantum=100.0)
        est = estimate_position(PIPELINE_B, traj, 120.0)
        assert est.verdict is Verdict.ACCIDENT
        assert est.ell2_est == pytest.approx(0.5e4, abs=0.04 * PIPELINE_B.length)
        assert est.theta == est.theta_raw  # in range, no clamping needed

    def test_ratio_beyond_series_range_takes_nearer_end(self):
        # the series ratio at 300 s spans about (1/2030, 2030) on line A; the
        # estimate stays strictly inside the line, so valves can bracket it
        for dev_in, dev_out, end in ((5e4, 10.0, 0.0), (10.0, 5e4, 1.0)):
            traj = PressureTrajectory(samples=((300.0, 55e4 - dev_in, 25e4 - dev_out),),
                                      baseline=BASE_A)
            est = estimate_position(PIPELINE_A, traj, 300.0, eps_meas=1.0)
            closed = theta_from_ratio(PIPELINE_A, est.ratio.p, 300.0).theta
            assert est.verdict is Verdict.ACCIDENT
            assert est.theta == pytest.approx(end, abs=2e-6) and 0.0 < est.theta < 1.0
            assert est.ell2_est == est.theta * PIPELINE_A.length
            assert est.theta_raw == closed and 0.0 < closed < 1.0

    def test_technological_estimate_keeps_closed_form_raw(self):
        # p = 25 at 800 s on line A: outside the band (hi 21.2) but inside the
        # series' range (up to 27.8), so a root exists yet the verdict stands
        traj = PressureTrajectory(samples=((800.0, 55e4 - 25e3, 25e4 - 1e3),),
                                  baseline=BASE_A)
        est = estimate_position(PIPELINE_A, traj, 800.0)
        assert est.verdict is Verdict.TECHNOLOGICAL
        assert 0.0 < est.theta < 1.0
        assert est.theta_raw == theta_from_ratio(PIPELINE_A, 25.0, 800.0).theta < 0.0

    def test_estimate_falls_back_to_closed_form_before_series_resolves(self):
        # at t = 0 the series has no drop at either end to invert
        traj = PressureTrajectory(samples=((0.0, 53e4, 24e4),), baseline=BASE_A)
        est = estimate_position(PIPELINE_A, traj, 0.0)
        closed = theta_from_ratio(PIPELINE_A, 2.0, 0.0).theta
        assert est.theta == pytest.approx(closed) and est.theta_raw == est.theta

    def test_indeterminate_estimate_has_no_position(self):
        rows = [(60.0 * k, 14e4, 11e4) for k in range(1, 11)]
        traj = PressureTrajectory(samples=tuple(rows), baseline=BASE_B)
        est = estimate_position(PIPELINE_B, traj, 120.0)
        assert est.verdict is Verdict.INDETERMINATE
        assert est.theta is None and est.ell2_est is None


def profile_log_ratio(spec, theta, t):
    """The series log ratio from the general evaluator, with the root search's
    NaN (no inlet drop) and +inf (no outlet drop) rules."""
    leak = LeakScenario(ell2=theta * spec.length, g_leak=1.0)
    p_in, p_out = pressure_profile(spec, leak, DEFAULT_SERIES, [0.0, spec.length], t)
    dev_in, dev_out = spec.p_inlet_0 - p_in, spec.p_outlet_0 - p_out
    if not dev_in > 0:
        return math.nan
    if not dev_out > 0:
        return math.inf
    return math.log(dev_in / dev_out)


# line A with its steady outlet 0.1 Pa below the linear profile, inside the
# 1e-6 relative tolerance PipelineSpec allows
PIPELINE_A_OFFSET = PipelineSpec(p_inlet_0=55e4, p_outlet_0=25e4 - 0.1, length=10e4,
                                 g0=30.0, sound_speed=383.3, two_a=0.1)


class TestSeriesLogRatio:
    @pytest.mark.parametrize("spec", [PIPELINE_A, PIPELINE_B, PIPELINE_A_OFFSET],
                             ids=["A", "B", "A_offset"])
    def test_bit_identical_to_pressure_profile(self, spec):
        floor = early_time_floor(spec)
        times = [0.0, 0.01 * floor, 0.5 * floor, floor, 1.5 * floor, 1.0, 10.0, 60.0,
                 78.3, 120.0, 261.0, 600.0, 1200.0, 3000.0, 1e4, 1e5]
        thetas = [1e-12, 1e-6, 1e-4, 0.003] + [k / 40 for k in range(1, 40)] + [0.999, 1 - 1e-6]
        kinds = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeriesPrecisionWarning)
            for t in times:
                log_ratio = _series_log_ratio(spec, t)
                for theta in thetas:
                    got, want = log_ratio(theta), profile_log_ratio(spec, theta, t)
                    kind = "nan" if math.isnan(want) else "inf" if math.isinf(want) else "finite"
                    kinds.add(kind)
                    assert got == want or kind == "nan" and math.isnan(got), (t, theta)
        assert kinds == {"nan", "inf", "finite"}

    def test_below_floor_warns_and_resolves_nothing(self):
        t = 0.5 * early_time_floor(PIPELINE_B)
        with pytest.warns(SeriesPrecisionWarning, match="validity floor"):
            log_ratio = _series_log_ratio(PIPELINE_B, t)
        assert math.isnan(log_ratio(0.3))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_time_rejected_as_by_the_evaluator(self, bad):
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            _series_log_ratio(PIPELINE_A, bad)


class TestTimingRules:
    def test_latency_values(self):
        assert round(min_information_latency(PIPELINE_A)) == 261
        assert min_information_latency(PIPELINE_B) == pytest.approx(78.3, abs=0.05)

    def test_latency_vanishes_for_fast_sound(self):
        spec = PipelineSpec(p_inlet_0=2e5, p_outlet_0=1e5, length=1e4,
                            g0=100.0, sound_speed=1e9, two_a=0.1)
        assert min_information_latency(spec) < 1e-4

    def test_grid_rule_reference_values(self):
        assert fixation_time(PIPELINE_A, 100.0) == 300.0
        assert fixation_time(PIPELINE_B, 60.0) == 120.0

    def test_grid_rule_strict_inequality(self):
        # latency landing exactly on a grid point moves to the next one
        spec = PipelineSpec(p_inlet_0=2e5, p_outlet_0=2e5 - 0.1 * 10.0 * 38330.0,
                            length=38330.0, g0=10.0, sound_speed=383.3, two_a=0.1)
        assert min_information_latency(spec) == pytest.approx(100.0, abs=1e-9)
        assert fixation_time(spec, 100.0) == 200.0

    def test_empirical_rule_line_a(self):
        assert fixation_time_empirical(traj_a(0.5e4), eps_meas=100.0) == 300.0

    def test_empirical_rule_line_b(self):
        assert fixation_time_empirical(traj_b(0.5e4), eps_meas=0.05e4) == 120.0

    def test_empirical_rule_constant_ratio(self):
        rows = [(60.0 * k, 14e4 - 1000.0 * k, 11e4 - 1000.0 * k) for k in range(1, 8)]
        traj = PressureTrajectory(samples=tuple(rows), baseline=BASE_B)
        assert fixation_time_empirical(traj, eps_meas=100.0) == 60.0

    @given(steps=st.lists(st.integers(1, 4), min_size=1, max_size=30),
           ps=st.lists(st.sampled_from([None, 0.5, 1.0, 1.5, 2.0, 3.0]), min_size=30,
                       max_size=30),
           window=st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_streaming_rule_matches_definition(self, steps, ps, window):
        times = [float(sum(steps[:i + 1])) for i in range(len(steps))]
        samples = list(zip(times, ps))  # (t, p), p None where undefined
        defined = [(t, p) for t, p in samples if p is not None]
        # by definition: the earliest defined point whose window holds a
        # defined point and none with a larger |p - 1|, fixed on the first
        # arrival at or after t + window
        want = None
        for t, p in defined:
            inside = [q for s, q in defined if t < s <= t + window]
            closing = [s for s, _ in samples if s >= t + window]
            if inside and closing and all(abs(q - 1) <= abs(p - 1) for q in inside):
                want = (closing[0], (t, p))
                break
        rule = EmpiricalFixation(float(window))
        got = next(((t, fixed) for t, p in samples
                    if (fixed := rule.push(t, p)) is not None), None)
        assert got == want

    def test_empirical_rule_no_signal(self):
        rows = [(60.0 * k, 14e4, 11e4) for k in range(1, 8)]
        traj = PressureTrajectory(samples=tuple(rows), baseline=BASE_B)
        assert fixation_time_empirical(traj, eps_meas=100.0) is None


class TestEndToEnd:
    @pytest.mark.parametrize("spec,step", [(PIPELINE_A, 100.0), (PIPELINE_B, 60.0)])
    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
    def test_characteristic_positions_within_four_percent(self, spec, step, theta):
        # full-precision simulation, localisation at the grid fixation time
        t_fix = fixation_time(spec, step)
        leak = LeakScenario(ell2=theta * spec.length, g_leak=spec.g0)
        times = [step * k for k in range(1, 11)]
        traj = simulate_trajectory(spec, leak, CFG, times)
        est = estimate_position(spec, traj, t_fix, eps_meas=1.0)
        assert est.verdict is Verdict.ACCIDENT
        assert abs(est.ell2_est - leak.ell2) / spec.length <= 0.04


class TestForeignData:
    """The estimator on data it did not generate: end cells of the FD oracle
    and gauge-quantised series pressures.  At the grid fixation instant the
    closed form misses these quarter-span leaks by 18 % (line A) and 9 %
    (line B) of the length."""

    @pytest.mark.parametrize("spec,nx,t_fix", [(PIPELINE_A, 500, 300.0),
                                               (PIPELINE_B, 300, 120.0)])
    @pytest.mark.parametrize("theta", [0.25, 0.75])
    def test_fd_oracle_end_cells(self, spec, nx, t_fix, theta):
        leak = LeakScenario(ell2=theta * spec.length, g_leak=spec.g0)
        dev = fd_solve(spec, leak, FdGrid(nx, t_fix), [t_fix]).deviations()[-1]
        traj = PressureTrajectory(
            samples=((t_fix, spec.p_inlet_0 + dev[0], spec.p_outlet_0 + dev[-1]),),
            baseline=(spec.p_inlet_0, spec.p_outlet_0))
        est = estimate_position(spec, traj, t_fix, eps_meas=1.0)
        assert est.verdict is Verdict.ACCIDENT
        assert abs(est.ell2_est - leak.ell2) / spec.length <= 0.01
        closed = theta_from_ratio(spec, est.ratio.p, t_fix).theta
        assert abs(closed - theta) > 0.04

    @pytest.mark.parametrize("spec,step", [(PIPELINE_A, 100.0), (PIPELINE_B, 60.0)])
    @pytest.mark.parametrize("theta", [0.25, 0.75])
    def test_gauge_quantised_series(self, spec, step, theta):
        t_fix = fixation_time(spec, step)
        leak = LeakScenario(ell2=theta * spec.length, g_leak=spec.g0)
        traj = simulate_trajectory(spec, leak, CFG, [step * k for k in range(1, 11)],
                                   quantum=100.0)
        est = estimate_position(spec, traj, t_fix)
        assert est.verdict is Verdict.ACCIDENT
        assert abs(est.ell2_est - leak.ell2) / spec.length <= 0.01
