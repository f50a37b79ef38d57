from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakline.model import (
    N_MAX_LIMIT,
    PIPELINE_A,
    PIPELINE_B,
    LeakScenario,
    PipelineSpec,
    SeriesConfig,
    SeriesPrecisionWarning,
    Variant,
    decay_rate,
    early_time_floor,
    inlet_pressure,
    neumann_kernel,
    outlet_pressure,
    pressure_field,
    pressure_profile,
    series_tail,
    steady_pressure,
    transient_pressure,
    untrusted_time,
)

CFG = SeriesConfig()


def leak_a(ell2=0.5e4):
    return LeakScenario(ell2=ell2, g_leak=PIPELINE_A.g0)


def leak_b(ell2=0.5e4):
    return LeakScenario(ell2=ell2, g_leak=PIPELINE_B.g0)


class TestSpecValidation:
    def test_steady_profile_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent steady profile"):
            PipelineSpec(p_inlet_0=55e4, p_outlet_0=30e4, length=10e4,
                         g0=30.0, sound_speed=383.3, two_a=0.1)

    def test_pressure_ordering_enforced(self):
        with pytest.raises(ValueError, match="p_inlet_0 > p_outlet_0"):
            PipelineSpec(p_inlet_0=25e4, p_outlet_0=55e4, length=10e4,
                         g0=30.0, sound_speed=383.3, two_a=0.1)

    @pytest.mark.parametrize("field,value", [
        ("length", -1.0), ("sound_speed", 0.0), ("two_a", 0.0), ("g0", -1.0),
        ("length", math.nan), ("sound_speed", math.nan), ("two_a", math.nan), ("g0", math.nan),
        ("p_inlet_0", math.inf), ("p_outlet_0", math.inf), ("length", math.inf),
        ("g0", math.inf), ("sound_speed", math.inf), ("two_a", math.inf),
    ])
    def test_positivity(self, field, value):
        kwargs = dict(p_inlet_0=55e4, p_outlet_0=25e4, length=10e4,
                      g0=30.0, sound_speed=383.3, two_a=0.1)
        kwargs[field] = value
        with pytest.raises(ValueError):
            PipelineSpec(**kwargs)

    def test_leak_outside_line_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            LeakScenario(ell2=11e4, g_leak=30.0).check_against(PIPELINE_A)

    @pytest.mark.parametrize("field,value", [("ell2", math.nan), ("g_leak", math.nan),
                                             ("g_leak", math.inf)],
                             ids=["ell2", "g_leak", "g_leak-inf"])
    def test_leak_nan_rejected(self, field, value):
        kwargs = dict(ell2=0.5e4, g_leak=30.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            LeakScenario(**kwargs)

    def test_series_config_bounds(self):
        with pytest.raises(ValueError):
            SeriesConfig(n_max=0)
        with pytest.raises(ValueError):
            SeriesConfig(tail_tol=0.0)

    @pytest.mark.parametrize("field,value", [("n_max", math.nan), ("tail_tol", math.nan),
                                             ("tail_tol", math.inf)],
                             ids=["n_max", "tail_tol", "tail_tol-inf"])
    def test_series_config_nan_rejected(self, field, value):
        with pytest.raises(ValueError):
            SeriesConfig(**{field: value})

    @pytest.mark.parametrize("n_max", [math.inf, 2.5, 64.0])
    def test_series_config_non_integer_n_max_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            SeriesConfig(n_max=n_max)

    @pytest.mark.parametrize("n_max", [N_MAX_LIMIT + 1, 10**12])
    def test_series_config_n_max_above_limit_rejected(self, n_max):
        with pytest.raises(ValueError, match=f"n_max must be <= 4096, got {n_max}$"):
            SeriesConfig(n_max=n_max)

    def test_series_config_n_max_limit_accepted(self):
        assert SeriesConfig(n_max=N_MAX_LIMIT).n_max == 4096

    @pytest.mark.parametrize("spec", [PIPELINE_A, PIPELINE_B], ids=["A", "B"])
    def test_terms_beyond_864_vanish_at_trusted_times(self, spec):
        # why the limit costs nothing: at the early-time floor, the smallest
        # trusted t, mode 864 already underflows to exactly 0 (863 does not)
        rt = decay_rate(spec) * early_time_floor(spec)
        assert math.exp(-864 * 864 * rt) == 0.0 < math.exp(-863 * 863 * rt)


class TestDecayRate:
    def test_line_a(self):
        assert decay_rate(PIPELINE_A) == pytest.approx(1.450e-3, abs=5e-7)

    def test_line_b(self):
        assert decay_rate(PIPELINE_B) == pytest.approx(1.611e-2, abs=5e-6)

    def test_quarters_when_length_doubles(self):
        doubled = PipelineSpec(p_inlet_0=85e4, p_outlet_0=25e4, length=20e4,
                               g0=30.0, sound_speed=383.3, two_a=0.1)
        assert decay_rate(doubled) == pytest.approx(decay_rate(PIPELINE_A) / 4)


class TestSteadyPressure:
    def test_inlet_boundary(self):
        assert steady_pressure(PIPELINE_A, 0.0) == 55e4

    def test_outlet_matches_p2(self):
        assert steady_pressure(PIPELINE_A, 10e4) == pytest.approx(25e4)
        assert steady_pressure(PIPELINE_B, 3e4) == pytest.approx(11e4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            steady_pressure(PIPELINE_A, -1.0)
        with pytest.raises(ValueError):
            steady_pressure(PIPELINE_A, 10e4 + 1)

    def test_array_is_elementwise(self):
        xs = np.linspace(0.0, PIPELINE_A.length, 11)
        profile = steady_pressure(PIPELINE_A, xs)
        assert profile.shape == xs.shape
        assert np.array_equal(profile, [steady_pressure(PIPELINE_A, float(x)) for x in xs])

    @pytest.mark.parametrize("bad_x", [-1.0, 10e4 + 1.0, math.nan])
    def test_out_of_range_array_rejected(self, bad_x):
        with pytest.raises(ValueError, match="positions outside"):
            steady_pressure(PIPELINE_A, np.array([0.0, 5e4, bad_x]))


class TestNeumannKernel:
    def test_reference_value(self):
        assert neumann_kernel(0.0, 0.5e4, 10e4) == pytest.approx(28458.333, abs=0.01)

    @given(x=st.floats(0, 10e4), xi=st.floats(0, 10e4))
    def test_symmetry(self, x, xi):
        L = 10e4
        assert neumann_kernel(x, xi, L) == pytest.approx(neumann_kernel(xi, x, L))

    @given(xi=st.floats(100.0, 10e4 - 100.0))
    @settings(max_examples=30, deadline=None)
    def test_zero_spatial_mean(self, xi):
        L = 10e4
        xs = np.linspace(0.0, L, 20001)
        h = np.array([neumann_kernel(float(x), xi, L) for x in xs])
        assert abs(np.trapezoid(h, xs)) / L < 1e-2

    def test_matches_cosine_expansion(self):
        # the static part of the mode sum converges to the kernel
        L, xi = 10e4, 0.5e4
        n = np.arange(1, 4001, dtype=float)
        for x in (0.0, 2.5e4, 7e4, L):
            partial = (2 * L / math.pi**2) * np.sum(
                np.cos(np.pi * n * x / L) * np.cos(np.pi * n * xi / L) / n**2)
            assert partial == pytest.approx(neumann_kernel(x, xi, L), abs=2 * L / (math.pi**2 * 4000) * 5)


class TestTransientPressure:
    @pytest.mark.parametrize("x,t,expected_1e4", [
        (0.0, 100.0, 52.23),
        (10e4, 100.0, 25.00),
    ])
    def test_line_a_start_anchors(self, x, t, expected_1e4):
        p = transient_pressure(PIPELINE_A, leak_a(), CFG, x, t)
        assert p == pytest.approx(expected_1e4 * 1e4, abs=0.02e4)

    def test_line_b_mid_anchor(self):
        p = transient_pressure(PIPELINE_B, leak_b(1.5e4), CFG, 0.0, 120.0)
        assert p == pytest.approx(13.54e4, abs=0.02e4)

    def test_line_b_end_inlet_anchor(self):
        p = inlet_pressure(PIPELINE_B, leak_b(2.5e4), CFG, 60.0)
        assert p == pytest.approx(13.97e4, abs=0.02e4)

    def test_line_a_end_outlet_anchor(self):
        p = outlet_pressure(PIPELINE_A, leak_a(9.5e4), CFG, 300.0)
        assert p == pytest.approx(19.30e4, abs=0.02e4)

    def test_t0_equals_steady_exactly(self):
        for x in (0.0, 0.5e4, 3e4, 10e4):
            assert transient_pressure(PIPELINE_A, leak_a(), CFG, x, 0.0) == \
                steady_pressure(PIPELINE_A, x)

    def test_early_time_falls_back_with_warning(self):
        t = 0.5 * early_time_floor(PIPELINE_A)
        with pytest.warns(SeriesPrecisionWarning):
            p = transient_pressure(PIPELINE_A, leak_a(), CFG, 0.0, t)
        assert p == steady_pressure(PIPELINE_A, 0.0)

    def test_tail_above_tolerance_warns(self):
        rough = SeriesConfig(n_max=4, tail_tol=1.0)
        with pytest.warns(SeriesPrecisionWarning, match="tail"):
            transient_pressure(PIPELINE_A, leak_a(), rough, 0.0, 100.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            transient_pressure(PIPELINE_A, leak_a(), CFG, -1.0, 100.0)
        with pytest.raises(ValueError):
            transient_pressure(PIPELINE_A, leak_a(), CFG, 0.0, -1.0)


def reference_profile(spec, leak, cfg, xs, t):
    """The reconciled series at one time, term by term in the operation order
    the evaluator must keep; the reference it is compared with bit for bit."""
    xs = np.asarray(xs, dtype=float)
    steady = spec.p_inlet_0 - spec.two_a * spec.g0 * xs
    if t < early_time_floor(spec):
        return steady
    L, g, xi = spec.length, leak.g_leak, leak.ell2
    n = np.arange(1, cfg.n_max + 1, dtype=float)
    decay = np.exp(-n * n * decay_rate(spec) * t) / (n * n)
    mode_sum = np.cos(np.pi * np.outer(xs, n) / L) @ (np.cos(np.pi * n * xi / L) * decay)
    modes = 2.0 * spec.two_a * L * g / math.pi**2 * mode_sum
    kernel = np.array([(x * x + xi * xi) / (2.0 * L) + L / 3.0 - max(x, xi) for x in xs])
    drain = (spec.sound_speed**2 * g / L) * t
    return steady - drain - spec.two_a * g * kernel + modes


class TestPressureField:
    @given(spec=st.sampled_from([PIPELINE_A, PIPELINE_B]),
           variant=st.sampled_from(list(Variant)),
           theta=st.floats(0.01, 0.99),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
           later=st.lists(st.floats(1.0, 3000.0), max_size=6),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_single_time_evaluation(self, spec, variant, theta, fracs, later, data):
        cfg = SeriesConfig(variant=variant)
        leak = LeakScenario(ell2=theta * spec.length, g_leak=spec.g0)
        xs = np.array(fracs) * spec.length
        times = data.draw(st.permutations([0.0, 0.5 * early_time_floor(spec)] + later))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeriesPrecisionWarning)
            field = pressure_field(spec, leak, cfg, xs, times)
            assert field.shape == (len(times), len(xs))
            for row, t in zip(field, times):
                assert np.array_equal(row, pressure_profile(spec, leak, cfg, xs, t))
                if variant is Variant.RECONCILED:
                    assert np.array_equal(row, reference_profile(spec, leak, cfg, xs, t))

    def test_one_warning_per_affected_row(self):
        floor = early_time_floor(PIPELINE_A)
        rough = SeriesConfig(n_max=4, tail_tol=1.0)
        xs = np.linspace(0.0, PIPELINE_A.length, 7)
        # two early rows, two rough-tail rows (the same t twice) and two quiet ones
        times = [0.5 * floor, 100.0, 0.0, 0.25 * floor, 100.0, 900.0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            field = pressure_field(PIPELINE_A, leak_a(), rough, xs, times)
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, SeriesPrecisionWarning)]
        assert len(messages) == len(caught) == 4
        assert sum("validity floor" in m for m in messages) == 2
        assert sum("tail" in m and "t = 100 s" in m for m in messages) == 2
        steady = steady_pressure(PIPELINE_A, xs)
        for i in (0, 2, 3):
            assert np.array_equal(field[i], steady)

    @given(spec=st.sampled_from([PIPELINE_A, PIPELINE_B]),
           n_max=st.integers(1, 64),
           log_scale=st.floats(-1.0, 1.0),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_warnings_match_a_check_of_every_row(self, spec, n_max, log_scale, data):
        # pressure_field checks the tail once; a loop over every row is the reference
        floor = early_time_floor(spec)
        pool = (st.sampled_from([0.0, 0.5 * floor, floor]) | st.floats(0.0, floor)
                | st.floats(floor, 5000.0))
        times = data.draw(st.lists(pool, min_size=1, max_size=10))
        times = data.draw(st.permutations(
            times + data.draw(st.lists(st.sampled_from(times), max_size=4))))
        leak = LeakScenario(ell2=0.3 * spec.length, g_leak=spec.g0)
        # a tolerance within 10x of the tail at one trusted time, so that both
        # outcomes occur and the earliest and latest trusted times can disagree
        trusted = [t for t in times if t >= floor]
        ref = data.draw(st.sampled_from(trusted)) if trusted else floor
        tail_tol = series_tail(spec, leak, n_max, ref) * 10.0 ** log_scale or 1.0
        cfg = SeriesConfig(n_max=n_max, tail_tol=tail_tol)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pressure_field(spec, leak, cfg, [0.0, spec.length], times)
            field_messages = [str(w.message) for w in caught]
            del caught[:]
            for t in times:
                untrusted_time(spec, leak, cfg, t, floor)
        assert field_messages == [str(w.message) for w in caught]

    @pytest.mark.parametrize("tail_tol,warned", [
        (100.0, []), (1.0, ["100"]), (0.01, ["300", "100", "300"])])
    def test_tail_is_judged_at_the_earliest_trusted_time(self, tail_tol, warned):
        # n_max = 4 on line A: the tail is 84.7 Pa at 100 s, 0.047 Pa at 300 s
        # and 1.6e-11 Pa at 900 s, so the latest time alone would never warn
        cfg = SeriesConfig(n_max=4, tail_tol=tail_tol)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pressure_field(PIPELINE_A, leak_a(), cfg, [0.0], [900.0, 0.0, 300.0, 100.0, 300.0])
        assert [re.search(r"at t = (\S+) s", str(w.message))[1] for w in caught] == warned

    @pytest.mark.parametrize("spec", [PIPELINE_A, PIPELINE_B], ids=["A", "B"])
    def test_series_tail_does_not_increase_with_t(self, spec):
        leak = LeakScenario(ell2=0.5 * spec.length, g_leak=spec.g0)
        ts = np.geomspace(early_time_floor(spec), 1e5, 500)
        ts = np.sort(np.concatenate([ts, np.nextafter(ts, np.inf)])).tolist()  # ulp steps too
        for n_max in (1, 2, 8, 64, N_MAX_LIMIT):
            tails = [series_tail(spec, leak, n_max, t) for t in ts]
            assert all(later <= earlier for earlier, later in zip(tails, tails[1:]))

    def test_long_batch_rows_equal_single_time_evaluation(self):
        # one long unsorted batch with t = 0, below-floor and repeated times
        rng = np.random.default_rng(9)
        floor = early_time_floor(PIPELINE_B)
        later = rng.uniform(floor, 3000.0, 490)
        times = np.concatenate([later, later[:10], [0.0, 0.0, 0.1 * floor, 0.5 * floor, floor]])
        rng.shuffle(times)
        leak = leak_b(1.2e4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeriesPrecisionWarning)
            for variant in Variant:
                cfg = SeriesConfig(variant=variant)
                for size in (1, 2, 101):
                    xs = np.linspace(0.0, PIPELINE_B.length, size)
                    field = pressure_field(PIPELINE_B, leak, cfg, xs, times)
                    assert field.shape == (times.size, size)
                    for row, t in zip(field, times):
                        assert np.array_equal(row, pressure_profile(PIPELINE_B, leak, cfg, xs, t))
                        if variant is Variant.RECONCILED:
                            assert np.array_equal(
                                row, reference_profile(PIPELINE_B, leak, cfg, xs, t))

    def test_negative_time_rejected(self):
        for bad_t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t must be >= 0"):
                pressure_field(PIPELINE_A, leak_a(), CFG, [0.0, 5e4], [100.0, bad_t, 300.0])

    @pytest.mark.parametrize("bad_x", [-1.0, 10e4 + 1.0])
    def test_out_of_range_positions_rejected(self, bad_x):
        with pytest.raises(ValueError, match="positions outside"):
            pressure_field(PIPELINE_A, leak_a(), CFG, [0.0, bad_x], [100.0])


class TestInvariants:
    def test_mass_drain(self):
        # spatial mean of the deviation equals the linear inventory drain
        for spec, leak, t in ((PIPELINE_A, leak_a(), 300.0),
                              (PIPELINE_B, leak_b(1.5e4), 300.0)):
            xs = np.linspace(0.0, spec.length, 4001)
            dev = pressure_profile(spec, leak, CFG, xs, t) - steady_pressure(spec, xs)
            mean = np.trapezoid(dev, xs) / spec.length
            expected = -(spec.sound_speed**2 * leak.g_leak / spec.length) * t
            assert mean == pytest.approx(expected, rel=0.005)

    def test_continuity_at_leak(self):
        delta = 0.01
        for t in (60.0, 300.0, 900.0):
            left = transient_pressure(PIPELINE_A, leak_a(), CFG, 0.5e4 - delta, t)
            mid = transient_pressure(PIPELINE_A, leak_a(), CFG, 0.5e4, t)
            right = transient_pressure(PIPELINE_A, leak_a(), CFG, 0.5e4 + delta, t)
            assert abs(left - right) < 1.0
            assert min(left, right) - 1.0 <= mid <= max(left, right) + 1.0

    @given(theta=st.floats(0.02, 0.98), t=st.floats(50.0, 900.0))
    @settings(max_examples=60, deadline=None)
    def test_mirror_symmetry(self, theta, t):
        # inlet drop for a leak at theta equals outlet drop for 1 - theta
        a_in = PIPELINE_A.p_inlet_0 - inlet_pressure(PIPELINE_A, leak_a(theta * 10e4), CFG, t)
        a_out = PIPELINE_A.p_outlet_0 - outlet_pressure(PIPELINE_A, leak_a((1 - theta) * 10e4),
                                                        CFG, t)
        assert a_in == pytest.approx(a_out, abs=1e-3)

    @given(x=st.floats(0.0, 10e4), t=st.floats(20.0, 900.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_truncation(self, x, t):
        coarse = SeriesConfig(n_max=16, tail_tol=1e9)
        fine = SeriesConfig(n_max=64, tail_tol=1e9)
        p16 = transient_pressure(PIPELINE_A, leak_a(), coarse, x, t)
        p64 = transient_pressure(PIPELINE_A, leak_a(), fine, x, t)
        assert abs(p64 - p16) <= series_tail(PIPELINE_A, leak_a(), 16, t) + 1e-9

    def test_pressure_stays_positive_on_grid(self):
        xs = np.linspace(0.0, PIPELINE_B.length, 301)
        for t in (60.0, 300.0, 600.0):
            assert (pressure_profile(PIPELINE_B, leak_b(), CFG, xs, t) > 0).all()


class TestAsPrinted:
    def test_inlet_offset_near_aLg0_at_small_t(self):
        cfg = SeriesConfig(variant=Variant.AS_PRINTED)
        audited = transient_pressure(PIPELINE_A, leak_a(), cfg, 0.0, 10.0)
        normative = transient_pressure(PIPELINE_A, leak_a(), CFG, 0.0, 10.0)
        expected = 0.5 * PIPELINE_A.two_a * PIPELINE_A.length * PIPELINE_A.g0
        assert audited - normative == pytest.approx(expected, rel=0.10)

    def test_downstream_sign_flip(self):
        cfg = SeriesConfig(variant=Variant.AS_PRINTED)
        x = 9e4
        audited = transient_pressure(PIPELINE_A, leak_a(), cfg, x, 100.0)
        normative = transient_pressure(PIPELINE_A, leak_a(), CFG, x, 100.0)
        flip = 2.0 * PIPELINE_A.two_a * 30.0 * (x - 0.5e4)
        startup_remnant = audited - normative + flip
        assert abs(startup_remnant) < 0.5 * PIPELINE_A.two_a * PIPELINE_A.length * 30.0

    def test_variant_accepts_string(self):
        cfg = SeriesConfig(variant="as_printed")
        assert cfg.variant is Variant.AS_PRINTED
