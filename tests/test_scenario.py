from __future__ import annotations

import pytest

from leakline.model import SeriesConfig
from leakline.scenario import RunWindow, ScenarioError, load_scenario

VALID = """
[pipeline]
p1 = 14e4
p2 = 11e4
length = 3e4
g0 = 10
c = 383.3
two_a = 0.1

[leak]
ell2 = 0.5e4

[series]
n_max = 32
variant = reconciled

[valves]
line = 0, 1.5e4, 3e4
connectors = c1:0.75e4, c2:2.25e4

[run]
t_start = 60
t_end = 600
step = 60
"""


def write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoading:
    def test_valid_file(self, tmp_path):
        sc = load_scenario(write(tmp_path, VALID))
        assert sc.spec.length == 3e4
        assert sc.leak.g_leak == sc.spec.g0  # defaults to the base flux
        assert sc.series.n_max == 32
        assert sc.series == SeriesConfig(n_max=32)
        assert sc.layout.length == 3e4
        assert sc.run.times()[0] == 60.0 and sc.run.times()[-1] == 600.0

    def test_bundled_scenarios_load(self, scenario_path):
        for name in ("pipeline_a_start", "pipeline_a_mid", "pipeline_a_end",
                     "pipeline_b_start", "pipeline_b_mid", "pipeline_b_end"):
            sc = load_scenario(scenario_path(name))
            assert sc.leak is not None and sc.run is not None

    def test_single_row_window(self, tmp_path):
        text = VALID.replace("t_start = 60", "t_start = 0").replace("t_end = 600", "t_end = 0")
        sc = load_scenario(write(tmp_path, text))
        assert sc.run.times() == [0.0]

    def test_times_counted_not_accumulated(self):
        # a running sum of 0.1 s steps drifts to 2999.999999998 s by the end
        times = RunWindow(0.0, 3000.0, 0.1).times()
        assert len(times) == 30001 and times[-1] == 3000.0
        assert times[3] == 0.3 and times[29999] == 2999.9

    def test_step_below_rounding_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"step must be >= 1e-9 s"):
            RunWindow(0.0, 1e-8, 1e-10)
        text = VALID.replace("t_start = 60", "t_start = 0").replace(
            "t_end = 600", "t_end = 1e-8").replace("step = 60", "step = 1e-10")
        with pytest.raises(ScenarioError) as info:
            load_scenario(write(tmp_path, text))
        assert str(info.value).startswith("[run]: step must be >= 1e-9 s")
        times = RunWindow(0.0, 1e-8, 1e-9).times()
        assert len(times) == 11 and times[-1] == 1e-8
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_interpolation_kept(self, tmp_path):
        text = VALID.replace("line = 0, 1.5e4, 3e4", "end = 3e4\nline = 0, 1.5e4, %(end)s")
        sc = load_scenario(write(tmp_path, text))
        assert sc.layout.line_valves == (0.0, 1.5e4, 3e4)
        # '%%' still reads as a literal '%'
        with pytest.raises(ScenarioError) as info:
            load_scenario(write(tmp_path, VALID.replace("step = 60", "step = 6%%")))
        assert str(info.value) == "[run].step: not a number: '6%'"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.cfg")


class TestFieldErrors:
    def test_missing_pipeline_section(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"\[pipeline\]"):
            load_scenario(write(tmp_path, "[leak]\nell2 = 1\n"))

    def test_missing_key_path(self, tmp_path):
        text = VALID.replace("two_a = 0.1\n", "")
        with pytest.raises(ScenarioError, match=r"\[pipeline\].two_a"):
            load_scenario(write(tmp_path, text))

    def test_bad_number_path(self, tmp_path):
        text = VALID.replace("ell2 = 0.5e4", "ell2 = five")
        with pytest.raises(ScenarioError, match=r"\[leak\].ell2"):
            load_scenario(write(tmp_path, text))

    def test_leap_position_validated(self, tmp_path):
        text = VALID.replace("ell2 = 0.5e4", "ell2 = 4e4")
        with pytest.raises(ScenarioError, match=r"\[leak\]"):
            load_scenario(write(tmp_path, text))

    def test_bad_variant(self, tmp_path):
        # one series formulation: `variant` may be left out, and `as_printed` no longer loads
        sc = load_scenario(write(tmp_path, VALID.replace("variant = reconciled\n", "")))
        assert sc.series == SeriesConfig(n_max=32)
        with pytest.raises(ScenarioError, match=r"\[series\].variant"):
            load_scenario(write(tmp_path, VALID.replace("= reconciled", "= as_printed")))

    def test_inconsistent_profile_reported(self, tmp_path):
        text = VALID.replace("p2 = 11e4", "p2 = 12e4")
        with pytest.raises(ScenarioError, match=r"\[pipeline\].*steady"):
            load_scenario(write(tmp_path, text))

    def test_valves_must_span_line(self, tmp_path):
        text = VALID.replace("line = 0, 1.5e4, 3e4", "line = 0, 1.5e4, 2.5e4")
        with pytest.raises(ScenarioError, match=r"\[valves\].line"):
            load_scenario(write(tmp_path, text))

    def test_bad_connector_syntax(self, tmp_path):
        text = VALID.replace("connectors = c1:0.75e4, c2:2.25e4", "connectors = 0.75e4")
        with pytest.raises(ScenarioError, match=r"\[valves\].connectors"):
            load_scenario(write(tmp_path, text))

    def test_bad_run_step(self, tmp_path):
        text = VALID.replace("step = 60", "step = 0")
        with pytest.raises(ScenarioError, match=r"\[run\]"):
            load_scenario(write(tmp_path, text))

    @pytest.mark.parametrize("old,new,where", [
        ("p1 = 14e4", "p1 = inf", r"\[pipeline\]"),
        ("c = 383.3", "c = inf", r"\[pipeline\]"),
        ("length = 3e4", "length = nan", r"\[pipeline\]"),
        ("g0 = 10", "g0 = nan", r"\[pipeline\]"),
        ("c = 383.3", "c = nan", r"\[pipeline\]"),
        ("two_a = 0.1", "two_a = nan", r"\[pipeline\]"),
        ("ell2 = 0.5e4", "ell2 = 0.5e4\ng_leak = nan", r"\[leak\]"),
        ("n_max = 32", "n_max = 32\ntail_tol = nan", r"\[series\]"),
        ("line = 0, 1.5e4, 3e4", "line = 0, nan, 3e4", r"\[valves\]"),
        ("t_start = 60", "t_start = nan", r"\[run\]"),
        ("t_end = 600", "t_end = nan", r"\[run\]"),
        ("t_end = 600", "t_end = inf", r"\[run\]"),
        ("step = 60", "step = nan", r"\[run\]"),
        ("step = 60", "step = inf", r"\[run\]"),
        ("ell2 = 0.5e4", "ell2 = 0.5e4\ng_leak = inf", r"\[leak\]"),
        ("n_max = 32", "n_max = 32\ntail_tol = inf", r"\[series\]"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, old, new, where):
        with pytest.raises(ScenarioError, match=where):
            load_scenario(write(tmp_path, VALID.replace(old, new)))

    # One mutation of VALID per row, with the full text the error must print.
    @pytest.mark.parametrize("old,new,text", [
        ("two_a = 0.1\n", "", "[pipeline].two_a: missing required key"),
        ("[pipeline]", "[pipe]", "[pipeline]: missing required section"),
        ("t_end = 600\n", "", "[run].t_end: missing required key"),
        ("line = 0, 1.5e4, 3e4\n", "", "[valves].line: missing required key"),
        ("ell2 = 0.5e4\n", "", "[leak].ell2: missing required key"),
        ("ell2 = 0.5e4", "ell2 = five", "[leak].ell2: not a number: 'five'"),
        ("n_max = 32", "n_max = 3.5", "[series].n_max: not an integer: '3.5'"),
        ("n_max = 32", "n_max = 32\ntail_tol = tight",
         "[series].tail_tol: not a number: 'tight'"),
        ("variant = reconciled", "variant = wrong",
         "[series].variant: must be 'reconciled', got 'wrong'"),
        ("variant = reconciled", "variant = as_printed",
         "[series].variant: must be 'reconciled', got 'as_printed'"),
        ("p2 = 11e4", "p2 = 12e4",
         "[pipeline]: inconsistent steady profile: p_inlet_0 - two_a*g0*length = "
         "110000 Pa but p_outlet_0 = 120000 Pa"),
        ("line = 0, 1.5e4, 3e4", "line = 0, 1.5e4, 2.5e4",
         "[valves].line: last valve at 25000 m must sit at the pipeline end 30000 m"),
        ("line = 0, 1.5e4, 3e4", "line = 1e3, 1.5e4, 3e4",
         "[valves]: first line valve must sit at 0"),
        ("line = 0, 1.5e4, 3e4", "line = 0, x, 3e4",
         "[valves].line: could not convert string to float: ' x'"),
        ("connectors = c1:0.75e4, c2:2.25e4", "connectors = 0.75e4",
         "[valves].connectors: expected id:position, got '0.75e4'"),
        ("connectors = c1:0.75e4, c2:2.25e4", "connectors = c1:abc",
         "[valves].connectors: bad connector position in 'c1:abc'"),
        ("connectors = c1:0.75e4, c2:2.25e4", "connectors = c1:0.75e4, c1:2.25e4",
         "[valves]: connector ids must be unique"),
        ("connectors = c1:0.75e4, c2:2.25e4", "connectors = c1:4e4",
         "[valves]: connector c1 at 40000 outside [0, 30000]"),
        ("step = 60", "step = 0", "[run]: step must be > 0"),
        ("length = 3e4", "length = nan", "[pipeline]: length must be > 0"),
        ("t_end = 600", "t_end = inf", "[run]: t_end must be finite and >= t_start"),
        ("t_end = 600", "t_end = 30", "[run]: t_end must be finite and >= t_start"),
        ("ell2 = 0.5e4", "ell2 = 0.5e4\ng_leak = -1", "[leak]: g_leak must be >= 0"),
        ("ell2 = 0.5e4", "ell2 = 4e4",
         "[leak]: ell2 = 40000 m must lie strictly inside (0, 30000)"),
        ("n_max = 32", "n_max = 0", "[series]: n_max must be >= 1"),
        ("n_max = 32", "n_max = 5000", "[series]: n_max must be <= 4096, got 5000"),
        ("step = 60", "step = inf", "[run]: step must be finite"),
        ("ell2 = 0.5e4", "ell2 = 0.5e4\ng_leak = inf", "[leak]: g_leak must be finite"),
        ("n_max = 32", "n_max = 32\ntail_tol = inf", "[series]: tail_tol must be finite"),
        ("p1 = 14e4", "p1 = 14e4 %",
         "[pipeline].p1: bad interpolation: '%' must be followed by '%' or '(', found: '%'"),
        ("variant = reconciled", "variant = reconciled%",
         "[series].variant: bad interpolation: '%' must be followed by '%' or '(', "
         "found: '%'"),
        ("connectors = c1:0.75e4, c2:2.25e4", "connectors = c1:50%",
         "[valves].connectors: bad interpolation: '%' must be followed by '%' or '(', "
         "found: '%'"),
        ("ell2 = 0.5e4", "ell2 = %(nowhere)s",
         "[leak].ell2: bad interpolation: Bad value substitution: option 'ell2' in section "
         "'leak' contains an interpolation key 'nowhere' which is not a valid option name. "
         "Raw value: '%(nowhere)s'"),
    ])
    def test_error_text(self, tmp_path, old, new, text):
        assert old in VALID
        with pytest.raises(ScenarioError) as info:
            load_scenario(write(tmp_path, VALID.replace(old, new)))
        assert str(info.value) == text

    def test_optional_sections_absent(self, tmp_path):
        minimal = "\n".join(VALID.splitlines()[:11])  # [pipeline] + [leak] only
        sc = load_scenario(write(tmp_path, minimal))
        assert sc.layout is None and sc.run is None
        with pytest.raises(ScenarioError, match=r"\[run\]"):
            sc.require_run()
        with pytest.raises(ScenarioError, match=r"\[valves\]"):
            sc.require_layout()
