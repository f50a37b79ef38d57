from __future__ import annotations

import pytest

from leakline.model import Variant
from leakline.scenario import ScenarioError, load_scenario

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
variant = as_printed

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
        assert sc.series.variant is Variant.AS_PRINTED
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
        text = VALID.replace("variant = as_printed", "variant = wrong")
        with pytest.raises(ScenarioError, match=r"\[series\].variant"):
            load_scenario(write(tmp_path, text))

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
    ])
    def test_non_finite_value_rejected(self, tmp_path, old, new, where):
        with pytest.raises(ScenarioError, match=where):
            load_scenario(write(tmp_path, VALID.replace(old, new)))

    def test_optional_sections_absent(self, tmp_path):
        minimal = "\n".join(VALID.splitlines()[:11])  # [pipeline] + [leak] only
        sc = load_scenario(write(tmp_path, minimal))
        assert sc.layout is None and sc.run is None
        with pytest.raises(ScenarioError, match=r"\[run\]"):
            sc.require_run()
        with pytest.raises(ScenarioError, match=r"\[valves\]"):
            sc.require_layout()
