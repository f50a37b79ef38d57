from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakline.isolation import (
    ConnectorValve,
    ValveLayout,
    bounding_valves,
    build_isolation_plan,
)

LAYOUT_A = ValveLayout(
    line_valves=tuple(1e4 * k for k in range(11)),
    connector_valves=(ConnectorValve(1.5e4, "c1"), ConnectorValve(8.5e4, "c2")),
)
ENDS_ONLY = ValveLayout(
    line_valves=(0.0, 10e4),
    connector_valves=(ConnectorValve(1.5e4, "c1"), ConnectorValve(8.5e4, "c2")),
)


class TestLayoutValidation:
    def test_positions_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ValveLayout(line_valves=(0.0, 2e4, 1e4))

    def test_nan_position_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ValveLayout(line_valves=(0.0, float("nan"), 1e4))

    def test_zero_must_be_present(self):
        with pytest.raises(ValueError, match="must sit at 0"):
            ValveLayout(line_valves=(1e4, 2e4))

    def test_connector_inside_line(self):
        with pytest.raises(ValueError, match="outside"):
            ValveLayout(line_valves=(0.0, 1e4),
                        connector_valves=(ConnectorValve(2e4, "c1"),))

    def test_duplicate_connector_ids(self):
        with pytest.raises(ValueError, match="unique"):
            ValveLayout(line_valves=(0.0, 1e4),
                        connector_valves=(ConnectorValve(1e3, "c"),
                                          ConnectorValve(2e3, "c")))


class TestBoundingValves:
    def test_near_inlet(self):
        assert bounding_valves(LAYOUT_A, 0.55e4) == (0.0, 1e4)

    def test_near_outlet(self):
        assert bounding_valves(LAYOUT_A, 9.45e4) == (9e4, 10e4)

    def test_coincidence_widens_to_neighbours(self):
        assert bounding_valves(LAYOUT_A, 5.0e4) == (4e4, 6e4)

    def test_outside_rejected(self):
        for bad in (0.0, -1.0, 10e4, 11e4):
            with pytest.raises(ValueError):
                bounding_valves(LAYOUT_A, bad)

    @given(est=st.floats(1.0, 10e4 - 1.0))
    @settings(max_examples=100, deadline=None)
    def test_bracketing_property(self, est):
        l1, l3 = bounding_valves(LAYOUT_A, est)
        assert l1 <= est <= l3
        assert l1 in LAYOUT_A.line_valves and l3 in LAYOUT_A.line_valves


class TestIsolationPlan:
    def test_leak_near_inlet(self):
        plan = build_isolation_plan(LAYOUT_A, 0.55e4)
        assert plan.close == (0.0, 1e4)
        assert plan.open == ("c1",)
        assert plan.partial is False

    def test_leak_at_mid_span_opens_both(self):
        plan = build_isolation_plan(LAYOUT_A, 5.3e4)
        assert plan.close == (5e4, 6e4)
        assert plan.open == ("c1", "c2")
        assert plan.partial is False

    def test_ends_only_layout_is_partial(self):
        plan = build_isolation_plan(ENDS_ONLY, 5e4)
        assert plan.close == (0.0, 10e4)
        assert plan.open == ()
        assert plan.partial is True

    def test_stranded_side_is_partial(self):
        # rupture in (8e4, 9e4): no connector at or beyond 9e4
        plan = build_isolation_plan(LAYOUT_A, 8.7e4)
        assert plan.close == (8e4, 9e4)
        assert plan.open == ("c1",)
        assert plan.partial is True

    def test_idempotent(self):
        assert build_isolation_plan(LAYOUT_A, 3.3e4) == build_isolation_plan(LAYOUT_A, 3.3e4)

    def test_span_contains_true_position_for_small_errors(self):
        # estimates within the demonstrated error budget stay in the segment
        for true_pos, est in ((0.5e4, 0.539e4), (9.5e4, 9.461e4), (5.0e4, 5.0e4)):
            plan = build_isolation_plan(LAYOUT_A, est)
            l1, l3 = plan.close
            assert l1 <= true_pos <= l3

