"""LoadTracker / SimResult unit tests."""

import pytest

from repro.sim.metrics import LoadTracker, SimResult


class TestLoadTracker:
    def test_start_end_counts(self):
        tracker = LoadTracker()
        tracker.flow_started("a")
        tracker.flow_started("a")
        tracker.flow_started("b")
        assert tracker.active_flows == 3
        assert tracker.server_load("a") == 2
        tracker.flow_ended("a")
        assert tracker.server_load("a") == 1
        assert tracker.active_flows == 2

    def test_end_without_start_is_noop(self):
        tracker = LoadTracker()
        tracker.flow_ended("ghost")
        assert tracker.active_flows == 0
        assert tracker.server_load("ghost") == 0

    def test_counts_in_bulk_equal_one_at_a_time(self):
        bulk, single = LoadTracker(), LoadTracker()
        bulk.flow_started("a", 5)
        bulk.flow_ended("a", 7)  # two more than it serves: like two no-op ends
        bulk.flow_started("b", 2)
        for _ in range(5):
            single.flow_started("a")
        for _ in range(7):
            single.flow_ended("a")
        for _ in range(2):
            single.flow_started("b")
        assert bulk.per_server() == single.per_server() == {"a": 0, "b": 2}
        assert bulk.active_flows == single.active_flows == 2

    def test_oversubscription(self):
        tracker = LoadTracker()
        for _ in range(6):
            tracker.flow_started("hot")
        for _ in range(2):
            tracker.flow_started("cold")
        # 8 flows over 4 active servers: average 2, max 6.
        assert tracker.oversubscription(4) == pytest.approx(3.0)

    def test_oversubscription_idle(self):
        assert LoadTracker().oversubscription(10) is None

    def test_oversubscription_no_servers(self):
        tracker = LoadTracker()
        tracker.flow_started("a")
        assert tracker.oversubscription(0) is None


class TestSimResult:
    def test_summary_renders(self):
        result = SimResult(pcc_violations=3, flows_started=10, max_oversubscription=1.5)
        text = result.summary()
        assert "PCC violations=3" in text
        assert "1.500" in text

    def test_defaults(self):
        result = SimResult()
        assert result.pcc_violations == 0
        assert result.oversubscription_series == []
        assert result.tracked_series == []
