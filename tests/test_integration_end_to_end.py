"""End-to-end integration: pcap capture -> parse -> trace -> JET replay ->
simulation cross-checks.  Exercises the full pipeline a downstream user
would run on their own capture."""

import pytest

from repro import FiveTuple, make_full_ct, make_jet
from repro.net.parse import build_ethernet
from repro.net.pcap import write_pcap
from repro.traces import replay, trace_from_pcap
from repro.analysis import (
    max_oversubscription,
    tracked_fraction_band,
    tracking_probability,
)


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """A synthetic capture: 200 flows, heavy-tailed packet counts."""
    path = tmp_path_factory.mktemp("caps") / "dc.pcap"
    frames = []
    t = 0.0
    for i in range(200):
        ft = FiveTuple.make(
            f"172.16.{i // 200}.{i % 200 + 1}", "198.51.100.10", 20000 + i, 443
        )
        for _ in range(1 + (7 * i) % 13):
            t += 0.0001
            frames.append((t, build_ethernet(ft)))
    write_pcap(path, iter(frames))
    return path


class TestCaptureToReplayPipeline:
    def test_pipeline_counts(self, capture):
        trace, skipped = trace_from_pcap(capture)
        assert skipped == 0
        assert trace.n_flows == 200

    def test_jet_vs_full_on_capture(self, capture):
        trace, _ = trace_from_pcap(capture)
        working = [f"be{i}" for i in range(10)]
        horizon = ["standby"]
        jet = replay(trace, make_jet("anchor", working, horizon, capacity=32))
        full = replay(trace, make_full_ct("anchor", working, horizon, capacity=32))
        assert jet.pcc_violations == full.pcc_violations == 0
        assert jet.max_oversubscription == full.max_oversubscription
        assert full.tracked_connections == trace.n_flows
        predicted = tracking_probability(len(working), len(horizon))
        observed = jet.tracked_connections / trace.n_flows
        assert abs(observed - predicted) <= tracked_fraction_band(trace.n_flows, predicted)

    def test_capture_survives_backend_change_midway(self, capture):
        trace, _ = trace_from_pcap(capture)
        lb = make_jet("anchor", [f"be{i}" for i in range(10)], ["standby"], capacity=32)
        events = [(trace.n_packets // 2, lambda b: b.add_working_server("standby"))]
        outcome = replay(trace, lb, events=events)
        assert outcome.pcc_violations == 0

    def test_loads_match_balance_helper(self, capture):
        trace, _ = trace_from_pcap(capture)
        lb = make_jet("hrw", [f"be{i}" for i in range(10)], [])
        outcome = replay(trace, lb)
        assert outcome.max_oversubscription == pytest.approx(
            max_oversubscription(outcome.server_loads, active_servers=10)
        )
