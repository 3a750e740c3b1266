"""Replay-harness tests: metrics, PCC accounting, event injection."""

import pytest

from repro.analysis import tracked_fraction_band
from repro.ch import AnchorHash
from repro.core import JETLoadBalancer, PowerOfTwoJET, make_full_ct, make_jet
from repro.traces import replay, zipf_trace

W = [f"w{i}" for i in range(20)]
H = ["h0", "h1"]
TRACE = zipf_trace(0.9, n_packets=40_000, population=15_000, seed=9)


class TestStaticReplay:
    def test_no_violations_on_static_backend(self):
        outcome = replay(TRACE, make_jet("hrw", W, H))
        assert outcome.pcc_violations == 0
        assert outcome.inevitably_broken == 0

    def test_counts_match_trace(self):
        outcome = replay(TRACE, make_jet("hrw", W, H))
        assert outcome.n_flows == TRACE.n_flows
        assert outcome.n_packets == TRACE.n_packets

    def test_jet_tracks_about_horizon_fraction(self):
        outcome = replay(TRACE, make_jet("hrw", W, H))
        p = len(H) / (len(W) + len(H))
        observed = outcome.tracked_connections / outcome.n_flows
        assert abs(observed - p) <= tracked_fraction_band(outcome.n_flows, p)

    def test_full_ct_tracks_everything(self):
        outcome = replay(TRACE, make_full_ct("hrw", W, H))
        assert outcome.tracked_connections == TRACE.n_flows

    def test_server_loads_sum_to_flows(self):
        outcome = replay(TRACE, make_jet("hrw", W, H))
        assert sum(outcome.server_loads.values()) == TRACE.n_flows

    def test_rate_and_wall_positive(self):
        outcome = replay(TRACE, make_jet("table", W, H, rows=4099))
        assert outcome.rate_pps > 0
        assert outcome.wall_seconds > 0

    def test_oversubscription_sane(self):
        outcome = replay(TRACE, make_jet("hrw", W, H))
        assert 1.0 <= outcome.max_oversubscription < 3.0

    def test_row_rendering(self):
        outcome = replay(TRACE, make_jet("hrw", W, H))
        assert "oversub" in outcome.row()


class TestEventInjection:
    def test_horizon_addition_mid_trace_keeps_pcc(self):
        lb = make_jet("anchor", W, H, capacity=64)
        events = [(TRACE.n_packets // 2, lambda b: b.add_working_server("h0"))]
        outcome = replay(TRACE, lb, events=events)
        assert outcome.pcc_violations == 0

    def test_removal_mid_trace_counts_inevitable_only(self):
        lb = make_jet("anchor", W, H, capacity=64)
        events = [(TRACE.n_packets // 2, lambda b: b.remove_working_server(W[0]))]
        outcome = replay(TRACE, lb, events=events)
        assert outcome.pcc_violations == 0
        assert outcome.inevitably_broken > 0

    def test_force_add_can_violate_pcc(self):
        # HRW: an unanticipated server captures ~1/(|W|+1) of the keys and
        # none of them were tracked -- JET gives no guarantee here.
        # (AnchorHash is a curious exception: its force-add reuses the
        # top-of-stack bucket, whose keys JET was already tracking; the
        # exposure there shifts to the *displaced* horizon server instead.)
        lb = make_jet("hrw", W, H)
        events = [
            (TRACE.n_packets // 2, lambda b: b.force_add_working_server("intruder"))
        ]
        outcome = replay(TRACE, lb, events=events)
        assert outcome.pcc_violations > 0

    def test_events_applied_in_order(self):
        applied = []
        lb = make_jet("hrw", W, H)
        events = [
            (100, lambda b: applied.append("first")),
            (50, lambda b: applied.append("zeroth")),
        ]
        replay(TRACE, lb, events=events)
        assert applied == ["zeroth", "first"]


class TestP2CReplay:
    def test_p2c_replay_is_pcc_clean_and_balanced(self):
        plain = replay(TRACE, JETLoadBalancer(AnchorHash(W, H, capacity=64)))
        p2c = replay(TRACE, PowerOfTwoJET(AnchorHash(W, H, capacity=64)))
        assert p2c.pcc_violations == 0
        assert p2c.max_oversubscription <= plain.max_oversubscription
        # Tracks more than plain JET (the ~50% cost of load awareness).
        assert p2c.tracked_connections > plain.tracked_connections
