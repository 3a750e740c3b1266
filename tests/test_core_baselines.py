"""Full-CT, stateless, and load-aware baseline LB tests."""

import pytest

from repro.ch import AnchorHash, HRWHash, MaglevHash
from repro.ch.properties import sample_keys
from repro.core import (
    FullCTLoadBalancer,
    PowerOfTwoJET,
    StatelessLoadBalancer,
    make_full_ct,
    make_jet,
)
from repro.ct import LRUCT

W = [f"w{i}" for i in range(10)]
H = ["h0", "h1"]
KEYS = sample_keys(2000, seed=42)


class TestFullCT:
    def test_tracks_every_connection(self):
        lb = FullCTLoadBalancer(HRWHash(W, H))
        for k in KEYS:
            lb.get_destination(k)
        assert lb.tracked_connections == len(KEYS)

    def test_pcc_via_table_even_for_unsafe_keys(self):
        lb = FullCTLoadBalancer(HRWHash(W, H))
        first = {k: lb.get_destination(k) for k in KEYS}
        for h in list(H):
            lb.add_working_server(h)
        assert all(lb.get_destination(k) == first[k] for k in KEYS)

    def test_eviction_breaks_connections_after_changes(self):
        lb = FullCTLoadBalancer(HRWHash(W, H), ct=LRUCT(16))
        first = {k: lb.get_destination(k) for k in KEYS}
        lb.add_working_server("h0")
        broken = sum(lb.get_destination(k) != first[k] for k in KEYS)
        assert broken > 0

    def test_works_with_plain_maglev(self):
        lb = FullCTLoadBalancer(MaglevHash(W, table_size=1031))
        first = {k: lb.get_destination(k) for k in KEYS[:500]}
        lb.remove_working_server(W[3])
        # Tracked connections survive even Maglev's flips.
        for k, d in first.items():
            if d == W[3]:
                continue
            assert lb.get_destination(k) == d

    def test_horizon_calls_are_noops_for_plain_ch(self):
        lb = FullCTLoadBalancer(MaglevHash(W, table_size=101))
        lb.add_horizon_server("x")  # must not raise
        lb.remove_horizon_server("x")

    def test_factory_with_maglev(self):
        lb = make_full_ct("maglev", W, table_size=101)
        assert lb.get_destination(7) in lb.working

    def test_factory_rejects_maglev_horizon(self):
        # Maglev gets no horizon (Section 3.6): under full CT the names are
        # dropped, so a simulator's standby fleet builds; a mode that asks
        # the CH for safety is refused.
        lb = make_full_ct("maglev", W, horizon=H, table_size=101)
        assert lb.ch.working == frozenset(W) and not hasattr(lb.ch, "horizon")
        with pytest.raises(ValueError, match="maglev has no horizon"):
            make_jet("maglev", W, H, table_size=101)


class TestStateless:
    def test_no_tracking(self):
        lb = StatelessLoadBalancer(HRWHash(W, H))
        for k in KEYS[:200]:
            lb.get_destination(k)
        assert lb.tracked_connections == 0

    def test_every_unsafe_connection_breaks_on_addition(self):
        ch = HRWHash(W, H)
        lb = StatelessLoadBalancer(ch)
        unsafe = {k for k in KEYS if ch.lookup_with_safety(k)[1]}
        first = {k: lb.get_destination(k) for k in KEYS}
        for h in list(H):
            lb.add_working_server(h)
        broken = {k for k in KEYS if lb.get_destination(k) != first[k]}
        assert broken == unsafe  # exactly the Section 2.1 unsafe set

    def test_backend_management(self):
        lb = StatelessLoadBalancer(HRWHash(W, H))
        lb.remove_working_server(W[0])
        assert W[0] not in lb.working
        lb.add_working_server(W[0])
        assert W[0] in lb.working


class TestPowerOfTwoJET:
    def make(self):
        return PowerOfTwoJET(AnchorHash(W, H, capacity=48))

    def test_destination_always_working(self):
        lb = self.make()
        for k in KEYS[:500]:
            d = lb.get_destination(k, new_connection=True)
            assert d in lb.working
            lb.note_flow_start(d)

    def test_tracks_more_than_jet_less_than_full(self):
        lb = self.make()
        for k in KEYS:
            lb.note_flow_start(lb.get_destination(k, new_connection=True))
        fraction = lb.tracked_connections / len(KEYS)
        assert 0.2 < fraction < 0.8  # ~50% per Section 6.3

    def test_improves_max_load(self):
        from repro.core import JETLoadBalancer

        plain = JETLoadBalancer(AnchorHash(W, H, capacity=48))
        p2c = self.make()
        plain_load = {}
        for k in KEYS:
            d = plain.get_destination(k)
            plain_load[d] = plain_load.get(d, 0) + 1
            p2c.note_flow_start(p2c.get_destination(k, new_connection=True))
        assert p2c.max_load() <= max(plain_load.values())

    def test_pcc_through_horizon_addition(self):
        lb = self.make()
        first = {}
        for k in KEYS:
            first[k] = lb.get_destination(k, new_connection=True)
            lb.note_flow_start(first[k])
        lb.add_working_server("h0")
        # Later packets carry no SYN: the plain JET path must agree.
        assert all(lb.get_destination(k) == first[k] for k in KEYS)

    def test_non_syn_packets_never_rerouted_by_load(self):
        lb = self.make()
        first = {k: lb.get_destination(k, new_connection=True) for k in KEYS[:500]}
        for k in KEYS[:500]:
            lb.note_flow_start(first[k])
        # Skew the load wildly; untracked mid-connection packets must still
        # follow the CH result, not chase the emptier servers.
        for _ in range(400):
            lb.note_flow_end(first[KEYS[0]])
        assert all(lb.get_destination(k) == first[k] for k in KEYS[:500])

    def test_flow_end_decrements(self):
        lb = self.make()
        d = lb.get_destination(KEYS[0])
        lb.note_flow_start(d)
        assert lb.load[d] == 1
        lb.note_flow_end(d)
        assert lb.load[d] == 0
        lb.note_flow_end(d)  # never below zero
        assert lb.load[d] == 0

    def test_backend_churn_keeps_load_table_consistent(self):
        lb = self.make()
        lb.remove_working_server(W[0])
        assert W[0] not in lb.load
        lb.add_working_server("h0")
        assert lb.load["h0"] == 0
