"""JET load-balancer tests: Algorithm 1 line by line, plus PCC end-to-end."""

import pytest

from repro.ch import AnchorHash, HRWHash
from repro.ch.properties import sample_keys
from repro.core import JETLoadBalancer, make_jet
from repro.ct import LRUCT, UnboundedCT

W = [f"w{i}" for i in range(10)]
H = ["h0", "h1"]


def fresh_lb(ct=None, **kwargs):
    return JETLoadBalancer(HRWHash(W, H), ct=ct, **kwargs)


class TestGetDestination:
    def test_tracked_connection_served_from_ct(self):
        lb = fresh_lb()
        lb.ct.put(42, W[7])
        assert lb.get_destination(42) == W[7]

    def test_untracked_safe_connection_not_inserted(self):
        lb = fresh_lb()
        keys = sample_keys(500, seed=1)
        safe = [k for k in keys if not lb.ch.lookup_with_safety(k)[1]]
        for k in safe:
            lb.get_destination(k)
        assert lb.tracked_connections == 0

    def test_unsafe_connection_inserted(self):
        lb = fresh_lb()
        keys = sample_keys(500, seed=2)
        unsafe = [k for k in keys if lb.ch.lookup_with_safety(k)[1]]
        assert unsafe, "test needs at least one unsafe key"
        for k in unsafe:
            lb.get_destination(k)
        assert lb.tracked_connections == len(unsafe)

    def test_tracking_fraction_matches_theorem42(self):
        lb = fresh_lb()
        keys = sample_keys(4000, seed=3)
        for k in keys:
            lb.get_destination(k)
        fraction = lb.tracked_connections / len(keys)
        assert fraction == pytest.approx(len(H) / (len(W) + len(H)), rel=0.3)

    def test_stale_ct_entry_cleaned_lazily(self):
        lb = fresh_lb(active_cleanup=False)
        lb.ct.put(42, "long-gone")  # simulates an entry surviving removal
        destination = lb.get_destination(42)
        assert destination in lb.working
        assert lb.ct.peek(42) != "long-gone"


class TestBackendEvents:
    def test_add_working_requires_horizon(self):
        lb = fresh_lb()
        from repro.ch.base import BackendError

        with pytest.raises(BackendError):
            lb.add_working_server("unknown")

    def test_remove_cleans_ct_actively(self):
        lb = fresh_lb()
        keys = sample_keys(3000, seed=4)
        for k in keys:
            lb.get_destination(k)
        victim = W[0]
        had = sum(1 for k in lb.ct if lb.ct.peek(k) == victim)
        lb.remove_working_server(victim)
        assert all(lb.ct.peek(k) != victim for k in lb.ct)
        assert lb.ct.stats.invalidations == had

    def test_remove_without_active_cleanup_still_correct(self):
        lb = fresh_lb(active_cleanup=False)
        keys = sample_keys(2000, seed=5)
        for k in keys:
            lb.get_destination(k)
        lb.remove_working_server(W[0])
        for k in keys:
            assert lb.get_destination(k) in lb.working

    def test_horizon_management_delegates(self):
        lb = fresh_lb()
        lb.add_horizon_server("h9")
        assert "h9" in lb.horizon
        lb.remove_horizon_server("h9")
        assert "h9" not in lb.horizon

    def test_force_add(self):
        lb = fresh_lb()
        lb.force_add_working_server("surprise")
        assert "surprise" in lb.working


class TestPCCInvariants:
    """End-to-end: no tracked-or-safe connection ever changes destination."""

    def test_pcc_through_horizon_addition(self):
        lb = fresh_lb()
        keys = sample_keys(2000, seed=6)
        first = {k: lb.get_destination(k) for k in keys}
        lb.add_working_server("h0")
        for k in keys:
            assert lb.get_destination(k) == first[k]

    def test_pcc_through_full_horizon_admission(self):
        lb = fresh_lb()
        keys = sample_keys(2000, seed=7)
        first = {k: lb.get_destination(k) for k in keys}
        for h in list(lb.horizon):
            lb.add_working_server(h)
        for k in keys:
            assert lb.get_destination(k) == first[k]

    def test_pcc_through_removal_except_victims(self):
        lb = fresh_lb()
        keys = sample_keys(2000, seed=8)
        first = {k: lb.get_destination(k) for k in keys}
        lb.remove_working_server(W[4])
        for k in keys:
            if first[k] == W[4]:
                continue  # inevitably broken
            assert lb.get_destination(k) == first[k]

    def test_pcc_through_remove_then_rejoin(self):
        lb = fresh_lb()
        keys = sample_keys(1500, seed=9)
        first = {k: lb.get_destination(k) for k in keys}
        lb.remove_working_server(W[2])
        survivors = {k: d for k, d in first.items() if d != W[2]}
        mid = {k: lb.get_destination(k) for k in survivors}
        lb.add_working_server(W[2])  # rejoin via the horizon
        for k, d in survivors.items():
            assert lb.get_destination(k) == d == mid[k]

    def test_pcc_with_anchor_family_and_churn(self):
        ch = AnchorHash(W, H, capacity=64)
        lb = JETLoadBalancer(ch)
        keys = sample_keys(1500, seed=10)
        truth = {k: lb.get_destination(k) for k in keys}
        script = [
            ("add", "h0"), ("remove", W[1]), ("add", "h1"),
            ("remove", W[6]), ("add", W[1]), ("add", W[6]),
        ]
        for op, name in script:
            if op == "add":
                lb.add_working_server(name)
            else:
                lb.remove_working_server(name)
                truth = {k: d for k, d in truth.items() if d != name}
            for k, d in truth.items():
                assert lb.get_destination(k) == d, (op, name)


class TestBoundedCTBehaviour:
    def test_eviction_can_break_unsafe_connections(self):
        # With a tiny CT, JET's guarantee degrades exactly as the paper's
        # Fig. 3 smallest-table points show.
        lb = JETLoadBalancer(HRWHash(W, H), ct=LRUCT(4))
        keys = sample_keys(3000, seed=11)
        first = {k: lb.get_destination(k) for k in keys}
        for h in list(lb.horizon):
            lb.add_working_server(h)
        broken = sum(lb.get_destination(k) != first[k] for k in keys)
        assert broken > 0  # guarantee needs table >= unsafe count

    def test_unbounded_default(self):
        lb = JETLoadBalancer(HRWHash(W, H))
        assert isinstance(lb.ct, UnboundedCT)


class TestFactory:
    def test_make_jet_families(self):
        for family in ("hrw", "ring", "table", "anchor"):
            lb = make_jet(family, W, H)
            assert lb.get_destination(12345) in lb.working

    def test_make_jet_rejects_maglev(self):
        with pytest.raises(ValueError):
            make_jet("maglev", W, H)

    def test_make_jet_unknown_family(self):
        with pytest.raises(ValueError):
            make_jet("sha256", W, H)

    def test_ct_capacity_plumbing(self):
        from repro.ct import FIFOCT, make_ct

        lb = make_jet("hrw", W, H, ct=make_ct(16, "fifo"))

        assert isinstance(lb.ct, FIFOCT)
        assert lb.ct.capacity == 16
