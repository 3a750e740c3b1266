"""GossipSync: epidemic CT replication with versioned per-origin logs,
partition anti-entropy, and crash accounting (repro.control.gossip)."""

import pytest

from repro.ch import HRWHash
from repro.control.gossip import GossipSync
from repro.core import FullCTLoadBalancer
from repro.core.lb_pool import LBPool
from repro.ct import make_ct


class Member:
    """Minimal gossip participant: a name and a CT."""

    def __init__(self, name, capacity=512):
        self.name = name
        self.ct = make_ct(capacity, "lru")

    def __repr__(self):
        return f"Member({self.name})"


def make_pool(n, **kwargs):
    kwargs.setdefault("fanout", 2)
    kwargs.setdefault("round_lookups", 8)
    sync = GossipSync(**kwargs)
    members = [Member(i) for i in range(n)]
    for member in members:
        sync.register_member(member)
    return sync, members


class TestDissemination:
    def test_every_delta_reaches_every_member(self):
        sync, members = make_pool(5)
        for key in range(40):
            # The origin inserts locally first (as LBPool does), then
            # offers the delta to the pool.
            members[key % 5].ct.put(key, f"s{key}")
            sync.offer(members[key % 5], key, f"s{key}")
        assert sync.staleness() == 40 * 4
        rounds = sync.drain()
        assert sync.converged
        assert rounds >= 1
        for member in members:
            for key in range(40):
                assert member.ct.get(key) == f"s{key}"

    def test_on_lookup_paces_rounds(self):
        sync, members = make_pool(3, round_lookups=8)
        sync.offer(members[0], 1, "a")
        for _ in range(7):
            sync.on_lookup()
        assert sync.stats.rounds == 0
        sync.on_lookup()
        assert sync.stats.rounds == 1

    def test_tombstones_delete_at_peers(self):
        # A deletion needs no delta: every pool member invalidates locally
        # from the pool's backend broadcast, so removing a server clears
        # its replicated entries at every peer with no gossip traffic.
        sync = GossipSync(fanout=2, round_lookups=8)
        pool = LBPool(
            lambda: FullCTLoadBalancer(HRWHash(["a", "b", "c"])), size=3, sync=sync
        )
        destinations = {key: pool.get_destination(key) for key in range(40)}
        sync.drain()
        delivered = sync.stats.delivered
        pool.remove_working_server("a")
        sync.drain()
        assert sync.stats.delivered == delivered
        survivors = {k: d for k, d in destinations.items() if d != "a"}
        assert len(survivors) < len(destinations)
        for member in pool.members:
            assert dict(member.ct.items()) == survivors

    def test_third_party_forwarding_is_epidemic(self):
        # Origin pushes to one peer, then partitions: the delta still
        # reaches everyone because peers forward what they applied.
        sync, members = make_pool(4, fanout=1, seed=2)
        sync.offer(members[0], 1, "a")
        while sync.staleness_of(members[1]) and sync.staleness_of(
            members[2]
        ) and sync.staleness_of(members[3]):
            sync.run_round()
        sync.partition_member(members[0])
        sync.drain()
        assert all(
            m.ct.get(1) == "a" for m in members[1:]
        ), "survivors must forward a partitioned origin's delivered deltas"

    def test_lossy_network_still_converges(self):
        sync, members = make_pool(4, loss_probability=0.3, seed=9)
        for key in range(30):
            sync.offer(members[key % 4], key, key)
        sync.drain()
        assert sync.converged
        # Every lost push is retried until it lands.
        assert 0 < sync.stats.lost_pushes < sync.stats.pushes

    def test_mean_lag_counts_rounds(self):
        sync, members = make_pool(3)
        sync.offer(members[0], 1, "a")
        sync.drain()
        assert sync.stats.lag_rounds_count == 2
        assert sync.stats.mean_lag_rounds >= 1.0


class TestPartitionAndHeal:
    def test_partitioned_member_accrues_staleness(self):
        sync, members = make_pool(4)
        sync.partition_member(members[3])
        for key in range(20):
            sync.offer(members[key % 3], key, key)
        sync.drain()
        # Live members converged among themselves...
        assert sync.staleness_of(members[0]) == 0
        # ...but the partitioned one still owes 20 deltas.
        assert sync.staleness_of(members[3]) == 20
        assert members[3].ct.get(0) is None

    def test_heal_repairs_via_anti_entropy(self):
        sync, members = make_pool(4)
        sync.partition_member(members[3])
        for key in range(20):
            sync.offer(members[key % 3], key, key)
        sync.drain()
        before = sync.stats.anti_entropy
        sync.heal_member(members[3])
        sync.drain()
        assert sync.converged
        assert sync.staleness_of(members[3]) == 0
        assert sync.stats.anti_entropy - before == 20
        assert members[3].ct.get(19) == 19

    def test_drain_does_not_wait_on_active_partition(self):
        # The partitioned member originated deltas nobody else holds;
        # drain must converge on *reachable* debt, while staleness()
        # keeps reporting the true (unreachable) debt.
        sync, members = make_pool(3)
        sync.partition_member(members[2])
        sync.offer(members[2], 1, "trapped")
        sync.offer(members[0], 2, "fine")
        sync.drain()
        assert sync.staleness() > 0  # the trapped delta is still owed
        assert members[1].ct.get(2) == "fine"
        sync.heal_member(members[2])
        sync.drain()
        assert sync.converged
        assert members[0].ct.get(1) == "trapped"

    def test_fresh_member_is_backfilled(self):
        sync, members = make_pool(3)
        for key in range(10):
            sync.offer(members[0], key, key)
        sync.drain()
        newcomer = Member("new")
        sync.register_member(newcomer)
        sync.drain()
        assert sync.staleness_of(newcomer) == 0
        assert all(newcomer.ct.get(k) == k for k in range(10))


class TestCrashAccounting:
    def test_unreplicated_deltas_are_counted_in_lost(self):
        sync, members = make_pool(3)
        # Partition the future victim so its inserts cannot disseminate,
        # then crash it: every one of them is unreplicated by definition.
        sync.partition_member(members[2])
        for key in range(15):
            sync.offer(members[2], key, key)
        sync.forget_target(members[2])
        assert sync.stats.unreplicated == 15
        assert sync.stats.lost >= 15
        assert sync.degraded

    def test_deliveries_owed_to_the_dead_are_voided(self):
        sync, members = make_pool(3)
        for key in range(10):
            sync.offer(members[0], key, key)
        # members[2] never got anything; crash it while deltas pend.
        sync.forget_target(members[2])
        assert sync.stats.dropped_targets == 10
        sync.drain()
        assert sync.converged  # the survivor pair still converges

    def test_ghost_log_keeps_replicated_deltas_flowing(self):
        sync, members = make_pool(3, fanout=2)
        sync.offer(members[0], 1, "a")
        # Deliver to member 1 only, then crash the origin.
        st0 = sync._by_member[members[0]]
        st1 = sync._by_member[members[1]]
        sync._apply(st1, sync._payload(st0, st1))
        sync.forget_target(members[0])
        assert sync.stats.unreplicated == 0
        sync.drain()
        # Member 2 got the delta from member 1's forwarding of the ghost.
        assert members[2].ct.get(1) == "a"


class TestDeterminism:
    def run_trace(self, seed):
        sync, members = make_pool(
            4, loss_probability=0.25, seed=seed, fanout=2
        )
        for key in range(25):
            sync.offer(members[key % 4], key, key)
            sync.run_round()
        sync.drain()
        return sync.stats

    def test_same_seed_same_stats(self):
        assert self.run_trace(123) == self.run_trace(123)

    def test_different_seed_different_trace(self):
        assert self.run_trace(123) != self.run_trace(124)

    def test_validation(self):
        with pytest.raises(ValueError):
            GossipSync(fanout=0)
        with pytest.raises(ValueError):
            GossipSync(round_lookups=0)
        with pytest.raises(ValueError):
            GossipSync(loss_probability=1.0)
