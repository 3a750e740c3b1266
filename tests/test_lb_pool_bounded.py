"""LB-pool tests with *bounded* CTs and fallible sync (Section 6.2 under
real-world constraints): eviction-masking, member crash/partition,
gossip replication, and perfect sync as gossip's degenerate case."""

import numpy as np
import pytest

from repro.ch import AnchorHash, HRWHash
from repro.ch.properties import sample_keys
from repro.control import GossipSync
from repro.core import FullCTLoadBalancer, JETLoadBalancer
from repro.core.lb_pool import LBPool
from repro.ct import make_ct
from repro.traces.replay import replay
from repro.traces.zipf import zipf_trace

W = [f"w{i}" for i in range(12)]
H = ["h0", "h1"]
KEYS = sample_keys(1500, seed=77)


def bounded_full_factory(capacity=32):
    return lambda: FullCTLoadBalancer(HRWHash(W, H), make_ct(capacity, "lru"))


def bounded_jet_factory(capacity=32):
    return lambda: JETLoadBalancer(HRWHash(W, H), make_ct(capacity, "lru"))


class TestEvictionMasksInsert:
    def test_every_insert_replicates_even_at_capacity(self):
        # With a full bounded CT, each insert coincides with an eviction
        # and the table size never changes; size-based "did we insert?"
        # detection silently stops replicating at that point.
        pool = LBPool(bounded_full_factory(capacity=16), size=2, sync=True)
        for k in KEYS[:400]:  # distinct keys, well past capacity
            pool.get_destination(k)
        # Full CT inserts every new flow; each is offered to the one peer.
        assert pool.sync_stats.offered == 400
        assert pool.synced_entries == 400

    def test_entry_inserted_at_capacity_reaches_peer(self):
        pool = LBPool(bounded_full_factory(capacity=8), size=2, sync=True)
        origin, peer = pool.members
        mine = [k for k in KEYS if pool._steer(k) is origin]
        for k in mine[:8]:  # fill the origin's CT exactly
            pool.get_destination(k)
        assert len(origin.ct) == 8
        fresh = mine[8]
        destination = pool.get_destination(fresh)
        assert len(origin.ct) == 8  # eviction masked the insert...
        assert peer.peek_tracked(fresh) == destination  # ...but it replicated


class TestPoolChangesMidTraffic:
    def test_grow_seeds_new_member_from_donor(self):
        pool = LBPool(bounded_full_factory(capacity=64), size=2, sync=True)
        for k in KEYS[:200]:
            pool.get_destination(k)
        member = pool.add_lb()
        assert member.tracked_connections > 0
        # The donor's (bounded) CT is what gets copied, capped by capacity.
        assert member.tracked_connections <= 64
        assert member.working == pool.members[0].working

    def test_grow_never_seeds_from_a_partitioned_donor(self):
        # Member 0 is partitioned, so it misses its peers' replication; a
        # joiner seeded from it would break every flow ECMP re-steers onto
        # it that member 0 never saw.  The donor is a live member.
        pool = LBPool(bounded_full_factory(capacity=1024), size=3, sync=True)
        stale = pool.partition_lb(0)
        destinations = {k: pool.get_destination(k) for k in KEYS[:300]}
        assert stale.tracked_connections < len(destinations)
        member = pool.add_lb()
        assert member.tracked_connections == len(destinations)
        assert all(member.peek_tracked(k) == d for k, d in destinations.items())

    @pytest.mark.parametrize("mode", [JETLoadBalancer, FullCTLoadBalancer])
    def test_grow_feeds_names_from_a_donor_that_ran_a_columnar_chunk(self, mode):
        pool = LBPool(lambda: mode(HRWHash(W, H)), size=2, sync=True)
        donor = pool.members[0]
        donor.get_destinations_batch_idx(np.array(KEYS, dtype=np.uint64))
        member = pool.add_lb()
        fed = member.tracked_items()
        assert fed and fed == donor.tracked_items()
        assert set(fed.values()) <= set(W)

    def test_shrink_reports_lost_entries(self):
        pool = LBPool(bounded_full_factory(capacity=64), size=3, sync=False)
        for k in KEYS[:300]:
            pool.get_destination(k)
        doomed = pool.members[-1]
        lost = pool.remove_lb()
        assert lost == doomed.tracked_connections
        assert lost > 0
        assert pool.lost_entries == lost
        assert pool.size == 2

    def test_remove_lb_validates_index(self):
        pool = LBPool(bounded_full_factory(), size=3)
        with pytest.raises(ValueError):
            pool.remove_lb(3)
        with pytest.raises(ValueError):
            pool.remove_lb(-4)
        with pytest.raises(ValueError):
            pool.remove_lb("first")
        with pytest.raises(ValueError):
            pool.remove_lb(True)
        assert pool.size == 3  # nothing removed by the failed calls

    def test_traffic_continues_after_grow_and_shrink(self):
        pool = LBPool(bounded_jet_factory(capacity=32), size=2, sync=True)
        for k in KEYS[:100]:
            assert pool.get_destination(k) in pool.working
        pool.add_lb()
        pool.remove_working_server(W[0])
        for k in KEYS[100:200]:
            assert pool.get_destination(k) in pool.working
        pool.remove_lb(0)
        for k in KEYS[200:300]:
            assert pool.get_destination(k) in pool.working


class TestCrashAndPartition:
    def test_crash_counts_and_loses_state(self):
        pool = LBPool(bounded_full_factory(capacity=64), size=3, sync=False)
        for k in KEYS[:300]:
            pool.get_destination(k)
        lost = pool.crash_lb(1)
        assert lost > 0
        assert pool.crashes == 1
        assert pool.lost_entries == lost

    def test_partitioned_member_misses_broadcasts(self):
        pool = LBPool(bounded_jet_factory(), size=3)
        stale = pool.partition_lb(1)
        assert pool.degraded
        pool.remove_working_server(W[0])
        assert W[0] in stale.working  # missed the broadcast
        assert all(
            W[0] not in m.working for m in pool.members if m is not stale
        )

    def test_heal_replays_missed_suffix(self):
        pool = LBPool(bounded_jet_factory(), size=3)
        pool.remove_working_server(W[0])  # applied everywhere
        stale = pool.partition_lb(1)
        pool.remove_working_server(W[1])
        pool.add_working_server(W[0])
        assert stale.working != pool.members[0].working
        replayed = pool.heal_lb(1)
        assert replayed == 2  # only the missed suffix, not the full log
        assert stale.working == pool.members[0].working
        assert not pool.degraded
        assert pool.heal_lb(1) == 0  # idempotent

    def test_partition_stops_sync_to_member(self):
        pool = LBPool(bounded_full_factory(capacity=64), size=2, sync=True)
        isolated = pool.partition_lb(1)
        before = isolated.tracked_connections
        for k in KEYS[:100]:
            pool.get_destination(k)
        served = isolated.tracked_connections - before
        # It still serves its own ECMP slice but receives no replication.
        assert served == sum(1 for k in KEYS[:100] if pool._steer(k) is isolated)


class TestDegradedSync:
    def test_lossy_channel_reports_degraded(self):
        # Loss is reported (lost pushes) and retried until delivered, so
        # lossy gossip converges after a drain and nothing is abandoned:
        # only a crash that takes un-replicated state degrades the pool.
        channel = GossipSync(fanout=1, round_lookups=2, loss_probability=0.9, seed=2)
        pool = LBPool(bounded_full_factory(capacity=256), size=2, sync=channel)
        destinations = {k: pool.get_destination(k) for k in KEYS[:200]}
        channel.drain()
        assert channel.stats.lost_pushes > 0
        assert channel.converged and not pool.degraded
        for member in pool.members:
            assert all(member.peek_tracked(k) == d for k, d in destinations.items())

    def test_lagged_sync_eventually_protects(self):
        # One round per 4 lookups stands in for replication lag.
        channel = GossipSync(fanout=1, round_lookups=4)
        pool = LBPool(bounded_full_factory(capacity=1024), size=2, sync=channel)
        destinations = {k: pool.get_destination(k) for k in KEYS[:200]}
        peer = pool.members[1]
        assert any(peer.peek_tracked(k) is None for k in destinations)  # lagging
        channel.drain()
        # After the lag settles, every entry is on both members.
        for member in pool.members:
            for k, d in destinations.items():
                assert member.peek_tracked(k) == d

    def test_sync_bool_back_compat(self):
        assert LBPool(bounded_full_factory(), size=2, sync=True).sync is True
        assert LBPool(bounded_full_factory(), size=2, sync=False).sync is False
        channel = GossipSync(loss_probability=0.1, seed=1)
        assert LBPool(bounded_full_factory(), size=2, sync=channel).sync is True
        with pytest.raises(TypeError):  # no third, duck-typed channel
            LBPool(bounded_full_factory(), size=2, sync=object())


class TestCrashSyncAccounting:
    def test_crash_voids_pending_deliveries_into_lost(self):
        # Deliveries still owed to the crashed member, and the deltas only
        # it held, must show up in the accounted bill (stats.lost), never
        # vanish.
        channel = GossipSync(round_lookups=10_000)  # nothing delivers yet
        pool = LBPool(bounded_full_factory(capacity=256), size=3, sync=channel)
        for k in KEYS[:100]:
            pool.get_destination(k)
        victim = pool.members[1]
        owed = channel.staleness_of(victim)
        only_held = victim.tracked_connections
        assert owed > 0 and only_held > 0
        pool.crash_lb(1)
        assert channel.stats.dropped_targets == owed
        assert channel.stats.unreplicated == only_held
        assert channel.stats.lost == owed + only_held
        channel.drain()
        assert channel.converged  # the survivors still converge

    def test_heal_repairs_ct_via_anti_entropy(self):
        # A healed member must not resume with a stale CT: under perfect
        # sync heal_lb feeds it the donor's entries it lacks, billed to
        # sync_stats.anti_entropy.
        pool = LBPool(bounded_full_factory(capacity=1024), size=3, sync=True)
        stale = pool.partition_lb(1)
        destinations = {k: pool.get_destination(k) for k in KEYS[:200]}
        missing = [
            k for k, d in destinations.items() if stale.peek_tracked(k) != d
        ]
        assert missing  # the partitioned member missed replication
        pool.heal_lb(1)
        assert pool.sync_stats.anti_entropy == len(missing)
        donor = pool.members[0]
        for k, d in donor.tracked_items().items():
            assert stale.peek_tracked(k) == d


class TestGossipPool:
    """LBPool driven by the epidemic GossipSync channel."""

    def make_pool(self, size=3, **gossip_kwargs):
        gossip_kwargs.setdefault("fanout", 2)
        gossip_kwargs.setdefault("round_lookups", 16)
        channel = GossipSync(**gossip_kwargs)
        pool = LBPool(
            bounded_full_factory(capacity=4096), size=size, sync=channel
        )
        return pool, channel

    def test_gossip_replicates_inserts_to_all_members(self):
        pool, channel = self.make_pool()
        destinations = {k: pool.get_destination(k) for k in KEYS[:300]}
        channel.drain()
        assert channel.converged
        for member in pool.members:
            for k, d in destinations.items():
                assert member.peek_tracked(k) == d

    def test_partition_heal_converges_staleness_to_zero(self):
        pool, channel = self.make_pool()
        stale = pool.partition_lb(2)
        for k in KEYS[:300]:
            pool.get_destination(k)
        channel.drain()
        owed = channel.staleness_of(stale)
        assert owed > 0
        before = channel.stats.anti_entropy
        pool.heal_lb(2)
        channel.drain()
        assert channel.staleness() == 0
        assert channel.stats.anti_entropy - before >= owed

    def test_gossip_crash_accounts_unreplicated_in_lost(self):
        # Partition the victim first so its own inserts cannot spread:
        # crashing it then *guarantees* un-replicated deltas to account.
        pool, channel = self.make_pool()
        victim = pool.partition_lb(2)
        inserted = sum(
            1 for k in KEYS[:300]
            if pool._steer(k) is victim and pool.get_destination(k) is not None
            and victim.peek_tracked(k) is not None
        )
        assert inserted > 0
        pool.crash_lb(2)
        assert channel.stats.unreplicated > 0
        assert channel.stats.lost >= channel.stats.unreplicated
        assert pool.degraded or channel.degraded

    def test_grow_backfills_new_member_by_anti_entropy(self):
        pool, channel = self.make_pool(size=2)
        destinations = {k: pool.get_destination(k) for k in KEYS[:200]}
        channel.drain()
        member = pool.add_lb()
        assert channel.staleness_of(member) > 0
        channel.drain()
        assert channel.staleness_of(member) == 0
        for k, d in destinations.items():
            assert member.peek_tracked(k) == d


class TestPerfectSyncIsDegenerateGossip:
    """``sync=True`` is what gossip does when every member pushes to every
    peer each lookup with no loss: a replay with a backend addition and a
    pool growth gives the same destinations, PCC violations, sync bill and
    per-member CTs either way (gossip after a final drain)."""

    N_PACKETS = 5000
    TRACE = zipf_trace(0.9, n_packets=N_PACKETS, population=N_PACKETS // 4, seed=19)
    EVENTS = [
        (N_PACKETS // 4, lambda pool: pool.add_working_server("h0")),
        (N_PACKETS // 2, lambda pool: pool.add_lb()),
    ]

    WORKING = [f"w{i}" for i in range(20)]

    def run(self, mode, sync, chunk_first=False):
        def factory():
            return mode(AnchorHash(self.WORKING, ["h0", "h1"], capacity=44))

        pool = LBPool(factory, size=3, sync=sync)
        if chunk_first:
            # Each member serves the trace's first flows as one columnar
            # chunk, so the members start out equal.
            for member in pool.members:
                member.get_destinations_batch_idx(self.TRACE.flow_keys[:400])
        seen, dispatch = [], pool.get_destination
        pool.get_destination = lambda key: seen.append(dispatch(key)) or seen[-1]
        outcome = replay(self.TRACE, pool, events=self.EVENTS)
        if pool.gossip is not None:
            pool.gossip.drain()
        cts = [member.tracked_items() for member in pool.members]
        return seen, outcome.pcc_violations, pool.synced_entries, cts

    @pytest.mark.parametrize("mode", [JETLoadBalancer, FullCTLoadBalancer])
    def test_push_equals_full_fanout_gossip_after_drain(self, mode):
        pushed = self.run(mode, True)
        gossiped = self.run(mode, GossipSync(fanout=4, round_lookups=1))
        assert pushed[2] > 0 and len(pushed[3]) == 4
        assert gossiped == pushed

    @pytest.mark.parametrize("sync", ["push", "gossip"])
    @pytest.mark.parametrize("mode", [JETLoadBalancer, FullCTLoadBalancer])
    def test_members_agree_after_a_columnar_chunk(self, mode, sync):
        channel = True if sync == "push" else GossipSync(fanout=4, round_lookups=1)
        _, _, synced, cts = self.run(mode, channel, chunk_first=True)
        first, *others, joiner = cts
        assert synced > 0 and first and set(first.values()) <= set(self.WORKING) | {"h0"}
        assert all(ct == first for ct in others)
        # The joiner gets what the pool offered: under the push, the
        # donor's whole CT; under gossip, the deltas, which the columnar
        # chunk's entries never were.
        assert joiner.items() <= first.items()
        if sync == "push":
            assert joiner == first
