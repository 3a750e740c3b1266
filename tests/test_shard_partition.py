"""The RSS front stage: shard function, seed stream, and shard plans.

The contract under test is worker-count invariance: a flow's shard and a
shard's seeds are pure functions of (key/master seed, shard id), the
per-shard packet subsequences are a disjoint order-preserving cover of
the trace, and event translation reproduces the single-process
interleaving -- including events that trail a shard's last packet.
"""

import numpy as np
import pytest

from repro.shard import SHARD_SALT, ShardPlan, shard_of_key, shard_of_keys, shard_seed
from repro.traces import zipf_trace


def small_trace(seed=11):
    return zipf_trace(skew=1.0, n_packets=5_000, population=1_000, seed=seed)


class TestShardFunction:
    def test_scalar_and_vector_agree(self):
        keys = small_trace().flow_keys
        for n_shards in (1, 2, 3, 7):
            vector = shard_of_keys(keys, n_shards)
            assert vector.dtype == np.int32
            scalar = [shard_of_key(int(k), n_shards) for k in keys[:200]]
            assert vector[:200].tolist() == scalar

    def test_deterministic_and_in_range(self):
        keys = small_trace().flow_keys
        a = shard_of_keys(keys, 5)
        b = shard_of_keys(keys, 5)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 5

    def test_single_shard_is_zero(self):
        keys = small_trace().flow_keys
        assert not shard_of_keys(keys, 1).any()
        assert shard_of_key(123, 1) == 0

    def test_roughly_balanced(self):
        # splitmix64 over salted keys: shard sizes within ~3 sigma of even.
        keys = small_trace().flow_keys
        counts = np.bincount(shard_of_keys(keys, 4), minlength=4)
        expected = len(keys) / 4
        assert np.all(np.abs(counts - expected) < 4 * np.sqrt(expected))

    def test_salt_decorrelates_from_unsalted_mix(self):
        keys = small_trace().flow_keys
        salted = shard_of_keys(keys, 2)
        unsalted = shard_of_keys(keys ^ np.uint64(SHARD_SALT), 2)
        assert not np.array_equal(salted, unsalted)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            shard_of_key(1, 0)
        with pytest.raises(ValueError):
            shard_of_keys(np.array([1], dtype=np.uint64), 0)


class TestShardSeed:
    def test_pure_and_distinct(self):
        seeds = [shard_seed(42, shard) for shard in range(16)]
        assert seeds == [shard_seed(42, shard) for shard in range(16)]
        assert len(set(seeds)) == 16

    def test_master_seed_matters(self):
        assert shard_seed(1, 0) != shard_seed(2, 0)

    def test_rejects_negative_shard(self):
        with pytest.raises(ValueError):
            shard_seed(0, -1)


class TestShardPlan:
    def test_positions_partition_the_trace(self):
        trace = small_trace()
        plan = ShardPlan.partition(trace, 3)
        merged = np.concatenate(plan.positions)
        assert len(merged) == trace.n_packets
        assert np.array_equal(np.sort(merged), np.arange(trace.n_packets))
        for pos in plan.positions:
            assert np.all(np.diff(pos) > 0)  # order-preserving

    def test_shard_trace_shares_keys_and_keeps_flow_ids(self):
        trace = small_trace()
        plan = ShardPlan.partition(trace, 4)
        for shard in range(4):
            sub = plan.shard_trace(shard)
            assert sub.flow_keys is trace.flow_keys  # zero-copy column
            assert np.array_equal(sub.packets, trace.packets[plan.positions[shard]])
            # Every packet's flow belongs to this shard.
            assert np.all(plan.flow_shards[sub.packets] == shard)

    def test_packets_per_shard_sums_to_trace(self):
        trace = small_trace()
        plan = ShardPlan.partition(trace, 5)
        assert sum(len(positions) for positions in plan.positions) == trace.n_packets

    def test_event_translation_local_and_trailing(self):
        trace = small_trace()
        plan = ShardPlan.partition(trace, 2)
        fired = []
        pos0 = plan.positions[0]
        mid_global = int(pos0[len(pos0) // 2])
        events = [
            (mid_global, lambda lb: fired.append("mid")),
            # Past shard 0's last packet but inside the trace: trailing there.
            (int(pos0[-1]) + 1 if int(pos0[-1]) + 1 < trace.n_packets
             else trace.n_packets - 1, lambda lb: fired.append("late")),
            # At/past the end of the trace: dropped, as in single-process replay.
            (trace.n_packets, lambda lb: fired.append("never")),
        ]
        local, trailing = plan.shard_events(0, events)
        indices = [index for index, _ in local]
        assert indices == sorted(indices)
        for index, _ in local:
            assert 0 <= index < len(pos0)
        # The mid event lands exactly before the first local packet at or
        # past its global index.
        expected_local = int(np.searchsorted(pos0, mid_global, side="left"))
        assert (expected_local, events[0][1]) in [(i, f) for i, f in local]
        assert all(f is not events[2][1] for _, f in local)
        assert events[2][1] not in trailing

    def test_membership_event_objects_are_accepted(self):
        from repro.shard import MembershipEvent

        trace = small_trace()
        plan = ShardPlan.partition(trace, 2)
        event = MembershipEvent(10, "remove_working", "s0")
        local, trailing = plan.shard_events(0, [event])
        assert len(local) + len(trailing) == 1
