"""``repro.shard`` -- the sharded multi-worker dataplane.

RSS-style keyspace partitioning across worker processes: a front stage
hashes every flow key into one of N shards (salted splitmix64,
worker-count-invariant), each shard owns its own CT + LB + int32
dispatch over the shared read-only trace columns, and per-shard results
and metrics registries merge into one snapshot at the result edge.

Layering:

- :mod:`repro.shard.partition` -- the pure shard function + seed stream;
- :mod:`repro.shard.plan` -- a trace partitioned into per-shard packet
  subsequences, with event-schedule translation;
- :mod:`repro.shard.spec` -- picklable balancer/membership descriptions;
- :mod:`repro.shard.worker` -- the pure per-shard replay kernel;
- :mod:`repro.shard.runner` -- partition/merge drivers (serial or forked)
  for replay and the event-driven simulator.

Why sharding is cheap for JET specifically: each shard replicates the
membership state machine (W, H, the CH table) but tracks only its own
*unsafe* flows, so per-shard CT state is ``|H|/(|W|+|H|)`` of the
shard's flows (Theorem 4.2).  A full-CT dataplane sharded the same way
pays ``(|W|+|H|)/|H|`` times more per-shard memory and cross-LB sync
traffic -- counted by ``experiments/sharding.py``.
"""

from repro.shard.partition import SHARD_SALT, shard_of_key, shard_of_keys, shard_seed
from repro.shard.plan import ShardPlan
from repro.shard.runner import ShardedReplay, replay_sharded, simulate_sharded
from repro.shard.spec import BalancerSpec, MembershipEvent
from repro.shard.worker import ShardOutcome, run_shard

__all__ = [
    "SHARD_SALT",
    "BalancerSpec",
    "MembershipEvent",
    "ShardOutcome",
    "ShardPlan",
    "ShardedReplay",
    "replay_sharded",
    "run_shard",
    "shard_of_key",
    "shard_of_keys",
    "shard_seed",
    "simulate_sharded",
]
