"""The pure per-shard kernel: build, replay, account, report.

``run_shard`` is the function a worker process executes per shard.  It
is deliberately side-effect free beyond its return value: it gets the
shard's balancer from ``factory(shard_id)`` (seeds derived from the
shard id; ``replay_sharded`` passes a copy of one build), runs
the shard's packet subsequence through the ordinary ``replay_batch``
(columnar whenever the stack supports it), applies trailing membership
events, and returns a picklable :class:`ShardOutcome` -- the shard's
:class:`~repro.traces.replay.ReplayResult`, an optional structured dump
of its private metrics registry, optional CT contents, and the CT
store's size in bytes for the sharding-cost experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.interfaces import LoadBalancer, Name
from repro.shard.plan import ShardPlan
from repro.traces.replay import DEFAULT_CHUNK, ReplayResult, replay_batch


@dataclass
class ShardOutcome:
    """Everything one shard sends back across the process boundary."""

    shard_id: int
    result: ReplayResult
    #: ``Registry.dump_series()`` of the shard's private registry, or None.
    obs_series: Optional[List[dict]] = None
    #: CT contents ``{key: destination}`` (None when not collected or no CT).
    tracked_items: Optional[Dict[int, Name]] = None
    #: Heap bytes held by the shard's CT store (``ConnectionTracker.nbytes``).
    ct_bytes: int = 0


def _ct_approx_bytes(balancer: LoadBalancer) -> int:
    """The CT store's own size, read in O(1); 0 for a stateless balancer."""
    ct = getattr(balancer, "ct", None)
    return ct.nbytes if ct is not None else 0


def run_shard(
    plan: ShardPlan,
    factory: Callable[[int], LoadBalancer],
    shard_id: int,
    events: Sequence = (),
    chunk_size: int = DEFAULT_CHUNK,
    want_metrics: bool = False,
    collect_tracked: bool = False,
) -> ShardOutcome:
    """Replay one shard and package its results for the merge edge."""
    balancer = factory(shard_id)
    shard_trace = plan.shard_trace(shard_id)
    local_events, trailing = plan.shard_events(shard_id, events)

    registry = None
    if want_metrics:
        from repro.obs.registry import Registry

        registry = Registry()
    result = replay_batch(
        shard_trace, balancer, local_events, chunk_size=chunk_size, metrics=registry
    )
    if trailing:
        # Events past this shard's last packet still mutate membership and
        # CT state (a removal invalidates tracked flows of *this* shard);
        # re-derive the state-dependent result fields afterwards so the
        # merged result matches a single-process replay, which applies
        # every event before it finalizes.
        for apply in trailing:
            apply(balancer)
        result.tracked_connections = balancer.tracked_connections
        result.active_servers = len(balancer.working)

    tracked: Optional[Dict[int, Name]] = None
    if collect_tracked:
        items = getattr(balancer, "tracked_items", None)
        tracked = items() if items is not None else None

    return ShardOutcome(
        shard_id=shard_id,
        result=result,
        obs_series=registry.dump_series() if registry is not None else None,
        tracked_items=tracked,
        ct_bytes=_ct_approx_bytes(balancer),
    )
