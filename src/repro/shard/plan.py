"""Shard plan: a trace partitioned into per-shard packet subsequences.

The plan is built once in the parent process, *before* any fork, so its
arrays ride into worker processes as copy-on-write pages -- nothing is
pickled.  A shard's view of the trace shares the full ``flow_keys``
column (zero-copy, memmap-friendly: a memmapped key column stays one
shared file mapping across every worker) and materializes only its own
slice of the packet column.

Event translation preserves the single-process interleaving exactly: an
event fires in a shard just before the first *shard-local* packet whose
global index is at or past the event's index.  Events scheduled after a
shard's last packet still have to reach that shard's balancer (a server
removal invalidates CT entries whose flows live in every shard), so they
are returned separately as ``trailing`` callables to apply once the
shard's replay loop has drained.  Events at or past the end of the trace
never fire in a single-process replay and are dropped here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.core.interfaces import LoadBalancer
from repro.shard.partition import shard_of_keys
from repro.traces.base import Trace

#: (packet_index, apply) -- same shape as :data:`repro.traces.replay.TraceEvent`.
Event = Tuple[int, Callable[[LoadBalancer], None]]


def _normalize(event) -> Event:
    """Accept a ``(index, fn)`` pair or anything with packet_index/apply."""
    if isinstance(event, tuple):
        index, apply = event
        return int(index), apply
    return int(event.packet_index), event.apply


@dataclass
class ShardPlan:
    """The partition of one trace's packets into ``n_shards`` shards."""

    trace: Trace
    n_shards: int
    #: int32 shard id per flow (length ``trace.n_flows``).
    flow_shards: np.ndarray
    #: Per shard: sorted global packet positions owned by that shard.
    positions: List[np.ndarray]

    @classmethod
    def partition(cls, trace: Trace, n_shards: int) -> "ShardPlan":
        flow_shards = shard_of_keys(trace.flow_keys, n_shards)
        packet_shards = flow_shards[trace.packets]
        positions = [
            np.flatnonzero(packet_shards == shard) for shard in range(n_shards)
        ]
        return cls(
            trace=trace, n_shards=n_shards, flow_shards=flow_shards,
            positions=positions,
        )

    def shard_trace(self, shard: int) -> Trace:
        """Shard-local trace: shared key column, own packet subsequence.

        Flow indices are unchanged, so per-flow accounting inside a shard
        addresses the same flow ids as the single-process replay -- merges
        never need an index translation.
        """
        return Trace(
            name=self.trace.name,
            flow_keys=self.trace.flow_keys,
            packets=self.trace.packets[self.positions[shard]],
            validate=False,
        )

    def shard_events(
        self, shard: int, events: Sequence
    ) -> Tuple[List[Event], List[Callable[[LoadBalancer], None]]]:
        """Translate a global event schedule into shard-local form.

        Returns ``(local, trailing)``: ``local`` carries shard-local packet
        indices for the replay loop; ``trailing`` are events past the
        shard's last packet (but still inside the trace) to apply after it.
        """
        pos = self.positions[shard]
        ordered = sorted((_normalize(event) for event in events), key=lambda e: e[0])
        local: List[Event] = []
        trailing: List[Callable[[LoadBalancer], None]] = []
        for index, apply in ordered:
            if index >= self.trace.n_packets:
                continue  # would never fire in a single-process replay
            local_index = int(np.searchsorted(pos, index, side="left"))
            if local_index < len(pos):
                local.append((local_index, apply))
            else:
                trailing.append(apply)
        return local, trailing
