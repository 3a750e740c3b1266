"""Concury load balancer: stateless dispatch over the Othello dataplane.

Structurally this is :class:`~repro.core.stateless.StatelessLoadBalancer`
-- no connection tracker, every packet resolved by pure hashing -- but
with :class:`~repro.ch.concury.ConcuryHash` underneath the "hash" is an
O(1) Othello probe whose *contents* the control plane keeps CH-consistent
across membership changes:

- a plain stateless LB re-evaluates ``CH(W, k)`` per packet, so lookup
  cost scales with the CH family and PCC breaks for every moved key;
- Concury's dataplane cost is flat (two gathers + XOR) regardless of
  family or backend count, and PCC breaks at flowset granularity: every
  live flow of a moved flowset.  That is not fewer flows than per-key
  rehashing (the frontier experiment counts 79 against 66 at its smoke
  seed, 172 each at default scale), and more than JET's.

The wrapper adds the control-plane accounting the frontier experiment
reads (map memory, patch/rebuild counters); dispatch itself is inherited
unchanged, which is the point -- the columnar replay loop and sharded
fork drivers run this family without knowing it exists.
"""

from __future__ import annotations

from repro.ch.concury import ConcuryHash
from repro.core.stateless import StatelessLoadBalancer


class ConcuryLoadBalancer(StatelessLoadBalancer):
    """Stateless LB over a :class:`ConcuryHash` (tracked connections: 0)."""

    needs_horizon = True  # the inner CH answers per-flowset safety

    def __init__(self, ch: ConcuryHash):
        if not isinstance(ch, ConcuryHash):
            raise TypeError("ConcuryLoadBalancer requires a ConcuryHash")
        super().__init__(ch)

    # ----------------------------------------------- frontier accounting
    @property
    def map_memory_bytes(self) -> int:
        """Dataplane bytes: Othello arrays + flowset safety bits."""
        return self.ch.memory_bytes

    @property
    def update_stats(self) -> dict:
        """Cumulative control-plane cost of membership changes."""
        ch = self.ch
        return {
            "rebuilds": ch.rebuilds,
            "patches": ch.patches,
            "flowsets_changed": ch.total_changed,
            "cells_touched": ch.total_touched,
            "last_changed": ch.last_refresh_changed,
            "last_touched": ch.last_refresh_touched,
        }
