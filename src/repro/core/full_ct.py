"""Full connection tracking -- the stateful-LB baseline (Ananta, Maglev,
Katran style).

Every connection's destination is recorded on its first packet, and every
subsequent packet is served from the CT table.  With an unbounded table and
a consistent hash this preserves PCC perfectly; with a bounded table,
evicted-but-alive connections break when the backend has changed since
their arrival -- the full-CT bars of Fig. 3.

The baseline accepts either a plain :class:`~repro.ch.base.ConsistentHash`
(e.g. MaglevHash) or a :class:`~repro.ch.base.HorizonConsistentHash`.  In
the latter case backend events are applied through the *same* horizon
protocol JET uses, so a paired JET/full-CT run drives byte-identical CH
state -- the setup Proposition 4.1 compares.

The dispatch code is :class:`~repro.core.jet.TrackingLoadBalancer`'s
Algorithm 1; this class is its "track every miss" policy row.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.interfaces import Name
from repro.core.jet import TrackingLoadBalancer


class FullCTLoadBalancer(TrackingLoadBalancer):
    """Hash-based stateful LB that tracks every connection."""

    def _decide(self, key_hash: int, new_connection: bool) -> Tuple[Name, bool]:
        return self.ch.lookup(key_hash), True  # track unconditionally

    def _decide_batch_idx(self, keys: np.ndarray) -> Tuple[np.ndarray, None]:
        return self.ch.lookup_batch_idx(keys), None
