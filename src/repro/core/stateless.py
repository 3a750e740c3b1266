"""Stateless hash LB -- Algorithm 1 with the tracking policy "nothing".

The Section 2 "static setting" baseline: apply the hash on every packet.
PCC holds only while the backend is static; every unsafe connection breaks
on the first backend change.  Useful as the lower envelope in PCC plots and
to sanity-check the simulator (its violation count should match the
number of connections the CH flags unsafe, Section 2.1).

It is also the root of the balancer spectrum: what needs no connection
table lives here once -- the five backend-change entry points (with the
horizon-aware / plain-CH fork), the working-set mirror, the columnar
dispatch ids; :class:`~repro.core.jet.TrackingLoadBalancer` adds the CT.
"""

from __future__ import annotations

from typing import FrozenSet, Set

import numpy as np

from repro.ch.base import ConsistentHash, HorizonConsistentHash
from repro.core.indexing import BackendIndexer
from repro.core.interfaces import LoadBalancer, Name


class StatelessLoadBalancer(LoadBalancer):
    """Pure hash dispatching; remembers nothing about connections."""

    #: True when the stack asks its CH for safety (``lookup_with_safety``):
    #: the family must then be horizon-aware, so not Maglev (Section 3.6).
    needs_horizon = False

    def __init__(self, ch: ConsistentHash):
        # Read at call time everywhere, never through a cached bound
        # method: tracing swaps the attribute after construction.
        self.ch = ch
        self._horizon_aware = isinstance(ch, HorizonConsistentHash)
        # Mirror of ch.working with O(1) membership.
        self._working: Set[Name] = set(ch.working)
        # Stable id space for the columnar path: CH table positions
        # renumber under churn, dispatch ids must not.
        self._indexer = BackendIndexer()
        #: Calls of the five backend-change entry points so far.
        self._changes = 0

    @property
    def columnar_effective(self) -> bool:
        return True  # every CH family has an integer-index kernel

    def get_destination(self, key_hash: int) -> Name:
        return self.ch.lookup(key_hash)

    # ------------------------------------------------- columnar dispatch
    def get_destinations_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        """Integer CH kernel plus the table-position -> stable-id gather."""
        ch_idx = self.ch.lookup_batch_idx(np.asarray(keys, dtype=np.uint64))
        return self._indexer.ids_at(self.ch.backend_table(), ch_idx)

    def dispatch_names(self) -> np.ndarray:
        return self._indexer.name_array()

    def dispatch_working_mask(self) -> np.ndarray:
        return self._indexer.working_mask(self._working)

    # -------------------------------------------------- backend changes
    # A plain ConsistentHash (Maglev) has no horizon: working-set changes
    # go through its add/remove and the horizon entry points are no-ops.
    def add_working_server(self, name: Name) -> None:
        """ADDWORKINGSERVER (lines 8-10): ``name`` must be in the horizon."""
        self._changes += 1
        if self._horizon_aware:
            self.ch.add_working(name)
        else:
            self.ch.add(name)
        self._admit(name)

    def remove_working_server(self, name: Name) -> None:
        """REMOVEWORKINGSERVER (lines 11-13): ``name`` joins the horizon."""
        self._changes += 1
        if self._horizon_aware:
            self.ch.remove_working(name)
        else:
            self.ch.remove(name)
        self._retire(name)

    def add_horizon_server(self, name: Name) -> None:
        """ADDHORIZONSERVER (line 14)."""
        self._changes += 1
        if self._horizon_aware:
            self.ch.add_horizon(name)

    def remove_horizon_server(self, name: Name) -> None:
        """REMOVEHORIZONSERVER (line 15)."""
        self._changes += 1
        if self._horizon_aware:
            self.ch.remove_horizon(name)

    def force_add_working_server(self, name: Name) -> None:
        """Unanticipated addition (violates the Section 2.3 contract; JET's
        PCC guarantee does not cover connections unsafe w.r.t. this server)."""
        self._changes += 1
        if self._horizon_aware:
            self.ch.force_add_working(name)
        else:
            self.ch.add(name)
        self._admit(name)

    # Bookkeeping once the CH has admitted / dropped a working server;
    # subclasses extend these two rather than the entry points above.
    def _admit(self, name: Name) -> None:
        self._working.add(name)

    def _retire(self, name: Name) -> None:
        self._working.discard(name)

    # ------------------------------------------------------------ state
    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._working)
