"""Stateless hash LB -- no connection tracking at all.

The Section 2 "static setting" baseline: apply the hash on every packet.
PCC holds only while the backend is static; every unsafe connection breaks
on the first backend change.  Useful as the lower envelope in PCC plots and
to sanity-check the simulator (its violation count should match the
number of unsafe connections the safety model predicts).
"""

from __future__ import annotations

from typing import FrozenSet, Set

import numpy as np

from repro.ch.base import ConsistentHash, HorizonConsistentHash, has_index_kernel
from repro.core.indexing import BackendIndexer
from repro.core.interfaces import LoadBalancer, Name


class StatelessLoadBalancer(LoadBalancer):
    """Pure hash dispatching; remembers nothing about connections."""

    def __init__(self, ch: ConsistentHash):
        self.ch = ch
        self._horizon_aware = isinstance(ch, HorizonConsistentHash)
        self._working: Set[Name] = set(ch.working)
        self._ch_index_kernel = has_index_kernel(ch)
        # Stable id space for the columnar path: CH table positions
        # renumber under churn, dispatch ids must not.
        self._indexer = BackendIndexer()

    @property
    def columnar_effective(self) -> bool:
        return self._ch_index_kernel

    def get_destination(self, key_hash: int) -> Name:
        return self.ch.lookup(key_hash)

    # ------------------------------------------------- columnar dispatch
    def get_destinations_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        """Integer CH kernel plus the table-position -> stable-id gather."""
        ch_idx = self.ch.lookup_batch_idx(np.asarray(keys, dtype=np.uint64))
        return self._indexer.translate(self.ch.backend_table())[ch_idx]

    def dispatch_names(self) -> np.ndarray:
        return self._indexer.name_array()

    def dispatch_working_mask(self) -> np.ndarray:
        return self._indexer.working_mask(self._working)

    def add_working_server(self, name: Name) -> None:
        if self._horizon_aware:
            self.ch.add_working(name)
        else:
            self.ch.add(name)
        self._working.add(name)

    def remove_working_server(self, name: Name) -> None:
        if self._horizon_aware:
            self.ch.remove_working(name)
        else:
            self.ch.remove(name)
        self._working.discard(name)

    def add_horizon_server(self, name: Name) -> None:
        if self._horizon_aware:
            self.ch.add_horizon(name)

    def remove_horizon_server(self, name: Name) -> None:
        if self._horizon_aware:
            self.ch.remove_horizon(name)

    def force_add_working_server(self, name: Name) -> None:
        if self._horizon_aware:
            self.ch.force_add_working(name)
        else:
            self.ch.add(name)
        self._working.add(name)

    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._working)
