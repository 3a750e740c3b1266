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
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

import numpy as np

from repro.ch.base import ConsistentHash, HorizonConsistentHash, has_index_kernel
from repro.core.indexing import BackendIndexer
from repro.core.interfaces import LoadBalancer, Name
from repro.ct.base import ConnectionTracker, credit_repeat_hits as _credit_within_chunk_hits
from repro.ct.unbounded import UnboundedCT


class FullCTLoadBalancer(LoadBalancer):
    """Hash-based stateful LB that tracks every connection."""

    def __init__(
        self,
        ch: ConsistentHash,
        ct: Optional[ConnectionTracker] = None,
        active_cleanup: bool = True,
    ):
        self.ch = ch
        self.ct = ct if ct is not None else UnboundedCT()
        self.active_cleanup = active_cleanup
        self._horizon_aware = isinstance(ch, HorizonConsistentHash)
        self._working: Set[Name] = set(ch.working)
        self._ch_index_kernel = has_index_kernel(ch)
        self._indexer = BackendIndexer()
        self._ct_idx = False

    @property
    def columnar_effective(self) -> bool:
        """Same soundness gate as JET's columnar path (reorder-safe table
        plus the active-cleanup invariant -- lazy validation needs
        per-key interleaving) and the same payoff gate (the CH must
        actually have an index kernel).  Otherwise drivers run the scalar
        loop, so eviction and recency order are preserved exactly.
        """
        return bool(
            self._ch_index_kernel
            and self.ct.batch_reorder_safe
            and self.active_cleanup
        )

    # ----------------------------------------------------------- packet
    def get_destination(self, key_hash: int) -> Name:
        if self._ct_idx:
            return self._get_destination_idx(key_hash)
        destination = self.ct.get(key_hash)
        if destination is not None:
            if destination in self._working:
                return destination
            self.ct.delete(key_hash)
        destination = self.ch.lookup(key_hash)
        self.ct.put(key_hash, destination)  # track unconditionally
        return destination

    def _get_destination_idx(self, key_hash: int) -> Name:
        """Scalar full-CT against an index-mode table (values are ids)."""
        ident = self.ct.get(key_hash)
        if ident is not None:
            destination = self._indexer.names[ident]
            if destination in self._working:
                return destination
            self.ct.delete(key_hash)
        destination = self.ch.lookup(key_hash)
        self.ct.put(key_hash, self._indexer.get_id(destination))
        return destination

    # ------------------------------------------------- columnar dispatch
    def _engage_idx_mode(self) -> None:
        if not self._ct_idx:
            self.ct.remap_values(self._indexer.get_id)
            self._ct_idx = True

    def get_destinations_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        """Batched full CT, all-integer: id probe -> integer CH kernel ->
        stable-id translation -> insert *every* miss (track-all policy).
        Raises unless :attr:`columnar_effective`."""
        if not self.columnar_effective:
            return super().get_destinations_batch_idx(keys)
        keys = np.asarray(keys, dtype=np.uint64)
        self._engage_idx_mode()
        ids = self.ct.get_batch_idx(keys)
        miss = ids < 0
        if miss.any():
            miss_keys = keys[miss]
            ch_idx = self.ch.lookup_batch_idx(miss_keys)
            found = self._indexer.translate(self.ch.backend_table())[ch_idx]
            ids[miss] = found
            self.ct.put_batch_idx(miss_keys, found)
            _credit_within_chunk_hits(self.ct, miss_keys)
        return ids

    def dispatch_names(self) -> np.ndarray:
        return self._indexer.name_array()

    def dispatch_working_mask(self) -> np.ndarray:
        return self._indexer.working_mask(self._working)

    def tracked_items(self) -> dict:
        """CT contents as ``{key: destination-name}``, decoding index mode."""
        if self._ct_idx:
            names = self._indexer.names
            return {key: names[ident] for key, ident in self.ct.items()}
        return dict(self.ct.items())

    # -------------------------------------------------- backend changes
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
        if self.active_cleanup:
            self.ct.invalidate_destination(
                self._indexer.get_id(name) if self._ct_idx else name
            )

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

    # ------------------------------------------------------------ state
    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._working)

    @property
    def tracked_connections(self) -> int:
        return len(self.ct)
