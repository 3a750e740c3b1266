"""JET -- Algorithm 1 of the paper.

``JETLoadBalancer`` composes the two pluggable modules:

- **CH**: any :class:`~repro.ch.base.HorizonConsistentHash`.  Its
  ``lookup_with_safety`` fuses lines 4-5 of Algorithm 1 the way each of
  Algorithms 2-5 does for its hash family (HRW weight comparison, ring
  track-flags, TR table, anchor-path inspection) -- so this single class
  *is* JET-HRW / JET-Ring / JET-Table / JET-AnchorHash depending on the CH
  plugged in (see :mod:`repro.core.factories`).

- **CT**: any :class:`~repro.ct.base.ConnectionTracker`.  Only *unsafe*
  connections enter it (line 6).

Removed-destination hygiene follows footnote 3: on ``remove_working_server``
the table is cleaned either actively (drop all entries pointing at the dead
server) or lazily (validate on hit); both prevent a stale CT entry from
pinning a connection to a removed backend.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

import numpy as np

from repro.ch.base import HorizonConsistentHash, has_index_kernel
from repro.core.indexing import BackendIndexer
from repro.core.interfaces import LoadBalancer, Name
from repro.ct.base import ConnectionTracker, credit_repeat_hits as _credit_within_chunk_hits
from repro.ct.unbounded import UnboundedCT


class JETLoadBalancer(LoadBalancer):
    """Just Enough Tracking over a horizon-aware consistent hash."""

    def __init__(
        self,
        ch: HorizonConsistentHash,
        ct: Optional[ConnectionTracker] = None,
        active_cleanup: bool = True,
    ):
        self.ch = ch
        self.ct = ct if ct is not None else UnboundedCT()
        self.active_cleanup = active_cleanup
        # Mirror of ch.working with O(1) membership, for lazy CT validation.
        self._working: Set[Name] = set(ch.working)
        # Capability probe, resolved once: the columnar path only pays
        # off when the CH has a real integer-index kernel.
        self._ch_index_kernel = has_index_kernel(ch)
        # Stable backend-id space for the columnar path; the CT switches
        # to storing ids (index mode) lazily, on the first columnar call.
        self._indexer = BackendIndexer()
        self._ct_idx = False

    @property
    def columnar_effective(self) -> bool:
        """The columnar path regroups CT operations (all gets, then all
        puts), which is only sound when the table has no recency/eviction
        state (``batch_reorder_safe``) and when active cleanup keeps the
        stale-destination invariant (lazy validation needs per-key
        interleaving) -- and it only pays off when the CH has a real
        index kernel.  Otherwise drivers run the scalar loop, so no
        configuration is ever slower or differently ordered than scalar.
        """
        return bool(
            self._ch_index_kernel
            and self.ct.batch_reorder_safe
            and self.active_cleanup
        )

    # ------------------------------------------------------ Algorithm 1
    def get_destination(self, key_hash: int) -> Name:
        """GETDESTINATION (Algorithm 1 lines 1-7)."""
        if self._ct_idx:
            return self._get_destination_idx(key_hash)
        destination = self.ct.get(key_hash)
        if destination is not None:
            if destination in self._working:
                return destination
            # Lazy cleanup: tracked destination has been removed.
            self.ct.delete(key_hash)
        destination, unsafe = self.ch.lookup_with_safety(key_hash)
        if unsafe:
            self.ct.put(key_hash, destination)
        return destination

    def _get_destination_idx(self, key_hash: int) -> Name:
        """Scalar Algorithm 1 against an index-mode CT (values are ids)."""
        ident = self.ct.get(key_hash)
        if ident is not None:
            destination = self._indexer.names[ident]
            if destination in self._working:
                return destination
            self.ct.delete(key_hash)
        destination, unsafe = self.ch.lookup_with_safety(key_hash)
        if unsafe:
            self.ct.put(key_hash, self._indexer.get_id(destination))
        return destination

    # ------------------------------------------------- columnar dispatch
    def _engage_idx_mode(self) -> None:
        """Switch the CT to storing backend ids (once, on first use)."""
        if not self._ct_idx:
            self.ct.remap_values(self._indexer.get_id)
            self._ct_idx = True

    def get_destinations_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        """Batched Algorithm 1, all-integer: CT id probe (-1 miss) ->
        integer CH kernel on the misses -> translate CH table positions
        to stable backend ids -> batch-insert the unsafe misses.

        No Python string is materialized anywhere on this path; names
        exist only behind :meth:`dispatch_names`.  Raises unless
        :attr:`columnar_effective`.
        """
        if not self.columnar_effective:
            return super().get_destinations_batch_idx(keys)
        keys = np.asarray(keys, dtype=np.uint64)
        self._engage_idx_mode()
        ids = self.ct.get_batch_idx(keys)
        miss = ids < 0
        if miss.any():
            miss_keys = keys[miss]
            ch_idx, unsafe = self.ch.lookup_with_safety_batch_idx(miss_keys)
            found = self._indexer.translate(self.ch.backend_table())[ch_idx]
            ids[miss] = found
            if unsafe.any():
                unsafe_keys = miss_keys[unsafe]
                self.ct.put_batch_idx(unsafe_keys, found[unsafe])
                _credit_within_chunk_hits(self.ct, unsafe_keys)
        return ids

    def dispatch_names(self) -> np.ndarray:
        return self._indexer.name_array()

    def dispatch_working_mask(self) -> np.ndarray:
        return self._indexer.working_mask(self._working)

    def tracked_items(self) -> dict:
        """CT contents as ``{key: destination-name}``, decoding index mode.

        The differential suites compare CT state across the scalar and
        index paths through this accessor so they need not know which
        encoding the table currently holds.
        """
        if self._ct_idx:
            names = self._indexer.names
            return {key: names[ident] for key, ident in self.ct.items()}
        return dict(self.ct.items())

    # -------------------------------------------------- backend changes
    def add_working_server(self, name: Name) -> None:
        """ADDWORKINGSERVER (lines 8-10): ``name`` must be in the horizon."""
        self.ch.add_working(name)
        self._working.add(name)

    def remove_working_server(self, name: Name) -> None:
        """REMOVEWORKINGSERVER (lines 11-13): ``name`` joins the horizon."""
        self.ch.remove_working(name)
        self._working.discard(name)
        if self.active_cleanup:
            # In index mode the CT stores ids, so invalidate the id.
            self.ct.invalidate_destination(
                self._indexer.get_id(name) if self._ct_idx else name
            )

    def add_horizon_server(self, name: Name) -> None:
        """ADDHORIZONSERVER (line 14)."""
        self.ch.add_horizon(name)

    def remove_horizon_server(self, name: Name) -> None:
        """REMOVEHORIZONSERVER (line 15)."""
        self.ch.remove_horizon(name)

    def force_add_working_server(self, name: Name) -> None:
        """Unanticipated addition (violates the Section 2.3 contract; JET's
        PCC guarantee does not cover connections unsafe w.r.t. this server)."""
        self.ch.force_add_working(name)
        self._working.add(name)

    # ------------------------------------------------------------ state
    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._working)

    @property
    def horizon(self) -> FrozenSet[Name]:
        return self.ch.horizon

    @property
    def tracked_connections(self) -> int:
        return len(self.ct)
