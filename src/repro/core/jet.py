"""JET -- Algorithm 1 of the paper, written once.

:class:`TrackingLoadBalancer` is GETDESTINATION for every balancer with
a :class:`~repro.ct.base.ConnectionTracker`: probe the CT, on a miss ask
the CH, insert the connection if the *tracking policy* (line 6) says so;
backend changes come from :class:`~repro.core.stateless.StatelessLoadBalancer`.
A subclass states only that policy:

=========================  ========================  ===================
Balancer                   CH call on a miss         Tracked
=========================  ========================  ===================
:class:`JETLoadBalancer`   ``lookup_with_safety``    the unsafe (line 6)
``FullCTLoadBalancer``     ``lookup``                every miss
``StatelessLoadBalancer``  ``lookup`` (no CT)        nothing
=========================  ========================  ===================

``JETLoadBalancer`` needs a :class:`~repro.ch.base.HorizonConsistentHash`:
``lookup_with_safety`` fuses lines 4-5 of Algorithm 1 the way each of
Algorithms 2-5 does for its hash family (HRW weight comparison, ring
track-flags, TR table, anchor-path inspection) -- so this single class
*is* JET-HRW / JET-Ring / JET-Table / JET-AnchorHash depending on the CH
plugged in (see :mod:`repro.core.factories`).

The columnar tier keeps the answers and the CT of that per-packet loop
but not its order.  A chunk of full CT probes the CT first and asks the
CH for the misses: most of its packets hit.  JET asks the CH first, for
the whole chunk in one kernel call, and then the CT for the keys its miss
filter admits: by Theorem 4.2 most of JET's packets are never tracked,
so they cost that kernel call and a filter test, not a miss's gathers
and scatters.  The CH has no side effects, which makes the two orders
agree exactly.

Removed-destination hygiene follows footnote 3: on ``remove_working_server``
the table is cleaned either actively (drop all entries pointing at the dead
server) or lazily (validate on hit); both prevent a stale CT entry from
pinning a connection to a removed backend.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

import numpy as np

from repro.ch.base import ConsistentHash
from repro.core.interfaces import LoadBalancer, Name
from repro.core.stateless import StatelessLoadBalancer
from repro.ct.base import ConnectionTracker
from repro.ct.unbounded import UnboundedCT


class TrackingLoadBalancer(StatelessLoadBalancer):
    """Algorithm 1 over a CH and a CT.  A subclass supplies the policy of
    lines 4-6 as ``_decide(key_hash, new_connection) -> (destination,
    track?)`` and, for the CT-first columnar tier, ``_decide_batch_idx(keys)
    -> (CH table positions, mask of the keys to track or None for all)``."""

    #: Subclasses placing new connections by load set this: drivers then
    #: pass ``new_connection`` (TCP SYN) with each flow's first packet.
    dispatches_new_connections = False

    def __init__(
        self,
        ch: ConsistentHash,
        ct: Optional[ConnectionTracker] = None,
        active_cleanup: bool = True,
    ):
        super().__init__(ch)
        # Like ``ch``, read at call time: tracing swaps it for a proxy.
        self.ct = ct if ct is not None else UnboundedCT()
        self.active_cleanup = active_cleanup
        # The CT stores names until the first columnar call, ids after.
        self._ct_idx = False

    @property
    def columnar_effective(self) -> bool:
        """The columnar path regroups CT operations (all gets, then all
        puts), which is only sound when the table has no recency/eviction
        state (``batch_reorder_safe``) and when active cleanup keeps the
        stale-destination invariant (lazy validation needs per-key
        interleaving) -- and it only pays off when the CH has a real
        index kernel.  SYN-gated placement needs a per-packet flag no
        batch carries.  Otherwise drivers run the scalar loop, so no
        configuration is ever slower or differently ordered than scalar.
        """
        return bool(
            self._ch_index_kernel
            and self.ct.batch_reorder_safe
            and self.active_cleanup
            and not self.dispatches_new_connections
        )

    # ------------------------------------------------------ Algorithm 1
    def get_destination(self, key_hash: int, new_connection: bool = False) -> Name:
        """GETDESTINATION (Algorithm 1 lines 1-7).  ``new_connection``
        matters only to the SYN-gated placement subclasses."""
        destination = self.ct.get(key_hash)
        if destination is not None:
            if self._ct_idx:  # index-mode tables store backend ids
                destination = self._indexer.names[destination]
            if destination in self._working:
                return destination
            # Lazy cleanup: tracked destination has been removed.
            self.ct.delete(key_hash)
        destination, track = self._decide(key_hash, new_connection)
        if track:
            value = self._indexer.get_id(destination) if self._ct_idx else destination
            self.ct.put(key_hash, value)
        return destination

    # ------------------------------------------------- columnar dispatch
    def get_destinations_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        """Batched Algorithm 1 CT first, all-integer: CT id probe
        (-1 miss) -> integer CH kernel on the misses -> stable backend
        ids -> batch-insert the tracked misses.  The order for a table
        most packets hit (full CT); :class:`JETLoadBalancer` asks the CH
        first.

        No Python string is materialized anywhere on this path; names
        exist only behind :meth:`dispatch_names`.  Raises unless
        :attr:`columnar_effective` -- it must not fall through to the
        CT-less dispatch of the parent class.
        """
        if not self.columnar_effective:
            return LoadBalancer.get_destinations_batch_idx(self, keys)
        keys = self._columnar_keys(keys)
        ids = self.ct.get_batch_idx(keys)
        miss = np.flatnonzero(ids < 0)
        if miss.size:
            miss_keys = keys[miss]
            ch_idx, tracked = self._decide_batch_idx(miss_keys)
            found = self._indexer.ids_at(self.ch.backend_table(), ch_idx)
            ids[miss] = found
            if tracked is not None:
                tracked = np.flatnonzero(tracked)
                miss_keys, found = miss_keys[tracked], found[tracked]
            self._track_batch_idx(miss_keys, found)
        return ids

    def _columnar_keys(self, keys: np.ndarray) -> np.ndarray:
        """``keys`` as uint64, with the CT storing backend ids."""
        if not self._ct_idx:
            self.ct.remap_values(self._indexer.get_id)
            self._ct_idx = True
        return np.asarray(keys, dtype=np.uint64)

    def _track_batch_idx(self, keys: np.ndarray, ids: np.ndarray) -> None:
        """Insert a chunk's CT misses to track (line 6)."""
        if keys.size:
            distinct = self.ct.put_batch_idx(keys, ids)
            # The chunk was probed before its misses went in: repeats of
            # a flow first tracked here probed as misses where the scalar
            # spec (get, then put, per packet) counts hits.  Exact, as an
            # unbounded table evicts nothing in between.
            self.ct.stats.hits += len(keys) - distinct

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
    def _retire(self, name: Name) -> None:
        super()._retire(name)
        if self.active_cleanup:
            # In index mode the CT stores ids, so invalidate the id.
            self.ct.invalidate_destination(
                self._indexer.get_id(name) if self._ct_idx else name
            )

    @property
    def tracked_connections(self) -> int:
        return len(self.ct)


class JETLoadBalancer(TrackingLoadBalancer):
    """Just Enough Tracking over a horizon-aware consistent hash: only
    *unsafe* connections enter the CT."""

    needs_horizon = True

    def _decide(self, key_hash: int, new_connection: bool) -> Tuple[Name, bool]:
        return self.ch.lookup_with_safety(key_hash)

    def get_destinations_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        """Batched Algorithm 1 in JET's order: the CH first, for every key
        (lines 4-5 as one kernel call), then the CT for the keys its miss
        filter admits.  A CT hit overwrites the CH answer and is not
        tracked again; the unsafe misses are inserted (line 6).

        Theorem 4.2 is the reason: most of JET's packets miss, so a miss
        costs one kernel call and a filter test, not the gathers and the
        scatter of a CT-first chunk.  The CH has no side effects, so the
        answer, the CT and its stats are those of the CT-first order.
        """
        if not self.columnar_effective:
            return LoadBalancer.get_destinations_batch_idx(self, keys)
        keys = self._columnar_keys(keys)
        ch_idx, unsafe = self.ch.lookup_with_safety_batch_idx(keys)
        ids = self._indexer.ids_at(self.ch.backend_table(), ch_idx)
        positions, held = self.ct.get_hits_idx(keys)
        ids[positions] = held
        unsafe[positions] = False
        track = np.flatnonzero(unsafe)
        self._track_batch_idx(keys[track], ids[track])
        return ids

    @property
    def horizon(self) -> FrozenSet[Name]:
        return self.ch.horizon
