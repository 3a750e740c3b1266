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
but not its order, which it reads from the CT's regime before each chunk
(:attr:`~repro.ct.base.CTStats.miss_heavy`), not from the class: while
most probes so far missed -- JET's table, by Theorem 4.2, any table
still filling, and a table never probed -- the CH answers the whole
chunk in one kernel call and the CT is asked for its hits alone;
otherwise the CT is probed first and the CH asked for the misses.  The
CH has no side effects, which makes the two orders agree exactly.  Line
6 tracks only the keys the policy selects (JET: the unsafe), so until a
backend change no other key can hit, and the CH-first order probes the
selected keys alone and counts the rest as misses.  After a change the
first CH-first chunk re-checks the CT: one kernel call over its keys
marks the answers of those the CH now calls safe, and until the next
change a key is probed if it is selected or its answer is marked.

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
    track?)`` and, for the columnar tier, ``_decide_batch_idx(keys) ->
    (CH table positions, mask of the keys to track or None for all)``,
    the same policy; the columnar order is the CT's regime, not the
    subclass's."""

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
        #: ``_state()`` as of the last moment every key in the CT was one
        #: the tracking policy selects or one whose CH answer is marked
        #: (see :meth:`_fresh`).
        self._stamp: Optional[tuple] = None
        #: Per backend id, whether it is the CH answer of a key the CT
        #: held and the CH called safe at the last :meth:`_recheck`; None
        #: where no such key was found.
        self._marked: Optional[np.ndarray] = None

    @property
    def columnar_effective(self) -> bool:
        """The columnar path regroups CT operations (all gets, then all
        puts), which is only sound when the table has no recency/eviction
        state (``batch_reorder_safe``) and when active cleanup keeps the
        stale-destination invariant (lazy validation needs per-key
        interleaving).  SYN-gated placement needs a per-packet flag no
        batch carries.  Otherwise drivers run the scalar loop, so no
        configuration is ever differently ordered than scalar.
        """
        return bool(
            self.ct.batch_reorder_safe
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
            fresh = self._fresh()
            value = self._indexer.get_id(destination) if self._ct_idx else destination
            self.ct.put(key_hash, value)
            if fresh:
                self._stamp = self._state()
        return destination

    # ------------------------------------------------- columnar dispatch
    def get_destinations_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        """Batched Algorithm 1, all-integer: CT id probe, integer CH
        kernel, stable backend ids, batch insert of the keys to track.

        The order is the CT's regime before the chunk.  While most probes
        so far missed, the CH answers every key (lines 4-5 as one kernel
        call) and the CT its hits alone, which overwrite the CH answer and
        are not tracked again.  With a track mask, the CT is asked about
        the masked keys and those whose CH answer is marked (:meth:`_fresh`,
        else :meth:`_recheck`), the others count as lookups that missed,
        and only masked misses are tracked: a packet JET calls safe then
        costs the kernel call only.  Otherwise the CT answers first and
        the CH its misses.  The CH has no side effects, so both orders
        give the same ids, CT and stats.

        No Python string is materialized anywhere on this path; names
        exist only behind :meth:`dispatch_names`.  Raises unless
        :attr:`columnar_effective` -- it must not fall through to the
        CT-less dispatch of the parent class.
        """
        if not self.columnar_effective:
            return LoadBalancer.get_destinations_batch_idx(self, keys)
        keys = self._columnar_keys(keys)
        fresh = self._fresh()
        if self.ct.stats.miss_heavy:
            ch_idx, track = self._decide_batch_idx(keys)
            ids = found = self._indexer.ids_at(self.ch.backend_table(), ch_idx)
            probed = None
            if track is not None:
                if not fresh:
                    self._recheck()
                    fresh = True
                # No other key can be in the CT: probe these alone, and
                # track the misses the mask selects.
                marked = self._marked
                probe = track if marked is None else track | marked.take(found)
                probed = np.flatnonzero(probe)
                keys, found, track = keys.take(probed), found.take(probed), track.take(probed)
            hits, held = self.ct.get_hits_idx(keys)
            if probed is None:
                ids[hits] = held
            else:
                ids[probed.take(hits)] = held
                self.ct.stats.lookups += len(ids) - len(keys)
            if track is None:
                track = np.ones(len(keys), dtype=bool)
            track[hits] = False
        else:
            ids = self.ct.get_batch_idx(keys)
            miss = np.flatnonzero(ids < 0)
            if not miss.size:
                return ids
            keys = keys.take(miss)
            ch_idx, track = self._decide_batch_idx(keys)
            found = self._indexer.ids_at(self.ch.backend_table(), ch_idx)
            ids[miss] = found
        if track is not None:
            track = np.flatnonzero(track)
            keys, found = keys.take(track), found.take(track)
        self._track_batch_idx(keys, found)
        if fresh:
            self._stamp = self._state()
        return ids

    def _state(self) -> tuple:
        """What the CT's key set can have changed by since a stamp:
        backend changes, and inserts into this CT object."""
        ct = self.ct
        return self._changes, ct, ct.stats.inserts

    def _fresh(self) -> bool:
        """Whether every key in the CT is one the tracking policy
        selects (for JET: one the CH calls unsafe) or one whose CH answer
        is marked, so no other key can hit.  True while the CT is empty
        (which stamps the state and clears the marks) and while the state
        is the stamp, which the balancer's own line-6 inserts and
        :meth:`_recheck` renew.  A backend change (a tracked key may turn
        safe), an insert it did not make (a pool's sync) or a swapped CT
        voids it until the CT is empty or re-checked."""
        state = self._state()
        if state != self._stamp:
            if len(self.ct):
                return False
            self._stamp, self._marked = state, None
        return True

    def _recheck(self) -> None:
        """Make :meth:`_fresh` hold again over a non-empty CT: ask the CH
        about every key it holds (one kernel call) and mark the answers
        of those it calls safe.  Until the next change each such key
        keeps its answer, and each other one its track bit."""
        keys = self.ct.get_live_keys()
        ch_idx, track = self._decide_batch_idx(keys)
        ids = self._indexer.ids_at(self.ch.backend_table(), ch_idx)
        marked = np.zeros(len(self._indexer), dtype=bool)
        marked[ids[~track]] = True
        self._marked = marked if marked.any() else None
        self._stamp = self._state()

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

    def _decide_batch_idx(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.ch.lookup_with_safety_batch_idx(keys)

    @property
    def horizon(self) -> FrozenSet[Name]:
        return self.ch.horizon
