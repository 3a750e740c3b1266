"""Ring consistent hashing with virtual nodes -- Section 3.3 / Algorithm 3.

Servers are placed on a 2^64-point ring at positions derived from their name
(``virtual_nodes`` positions per server, 100-300 in the paper); a key goes to
the first server position clockwise from ``hash(k)``.

JET integration follows POPULATERING (Algorithm 3): the ring is built from
*both* working and horizon positions.  A working position carries
``(server, track=False)``.  A horizon position carries
``(successor-working-server, track=True)`` -- keys landing on it are still
dispatched within ``W`` (to the server they map to *today*), but they are
unsafe because a horizon addition would capture them.

Algorithm 3's notes offer two ways to maintain that ring: repopulate it
per backend change, or "update only the successors/predecessors that are
affected".  Here both keep the *same* arrays: the full :meth:`_rebuild`
(O(R log R), R = (|W|+|H|)·V) runs lazily for construction and around an
empty working set, where horizon vnodes have no successor and are absent;
every other event edits the affected arcs in place, O(V log R + affected)
(the four mutators at the bottom; their invariants are stated there).

Three lookup data structures are kept, the last two derived from the
merged ring and cached until the next backend change:

- ``_positions``/``_entries`` -- Python lists used by the scalar path
  (``bisect_right`` over a list of ints is the fastest scalar search);
- a numpy kernel (sorted uint64 positions, an int32 entry->server index
  into a compact object array of names, and a bool track-flag array) that
  turns ``lookup_with_safety_batch_idx`` into one ``searchsorted`` plus two
  fancy-indexed gathers -- the same table-gather shape as Maglev's packet
  dataplane (Eisenbud et al., NSDI'16);
- a cached *union* ring (every vnode under its own owner) so the scalar
  ``lookup_union`` is one binary search instead of an O(R log R) rebuild
  per call.  The union only changes when a server identity enters or
  leaves the system -- moving between W and H preserves it.

Capacities (``weights={name: c}``, absent names 1.0) scale a server's
vnode count to ``max(1, round(virtual_nodes * c))``, through the one
``_placement`` hook every registration goes through.

Vnode positions and server seeds are deterministic in the name, so they
are memoized process-wide (:func:`_server_placement`): churning a server
out and back in, or rebuilding after every event, never recomputes the
``virtual_nodes`` hash mixes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.ch.base import BackendError, HorizonConsistentHash, Name, capacity_weights
from repro.hashing.keyed import server_seed
from repro.hashing.mix import fmix64, mix2

DEFAULT_VIRTUAL_NODES = 100


#: Memoized server seeds -- every rebuild needs each server's tiebreak
#: seed, and seeds are pure functions of the name.
_cached_seed = lru_cache(maxsize=65536)(server_seed)


@lru_cache(maxsize=65536)
def _server_placement(name: Name, virtual_nodes: int) -> Tuple[int, Tuple[int, ...]]:
    """``(seed, vnode positions)`` of a server -- deterministic in the name,
    memoized so rebuilds and churned re-registrations never re-mix."""
    seed = _cached_seed(name)
    return seed, tuple(mix2(seed, fmix64(replica)) for replica in range(virtual_nodes))


def _vnode_positions(name: Name, virtual_nodes: int) -> Sequence[int]:
    """Ring positions of a server's virtual nodes (deterministic in name)."""
    return _server_placement(name, virtual_nodes)[1]


class RingHash(HorizonConsistentHash):
    """Ring hashing over ``W`` with the horizon folded in per Algorithm 3."""

    takes_weights = True

    def __init__(
        self,
        working: Iterable[Name] = (),
        horizon: Iterable[Name] = (),
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        weights: Optional[Mapping[Name, float]] = None,
    ):
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.virtual_nodes = virtual_nodes
        self.weights = capacity_weights(weights)
        self._working: Dict[Name, Sequence[int]] = {}
        self._horizon: Dict[Name, Sequence[int]] = {}
        # Merged ring: parallel arrays sorted by position.
        self._positions: List[int] = []
        self._entries: List[Tuple[Name, bool]] = []
        # The working vnodes alone, sorted, for successor queries.
        self._w_pos: List[int] = []
        self._w_srv: List[Name] = []
        self._dirty = True
        # Numpy kernel over the merged ring (see _ensure_kernel).
        self._kernel_dirty = True
        self._np_positions = np.empty(0, dtype=np.uint64)
        self._np_entry_server = np.empty(0, dtype=np.int32)
        self._np_track = np.empty(0, dtype=bool)
        self._np_names = np.empty(0, dtype=object)
        self._bucket_shift = np.uint64(63)
        self._bucket_lo = np.zeros(3, dtype=np.intp)
        # Cached union ring (changes only when an identity joins/leaves).
        self._union_dirty = True
        self._union_positions: List[int] = []
        self._union_names: List[Name] = []
        for name in working:
            self._register(self._working, name)
        for name in horizon:
            self._register(self._horizon, name)

    # ------------------------------------------------------------- sets
    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._working)

    @property
    def horizon(self) -> FrozenSet[Name]:
        return frozenset(self._horizon)

    def _placement(self, name: Name) -> Sequence[int]:
        """Vnode positions of a newly registered server, as many as its
        capacity asks for."""
        if self.weights is None:
            return _vnode_positions(name, self.virtual_nodes)
        capacity = self.weights.get(name, 1.0)
        return _vnode_positions(name, max(1, round(self.virtual_nodes * capacity)))

    def _register(self, side: Dict[Name, Sequence[int]], name: Name) -> None:
        if name in self._working or name in self._horizon:
            raise BackendError(f"server {name!r} already present")
        side[name] = self._placement(name)
        self._union_dirty = True

    # --------------------------------------------------------- populate
    def _rebuild(self) -> None:
        """POPULATERING of Algorithm 3, merged into sorted parallel arrays."""
        ring_w: List[Tuple[int, int, Name]] = []  # (pos, tiebreak, server)
        for name, positions in self._working.items():
            seed = _cached_seed(name)
            for pos in positions:
                ring_w.append((pos, seed, name))
        ring_w.sort()
        self._w_pos = [item[0] for item in ring_w]
        self._w_srv = [item[2] for item in ring_w]

        merged: List[Tuple[int, int, Name, bool]] = [
            (pos, tiebreak, name, False) for pos, tiebreak, name in ring_w
        ]
        if ring_w:
            # Map each horizon vnode to its working successor's server.
            for name, positions in self._horizon.items():
                seed = _cached_seed(name)
                for pos in positions:
                    merged.append((pos, seed, self._successor(pos), True))
        merged.sort()
        self._positions = [item[0] for item in merged]
        self._entries = [(item[2], item[3]) for item in merged]
        self._dirty = False
        self._kernel_dirty = True

    def _ensure_kernel(self) -> None:
        """Materialize the merged ring into the numpy lookup kernel."""
        if self._dirty:
            self._rebuild()
        if not self._kernel_dirty:
            return
        n = len(self._positions)
        self._np_positions = np.array(self._positions, dtype=np.uint64)
        index_of: Dict[Name, int] = {}
        names: List[Name] = []
        entry_server = np.empty(n, dtype=np.int32)
        track = np.empty(n, dtype=bool)
        for i, (name, tracked) in enumerate(self._entries):
            j = index_of.get(name)
            if j is None:
                j = index_of[name] = len(names)
                names.append(name)
            entry_server[i] = j
            track[i] = tracked
        name_array = np.empty(len(names), dtype=object)
        name_array[:] = names
        self._np_entry_server = entry_server
        self._np_track = track
        self._np_names = name_array
        # Quantized-prefix successor index: split the 2^64 ring into M
        # uniform buckets (M = power of two >= 2 * entries) and record,
        # per bucket start, the bisect_right insertion point.  A batch
        # lookup then replaces the branchy binary search with one shift,
        # one gather, and a short advance loop (uniform hash positions
        # put ~0.5 entries per bucket, so the loop converges in a step
        # or two).
        bits = min(26, max(1, (2 * max(n, 1) - 1).bit_length()))
        shift = np.uint64(64 - bits)
        starts = np.arange(1 << bits, dtype=np.uint64) << shift
        lo = np.searchsorted(self._np_positions, starts, side="left").astype(np.intp)
        self._bucket_shift = shift
        self._bucket_lo = np.concatenate([lo, np.array([n], dtype=np.intp)])
        self._kernel_dirty = False

    def _ensure_union(self) -> None:
        """Materialize the union ring (every vnode under its own owner)."""
        if not self._union_dirty:
            return
        union: List[Tuple[int, int, Name]] = []
        for side in (self._working, self._horizon):
            for name, positions in side.items():
                seed = _cached_seed(name)
                for pos in positions:
                    union.append((pos, seed, name))
        union.sort()
        self._union_positions = [item[0] for item in union]
        self._union_names = [item[2] for item in union]
        self._union_dirty = False

    # ----------------------------------------------------------- lookup
    def lookup_with_safety(self, key_hash: int) -> Tuple[Name, bool]:
        if self._dirty:
            self._rebuild()
        if not self._working:
            raise BackendError("lookup on empty working set")
        index = bisect_right(self._positions, key_hash) % len(self._positions)
        return self._entries[index]

    def lookup_with_safety_batch_idx(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized successor search via the quantized-prefix index: each
        key's high bits select a ring bucket whose ``bisect_right``
        insertion point was precomputed at kernel build; a short
        active-mask loop advances past the few in-bucket positions <= key,
        then two fancy-indexed gathers read the entry's owner -- as its
        index into :meth:`backend_table` (the kernel's compact name
        array) -- and track flag.  The advance count *is* ``bisect_right``
        (number of positions <= key), so the result is bit-identical to
        the scalar walk -- the differential suites hold it to that key
        for key."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int32), np.zeros(0, dtype=bool)
        index = self._search_batch(keys)
        return self._np_entry_server[index], self._np_track[index]

    def backend_table(self) -> np.ndarray:
        """The kernel's compact owner-name array (fresh object on rebuild)."""
        if self._dirty:
            self._rebuild()
        self._ensure_kernel()
        return self._np_names

    def _search_batch(self, keys: np.ndarray) -> np.ndarray:
        """Successor entry index per key via the quantized-prefix index."""
        if self._dirty:
            self._rebuild()
        if not self._working:
            raise BackendError("lookup on empty working set")
        self._ensure_kernel()
        positions = self._np_positions
        bucket = (keys >> self._bucket_shift).astype(np.intp)
        index = self._bucket_lo[bucket]
        hi = self._bucket_lo[bucket + 1]
        active = np.flatnonzero(index < hi)
        while active.size:
            at = index[active]
            advanced = positions[at] <= keys[active]
            at = at + advanced  # bool adds as 0/1
            index[active] = at
            active = active[advanced & (at < hi[active])]
        index[index == len(positions)] = 0  # clockwise wrap (mod n)
        return index

    def iter_successors(self, key_hash: int):
        """Yield distinct *working* servers in clockwise ring order from
        the key's position.

        The deterministic fallback sequence that bounded-load dispatching
        (Mirrokni et al.; see :mod:`repro.core.load_aware`) walks when
        the primary choice is saturated.
        """
        if self._dirty:
            self._rebuild()
        if not self._working:
            raise BackendError("lookup on empty working set")
        n = len(self._positions)
        start = bisect_right(self._positions, key_hash) % n
        seen = set()
        for step in range(n):
            server, _ = self._entries[(start + step) % n]
            if server not in seen:
                seen.add(server)
                yield server

    def lookup_union(self, key_hash: int) -> Name:
        """Successor over the true union ring of ``W ∪ H`` (reference)."""
        self._ensure_union()
        if not self._union_positions:
            raise BackendError("lookup on empty server set")
        index = bisect_right(self._union_positions, key_hash) % len(
            self._union_positions
        )
        return self._union_names[index]

    # --------------------------------------------------------- mutation
    # Each event keeps POPULATERING's output in place: a working vnode at
    # ``p`` carries ``(owner, False)``; a horizon vnode carries ``(working
    # successor of p, True)``; ``_w_pos`` / ``_w_srv`` mirror the working
    # vnodes.  ``tests/test_ch_ring_incremental.py`` holds every event
    # sequence to a ring freshly built on the resulting (W, H).
    def _edit_in_place(self) -> bool:
        """True when this event can edit the merged ring; False leaves it
        to the next lookup's full rebuild (nothing built yet, or no
        working vnode for the horizon's to point at)."""
        if self._dirty or not self._w_pos:
            self._dirty = True
            return False
        self._kernel_dirty = True
        return True

    def _merged_index(self, pos: int) -> int:
        index = bisect_left(self._positions, pos)
        if index >= len(self._positions) or self._positions[index] != pos:
            raise BackendError("ring state corrupt: vnode position missing")
        return index

    def _retarget_arc(self, pos: int, server: Name) -> None:
        """Point the horizon vnodes between ``pos``'s working predecessor
        and ``pos`` -- those whose working successor this event changed --
        at ``server``."""
        after = self._w_pos[bisect_left(self._w_pos, pos) - 1]
        lo = bisect_right(self._positions, after)
        hi = bisect_left(self._positions, pos)
        arc = range(lo, hi) if after < pos else [*range(lo, len(self._positions)), *range(hi)]
        for t in arc:
            if self._entries[t][1]:
                self._entries[t] = (server, True)

    def _successor(self, pos: int) -> Name:
        return self._w_srv[bisect_right(self._w_pos, pos) % len(self._w_pos)]

    def add_working(self, name: Name) -> None:
        positions = self._horizon.pop(name, None)
        if positions is None:
            raise BackendError(f"server {name!r} is not in the horizon")
        self._working[name] = positions
        if not self._edit_in_place():
            return
        for pos in sorted(positions):
            # Horizon vnodes up to this one now have it as successor.
            self._retarget_arc(pos, name)
            self._entries[self._merged_index(pos)] = (name, False)
            insert_at = bisect_left(self._w_pos, pos)
            self._w_pos.insert(insert_at, pos)
            self._w_srv.insert(insert_at, name)

    def remove_working(self, name: Name) -> None:
        positions = self._working.pop(name, None)
        if positions is None:
            raise BackendError(f"server {name!r} is not working")
        self._horizon[name] = positions
        if not self._dirty:
            for pos in positions:
                index = bisect_left(self._w_pos, pos)
                del self._w_pos[index]
                del self._w_srv[index]
        if not self._edit_in_place():
            return
        for pos in sorted(positions):
            successor = self._successor(pos)
            self._entries[self._merged_index(pos)] = (successor, True)
            self._retarget_arc(pos, successor)

    def add_horizon(self, name: Name) -> None:
        self._register(self._horizon, name)
        if not self._edit_in_place():
            return
        for pos in self._horizon[name]:
            index = bisect_left(self._positions, pos)
            self._positions.insert(index, pos)
            self._entries.insert(index, (self._successor(pos), True))

    def remove_horizon(self, name: Name) -> None:
        positions = self._horizon.pop(name, None)
        if positions is None:
            raise BackendError(f"server {name!r} is not in the horizon")
        self._union_dirty = True
        if not self._edit_in_place():
            return
        for pos in positions:
            index = self._merged_index(pos)
            del self._positions[index]
            del self._entries[index]
