"""Unbounded CT table: never evicts, and holds one store at a time.

Used by the trace evaluations (Tables 1-2), where the paper lets the CT
"grow as needed (i.e., no flows are evicted from CT)" to isolate tracking
volume from eviction effects.

*Name mode* (a fresh table): a plain dict, and the scalar entry points
over it are the executable spec.  No array exists yet.

*Index mode* (from the first ``remap_values`` / ``get_batch_idx`` /
``put_batch_idx``): the entries move once into an open-addressing
linear-probe hash -- ``uint64`` keys, ``int32`` backend ids, load kept
under 0.6 -- and the dict is dropped.  Every entry point, the scalar ones
included, then reads and writes the arrays, so there is nothing to keep
in sync and ``get_batch_idx`` is a vectorized probe (~7 ns/key against
~80 ns/key for a dict).  Three conventions carry it:

* Key 0 marks an empty slot.  Flow key 0 therefore owns one side slot
  past the end of the probed range, which every routine addresses like
  any other slot.
* Value -1 is the miss sentinel *and* the tombstone.  ``delete`` and
  ``invalidate_destination`` overwrite the value and keep the key, so
  probe runs stay intact; empty slots hold -1 too, which makes "the
  value where the key's probe run ends" the answer for present, deleted
  and absent keys alike.  A re-insert overwrites the tombstone in place.
* Growth rehashes the live entries into fresh arrays; that is also
  where tombstones are dropped.

A table with no live entry -- a fresh one, or one holding only tombstones
-- answers every probe as a miss without a search.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.ct.base import ConnectionTracker, Destination, count_distinct

#: Fibonacci multiplier for multiply-shift slot hashing.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
#: Slots with key 0 are empty (flow key 0 lives in the side slot).
_EMPTY = np.uint64(0)
_ID_MAX = np.iinfo(np.int32).max
#: :meth:`UnboundedCT._settle` walks this many pending keys or fewer in
#: Python: a vectorized round costs ~10 array calls however few keys are
#: left.  Measured on the bench's steady trace (probe + insert, both
#: tracking stacks): flat from 16 to 64, 5-25 % worse at 0 and at 256.
_WALK = 32


def _checked_ids(ids) -> np.ndarray:
    """``ids`` as int32, refusing what index mode cannot tell from -1."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() > _ID_MAX):
        raise ValueError("index-mode backend ids must lie in [0, 2**31 - 1]")
    return ids.astype(np.int32, copy=False)


class UnboundedCT(ConnectionTracker):
    """CT with no capacity limit: a dict, then open-addressing arrays."""

    # No recency/eviction state: batched gets and puts may be regrouped.
    batch_reorder_safe = True

    def __init__(self) -> None:
        super().__init__()
        #: The name-mode store; None once index mode has engaged.
        self._table: Optional[Dict[int, Destination]] = {}
        # The index-mode store: ``size`` probed slots plus the side slot.
        self._keys: Optional[np.ndarray] = None
        self._vals: Optional[np.ndarray] = None
        self._shift = np.uint64(0)
        self._live = 0  # entries with a value >= 0, key 0 included
        self._dead = 0  # tombstones written since the arrays were built

    def get(self, key: int) -> Optional[Destination]:
        self.stats.lookups += 1
        table = self._table
        destination = table.get(key) if table is not None else self.peek(key)
        if destination is not None:
            self.stats.hits += 1
        return destination

    def put(self, key: int, destination: Destination) -> None:
        table = self._table
        if table is not None:
            if key not in table:
                self.stats.inserts += 1
            table[key] = destination
        else:
            ident = _checked_ids(destination)
            self._reserve(1)
            slot = self._slot_of(key)
            if self._vals[slot] < 0:
                self.stats.inserts += 1
                self._live += 1
            self._keys[slot] = key
            self._vals[slot] = ident
        self._note_size()

    # ------------------------------------------------- integer-index mode
    # The columnar dataplane stores destinations as small ints (LB-local
    # backend ids, see repro.core.indexing) instead of names: a balancer
    # remaps the stored values once (:meth:`remap_values`), and from then
    # on the ``*_idx`` entry points move int32 arrays, -1 per miss.

    def get_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        """Tracked destination *ids* for a uint64 key array (-1 per miss),
        by one vectorized probe; engages index mode.

        Semantically ``[get(k) for k in keys]`` with ``None -> -1``, stats
        totals included (updated once per batch).
        """
        return self._probe(np.asarray(keys, dtype=np.uint64))

    def get_hits_idx(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The same probe in sparse form: ``(positions, ids)``, where
        ``positions`` (ascending) are those of the answers
        :meth:`get_batch_idx` would give as ids >= 0; the stats move
        exactly as there.  A caller that already holds an answer for
        every key (JET's CH verdict) overwrites the hits alone."""
        found = self._probe(np.asarray(keys, dtype=np.uint64))
        hit = np.flatnonzero(found >= 0)
        return hit, found.take(hit)

    def get_live_keys(self) -> np.ndarray:
        """The keys of the live entries, as uint64, in no set order."""
        if self._table is not None:
            return np.fromiter(self._table, dtype=np.uint64, count=len(self._table))
        return self._keys[np.flatnonzero(self._vals >= 0)]

    def _probe(self, keys: np.ndarray) -> np.ndarray:
        """The stored id of each key, or -1; counts the batch."""
        if self._table is not None:
            self._engage()
        stats = self.stats
        stats.lookups += len(keys)
        if not self._live:
            # Nothing to find: no probe run is worth a search.
            return np.full(len(keys), -1, dtype=np.int32)
        found = self._vals.take(self._settle(keys, self._home(keys)))
        stats.hits += int(np.count_nonzero(found >= 0))
        return found

    def put_batch_idx(self, keys: np.ndarray, ids: np.ndarray) -> int:
        """Bulk insert of int backend-ids, in array order; engages index
        mode.  Ids outside ``[0, 2**31 - 1]`` raise ``ValueError``.

        Returns the number of distinct keys in the batch: the table is
        sized by it (by connections, not by their repeated packets), and
        the columnar dispatch credits the rest of the batch as CT hits.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        ids = _checked_ids(ids)
        if self._table is not None:
            self._engage()
        distinct = count_distinct(keys)
        self._reserve(distinct)
        inserts = distinct - self._insert(keys, ids)
        self._live += inserts
        self.stats.inserts += inserts
        self._note_size()
        return distinct

    def remap_values(self, fn) -> None:
        """Re-encode every stored destination through ``fn`` (name ->
        backend id) on the way from the dict into the arrays: once per
        table, when a balancer's columnar path first engages.  Stats and
        the key set are untouched."""
        self._engage(fn)

    def invalidate_destination(self, destination: Destination) -> int:
        if self._table is not None:
            return super().invalidate_destination(destination)
        # One scan; the keys stay behind as tombstones (nothing rebuilt).
        hit = np.flatnonzero(self._vals == _checked_ids(destination))
        self._vals[hit] = -1
        self._live -= len(hit)
        self._dead += len(hit)
        self.stats.invalidations += len(hit)
        return len(hit)

    def _engage(self, fn=None) -> None:
        """Move every entry (values through ``fn``) into fresh arrays."""
        count = len(self)
        keys = np.fromiter(iter(self), dtype=np.uint64, count=count)
        values = (value for _, value in self.items())
        ids = _checked_ids(
            np.fromiter(map(fn, values) if fn else values, np.int64, count)
        )
        self._table = self._keys = self._vals = None
        self._live = 0
        self._reserve(count)
        if count:
            self._insert(keys, ids)
        self._live = count

    def _reserve(self, incoming: int) -> None:
        """Room for ``incoming`` more keys under 0.6 load, else rehash the
        live entries (tombstones dropped) into the smallest arrays that
        hold them under 0.6, so an insert-only run's size depends on its
        entry count alone, not on the batching.  Where tombstones filled
        the table the new one starts under 0.4: the next rehash is then a
        fixed fraction of the table away."""
        old_keys, old_vals = self._keys, self._vals
        entries = self._live + incoming
        if old_keys is not None and 5 * (entries + self._dead) <= 3 * (len(old_keys) - 1):
            return
        size = 64
        while 5 * entries > 3 * size:
            size <<= 1
        if self._dead and 5 * entries > 2 * size:
            size <<= 1
        self._keys = np.zeros(size + 1, dtype=np.uint64)
        self._vals = np.full(size + 1, -1, dtype=np.int32)
        self._shift = np.uint64(64 - (size.bit_length() - 1))
        self._dead = 0
        if old_keys is not None:
            live = np.flatnonzero(old_vals >= 0)
            self._insert(old_keys[live], old_vals[live])

    def _home(self, keys: np.ndarray) -> np.ndarray:
        """Multiply-shift home slot per key (the product's top bits, as
        indices < 2**62: the same bits signed or not); key 0 -> the side
        slot."""
        with np.errstate(over="ignore"):
            slots = keys * _GAMMA
        slots >>= self._shift
        slots = slots.view(np.int64)
        if np.count_nonzero(keys) < len(keys):
            slots[keys == _EMPTY] = len(self._keys) - 1
        return slots

    def _settle(self, keys: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Walk ``slots`` (in place) to where each key's probe run ends:
        the slot holding the key, live or tombstoned, else an empty one."""
        table_keys = self._keys
        wrap = np.intp(len(table_keys) - 2)
        resident = table_keys.take(slots)
        pending = np.flatnonzero((resident != keys) & (resident != _EMPTY))
        held, at = keys.take(pending), slots.take(pending)
        while pending.size > _WALK:
            at += 1
            at &= wrap
            slots[pending] = at
            resident = table_keys.take(at)
            # (an index array: selecting by boolean mask costs ~4x this)
            go = np.flatnonzero((resident != held) & (resident != _EMPTY))
            pending, held, at = pending.take(go), held.take(go), at.take(go)
        if pending.size:
            # The stragglers sit on the longest runs: rounds that follow
            # them would scale with the run length, the walk does not.
            walk = self._walk
            slots[pending] = [
                walk(key, slot) for key, slot in zip(held.tolist(), at.tolist())
            ]
        return slots

    def _walk(self, key: int, slot: int) -> int:
        """:meth:`_settle` for one key from ``slot`` on, in Python ints."""
        resident_at = self._keys.item
        wrap = len(self._keys) - 2
        while True:
            resident = resident_at(slot)
            if resident == key or resident == 0:
                return slot
            slot = (slot + 1) & wrap

    def _slot_of(self, key: int) -> int:
        """Where ``key``'s probe run ends, from its home slot."""
        key = int(key)
        if key == 0:
            return len(self._keys) - 1
        home = ((key * int(_GAMMA)) & 0xFFFFFFFFFFFFFFFF) >> int(self._shift)
        return self._walk(key, home)

    def _insert(self, keys: np.ndarray, vals: np.ndarray) -> int:
        """Vectorized linear-probe insert (capacity ensured); returns how
        many distinct keys of the batch were live already -- every other
        distinct key fills an empty slot or revives a tombstone.

        Within-batch duplicate keys resolve to the last occurrence, like
        the dict: they settle on one slot and numpy fancy assignment
        applies them in array order.
        """
        table_keys, table_vals = self._keys, self._vals
        slots = self._settle(keys, self._home(keys))
        # A live key sits in one slot, which all of its repeats reached.
        overwritten = count_distinct(slots[table_vals.take(slots) >= 0])
        while True:
            # Distinct keys racing for one empty slot: the last written
            # stays, key and value alike, the others find it taken and
            # probe on.
            table_keys[slots] = keys
            table_vals[slots] = vals
            lost = np.flatnonzero(table_keys.take(slots) != keys)
            if not lost.size:
                return overwritten
            keys, vals = keys.take(lost), vals.take(lost)
            slots = self._settle(keys, slots.take(lost))

    # ----------------------------------------------------------- plumbing
    def delete(self, key: int) -> bool:
        if self._table is not None:
            return self._table.pop(key, None) is not None
        slot = self._slot_of(key)
        if self._vals[slot] < 0:
            return False
        self._vals[slot] = -1
        self._live -= 1
        self._dead += 1
        return True

    def peek(self, key: int) -> Optional[Destination]:
        if self._table is not None:
            return self._table.get(key)
        ident = int(self._vals[self._slot_of(key)])
        return ident if ident >= 0 else None

    @property
    def nbytes(self) -> int:
        if self._table is not None:
            return super().nbytes
        return self._keys.nbytes + self._vals.nbytes

    def __len__(self) -> int:
        return len(self._table) if self._table is not None else self._live

    def __iter__(self) -> Iterator[int]:
        if self._table is not None:
            return iter(list(self._table))
        return iter(self.get_live_keys().tolist())

    def items(self) -> Iterator[Tuple[int, Destination]]:
        if self._table is not None:
            return iter(list(self._table.items()))
        live = np.flatnonzero(self._vals >= 0)
        return zip(self._keys[live].tolist(), self._vals[live].tolist())
