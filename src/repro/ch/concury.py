"""Concury-style consistent hash: an Othello perfect mapping over flowsets.

Concury (arXiv 1908.01889) removes per-connection dataplane state by the
opposite move to JET: instead of tracking the connections a backend change
would break, it *freezes the mapping itself*.  Packets hash into one of
``S`` fixed **flowsets**; an :class:`~repro.hashing.othello.Othello`
structure stores ``flowset -> backend`` so the per-packet dataplane is

    s = splitmix64(key ^ salt) & (S-1)        # flowset id
    backend = A[h_a(s)] ^ B[h_b(s)]           # Othello probe

-- O(1), branch-free, and sized by ``S`` alone: dataplane memory is
independent of how many connections exist.  All mutation happens in the
control plane: a membership change recomputes the flowset assignment with
an *inner* consistent hash (so new-flow placement stays CH-driven and
churn behaviour is comparable to JET), patches a clone of the Othello map
with incremental per-flowset updates, and flips the clone in atomically.

The trade-off this family exists to measure (Cohen et al., arXiv
2010.13385): connection consistency only holds at *flowset* granularity.
When a backend change moves a flowset, every live connection in it breaks
-- there is no CT to pin the old ones.  The ``unsafe`` bit of
:meth:`lookup_with_safety` reports exactly that horizon-instability at
flowset granularity, so JET composed over this family tracks per-flowset
rather than per-connection state.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.ch.base import BackendError, HorizonConsistentHash, Name
from repro.ch.anchor import AnchorHash
from repro.ch.hrw import HRWHash
from repro.ch.jump import JumpHash
from repro.ch.modulo import ModuloHash
from repro.ch.ring import RingHash
from repro.ch.table_hrw import TableHRWHash
from repro.hashing.mix import MASK64, splitmix64
from repro.hashing.othello import Othello
from repro.hashing.vector import v_splitmix64

__all__ = ["ConcuryHash", "INNER_FAMILIES"]

#: Inner CH families the control plane may drive flowset placement with.
#: Maglev is excluded (no horizon, so no safety answer to delegate).
INNER_FAMILIES = {
    "hrw": HRWHash,
    "ring": RingHash,
    "table": TableHRWHash,
    "anchor": AnchorHash,
    "jump": JumpHash,
    "modulo": ModuloHash,
}

#: Flowsets per (working + horizon) server when ``flowsets`` is left to
#: default.  Concury sizes S for load-balance granularity, not per
#: connection; 32 keeps the max/min backend load spread tight while the
#: Othello arrays stay a few KiB.
_FLOWSETS_PER_SERVER = 32
_MIN_FLOWSETS = 1024

_SALT_CONST = 0xC0C0_12D1_5EED_0001

#: Size of the backend slot space: Othello stores a slot id in 16 bits.
_MAX_SLOTS = 1 << 16


def _pow2_at_least(n: int) -> int:
    size = 1
    while size < n:
        size <<= 1
    return size


class ConcuryHash(HorizonConsistentHash):
    """Flowset-granular CH with an O(1) Othello dataplane.

    ``inner`` names the control-plane CH family that decides where each
    flowset lives (and answers horizon safety); extra kwargs reach its
    constructor.  ``flowsets`` must be a power of two and is fixed for
    the lifetime of the instance -- Concury's key universe never changes,
    only the stored values do.
    """

    def __init__(
        self,
        working: Sequence[Name] = (),
        horizon: Sequence[Name] = (),
        inner: str = "table",
        flowsets: int = None,
        seed: int = 0,
        **inner_kwargs,
    ):
        cls = INNER_FAMILIES.get(inner)
        if cls is None:
            raise BackendError(
                f"unknown Concury inner family {inner!r}; choose from "
                f"{sorted(INNER_FAMILIES)}"
            )
        self.inner_family = inner
        self._inner = cls(working=working, horizon=horizon, **inner_kwargs)
        n_servers = len(self._inner.working) + len(self._inner.horizon)
        if flowsets is None:
            flowsets = _pow2_at_least(
                max(_MIN_FLOWSETS, _FLOWSETS_PER_SERVER * max(1, n_servers))
            )
        if flowsets < 1 or flowsets & (flowsets - 1):
            raise BackendError("flowsets must be a power of two")
        self.flowsets = flowsets
        self.seed = seed
        # Packet -> flowset salt, and per-flowset pseudo-keys for the
        # inner CH (splitmix64 is a bijection, so they are distinct).
        self._salt = splitmix64(seed ^ _SALT_CONST)
        self._salt64 = np.uint64(self._salt)
        self._smask = np.uint64(flowsets - 1)
        self._fs_keys = v_splitmix64(
            np.arange(flowsets, dtype=np.uint64) ^ np.uint64(self._salt)
        )
        # Append-only backend slot space: Othello values index into it.
        # Retired names keep their slot (no lookup resolves there), so
        # patched clones never renumber surviving flowsets.
        self._slots: List[Name] = []
        self._slot_index: Dict[Name, int] = {}
        for name in list(working) + list(horizon):
            self._ensure_slot(name)
        self._map: Othello = None
        self._fs_vals: np.ndarray = None
        self._unsafe_fs = np.zeros(flowsets, dtype=bool)
        self._slots_table = None
        self._trans_table = None  # inner backend_table self._trans was built for
        self._empty = not len(self._inner)
        # Control-plane update-cost accounting for the frontier.
        self.rebuilds = 0
        self.patches = 0
        self.last_refresh_changed = 0
        self.last_refresh_touched = 0
        self.total_changed = 0
        self.total_touched = 0
        self._refresh()

    # ------------------------------------------------------------- sets
    @property
    def working(self) -> FrozenSet[Name]:
        return self._inner.working

    @property
    def horizon(self) -> FrozenSet[Name]:
        return self._inner.horizon

    # ------------------------------------------------------ control plane
    def _check_slot_room(self, name: Name) -> None:
        """Refuse a name the append-only slot space has no id left for."""
        if name not in self._slot_index and len(self._slots) >= _MAX_SLOTS:
            raise BackendError(
                f"Concury slot space is full: {_MAX_SLOTS} distinct server "
                f"names were admitted (slot ids are 16-bit and never reused); "
                f"cannot admit {name!r}"
            )

    def _ensure_slot(self, name: Name) -> None:
        self._check_slot_room(name)
        if name not in self._slot_index:
            self._slot_index[name] = len(self._slots)
            self._slots.append(name)

    def _admit(self, name: Name, inner_add) -> None:
        """One admission: the slot-space check comes *before* the inner CH
        changes, so a refused call leaves every lookup as it was."""
        self._check_slot_room(name)
        inner_add(name)
        self._ensure_slot(name)
        self._refresh()

    def _flowset_values(self) -> Tuple[np.ndarray, np.ndarray]:
        """(slot id, unsafe) per flowset, from the inner CH."""
        idx, unsafe = self._inner.lookup_with_safety_batch_idx(self._fs_keys)
        inner_table = self._inner.backend_table()
        if inner_table is not self._trans_table:
            # Inner table positions renumber under churn; translate them
            # into the stable slot space once per published table (its
            # identity changes iff the backend did).  ``None`` entries
            # (retired inner slots) are unreachable by contract.
            self._trans = np.fromiter(
                (self._slot_index.get(name, 0) for name in inner_table.tolist()),
                dtype=np.int64,
                count=len(inner_table),
            )
            self._trans_table = inner_table
        return self._trans[idx], unsafe

    def _refresh(self) -> None:
        """Recompute flowset placement and publish a new map version.

        The new Othello version is patched *aside* (clone + incremental
        updates) and flipped in with one reference assignment, so a
        concurrent dataplane reader only ever sees a consistent map.
        Full rebuild happens on first use and when more than half the
        flowsets moved -- at that point per-flowset patching costs more
        than one bulk construction.
        """
        self._slots_table = None
        self._empty = not len(self._inner)
        if self._empty:
            return
        new_vals, unsafe = self._flowset_values()
        self._unsafe_fs = np.asarray(unsafe, dtype=bool)
        old_vals = self._fs_vals
        if old_vals is None:
            changed = None
        else:
            changed = np.nonzero(old_vals != new_vals)[0]
            if not len(changed):
                return
        self.last_refresh_touched = 0
        if changed is None or len(changed) > self.flowsets // 2:
            self._map = Othello(
                range(self.flowsets), new_vals.tolist(), seed=self.seed
            )
            self.rebuilds += 1
            self.last_refresh_changed = int(
                self.flowsets if changed is None else len(changed)
            )
        else:
            patched = self._map.clone()
            touched = 0
            for s in changed.tolist():
                touched += patched.update(s, int(new_vals[s]))
            self._map = patched
            self.patches += 1
            self.last_refresh_changed = len(changed)
            self.last_refresh_touched = touched
            self.total_touched += touched
        self.total_changed += self.last_refresh_changed
        self._fs_vals = new_vals

    # ----------------------------------------------------------- lookup
    def flowset_of(self, key_hash: int) -> int:
        """The flowset a pre-hashed key belongs to (dataplane step 1)."""
        return splitmix64((key_hash ^ self._salt) & MASK64) & (self.flowsets - 1)

    def lookup_with_safety(self, key_hash: int) -> Tuple[Name, bool]:
        if self._empty:
            raise BackendError("lookup on empty working set")
        s = self.flowset_of(key_hash)
        return self._slots[self._map.lookup(s)], bool(self._unsafe_fs[s])

    def lookup_with_safety_batch_idx(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The branch-free columnar dataplane: splitmix64 + mask to the
        flowset, two Othello gathers + XOR to the slot, one gather for
        the safety bit.  No per-connection state anywhere."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int32), np.zeros(0, dtype=bool)
        if self._empty:
            raise BackendError("lookup on empty working set")
        s = v_splitmix64(keys ^ self._salt64) & self._smask
        slots = self._map.lookup_batch(s)
        fs = s.astype(np.int64)
        return slots.astype(np.int32), self._unsafe_fs[fs]

    def backend_table(self) -> np.ndarray:
        """The slot space itself: Othello values index straight into it."""
        if self._slots_table is None:
            table = np.empty(len(self._slots), dtype=object)
            table[:] = self._slots
            self._slots_table = table
        return self._slots_table

    def lookup_union(self, key_hash: int) -> Name:
        """``CH(W ∪ H)`` at flowset granularity, via the inner CH."""
        return self._inner.lookup_union(
            int(self._fs_keys[self.flowset_of(key_hash)])
        )

    # --------------------------------------------------------- mutation
    def add_working(self, name: Name) -> None:
        self._admit(name, self._inner.add_working)

    def remove_working(self, name: Name) -> None:
        self._inner.remove_working(name)
        self._refresh()

    def add_horizon(self, name: Name) -> None:
        self._admit(name, self._inner.add_horizon)

    def remove_horizon(self, name: Name) -> None:
        self._inner.remove_horizon(name)
        self._refresh()

    def force_add_working(self, name: Name) -> None:
        self._admit(name, self._inner.force_add_working)

    # ------------------------------------------------------------- state
    @property
    def memory_bytes(self) -> int:
        """Dataplane footprint: Othello arrays + the per-flowset safety
        bits.  A function of ``S`` only -- never of connection count."""
        if self._map is None:
            return self._unsafe_fs.nbytes
        return self._map.memory_bytes + self._unsafe_fs.nbytes
