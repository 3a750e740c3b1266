"""Jump consistent hashing (Lamping & Veach 2014).

Included as an extension: the paper's related-work section lists Jump among
the CH candidates.  Jump maps keys onto bucket *indices* ``0..n-1`` with
minimal disruption when ``n`` grows or shrinks **at the tail only** -- it
cannot remove an arbitrary server.  That restriction actually matches JET's
horizon model perfectly when the horizon is managed as a stack: the next
server to be added is always "bucket n", so a key is unsafe iff Jump would
move it into one of the next ``|H|`` indices.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.ch.base import BackendError, HorizonConsistentHash, Name
from repro.hashing.mix import MASK64

_JUMP_MULT = 2862933555777941757


def jump_bucket(key_hash: int, num_buckets: int) -> int:
    """Reference jump-consistent-hash: key -> bucket in [0, num_buckets)."""
    if num_buckets <= 0:
        raise BackendError("jump_bucket needs at least one bucket")
    key = key_hash & MASK64
    b, j = -1, 0
    while j < num_buckets:
        b = j
        key = (key * _JUMP_MULT + 1) & MASK64
        j = int((b + 1) * ((1 << 31) / ((key >> 33) + 1)))
    return b


def v_jump_bucket(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """Vectorized :func:`jump_bucket` over a uint64 key array.

    The per-key jump chain has data-dependent length, so the loop runs on
    a shrinking active mask; every arithmetic step (wrapping uint64 LCG,
    float64 division/truncation) mirrors the scalar operations exactly,
    keeping the bucket sequence bit-identical.
    """
    if num_buckets <= 0:
        raise BackendError("jump_bucket needs at least one bucket")
    key = np.asarray(keys, dtype=np.uint64).copy()
    b = np.full(len(key), -1, dtype=np.int64)
    j = np.zeros(len(key), dtype=np.int64)
    mult, one, s33 = np.uint64(_JUMP_MULT), np.uint64(1), np.uint64(33)
    active = j < num_buckets
    while active.any():
        b[active] = j[active]
        advanced = key[active] * mult + one
        key[active] = advanced
        fraction = np.float64(1 << 31) / ((advanced >> s33) + one).astype(np.float64)
        j[active] = ((b[active] + 1).astype(np.float64) * fraction).astype(np.int64)
        active = j < num_buckets
    return b


class JumpHash(HorizonConsistentHash):
    """Jump hashing over an ordered server list with a stack horizon.

    Working servers occupy indices ``0..N-1`` in addition order; horizon
    servers occupy ``N..N+|H|-1`` (the order in which they *will* be
    admitted).  ``add_working`` admits only the *next* horizon server --
    Jump's inherent restriction, which we surface rather than hide.
    """

    def __init__(self, working: Sequence[Name] = (), horizon: Sequence[Name] = ()):
        self._order: List[Name] = list(working) + list(horizon)
        if len(set(self._order)) != len(self._order):
            raise BackendError("duplicate server names")
        self._n_working = len(list(working))
        # Cached backend table (working prefix of _order); replaced on
        # any mutation so translation caches can key on identity.
        self._names_table = None

    # ------------------------------------------------------------- sets
    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._order[: self._n_working])

    @property
    def horizon(self) -> FrozenSet[Name]:
        return frozenset(self._order[self._n_working :])

    # ----------------------------------------------------------- lookup
    def lookup_with_safety(self, key_hash: int) -> Tuple[Name, bool]:
        if self._n_working == 0:
            raise BackendError("lookup on empty working set")
        bucket = jump_bucket(key_hash, self._n_working)
        union_bucket = jump_bucket(key_hash, len(self._order))
        return self._order[bucket], union_bucket != bucket

    def lookup_with_safety_batch_idx(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized stack-horizon safety: one jump per set size; the
        bucket *is* the index into :meth:`backend_table` (addition order)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int32), np.zeros(0, dtype=bool)
        if self._n_working == 0:
            raise BackendError("lookup on empty working set")
        buckets = v_jump_bucket(keys, self._n_working)
        if self._n_working == len(self._order):
            union_buckets = buckets
        else:
            union_buckets = v_jump_bucket(keys, len(self._order))
        return buckets.astype(np.int32), union_buckets != buckets

    def backend_table(self) -> np.ndarray:
        """Working servers in addition order (Jump's bucket order)."""
        if self._names_table is None:
            table = np.empty(self._n_working, dtype=object)
            table[:] = self._order[: self._n_working]
            self._names_table = table
        return self._names_table

    def lookup_union(self, key_hash: int) -> Name:
        if not self._order:
            raise BackendError("lookup on empty server set")
        return self._order[jump_bucket(key_hash, len(self._order))]

    # --------------------------------------------------------- mutation
    def add_working(self, name: Name) -> None:
        if self._n_working == len(self._order) or self._order[self._n_working] != name:
            raise BackendError(
                f"Jump admits horizon servers in order; next is "
                f"{self._order[self._n_working] if self._n_working < len(self._order) else None!r}, "
                f"not {name!r}"
            )
        self._n_working += 1
        self._names_table = None

    def remove_working(self, name: Name) -> None:
        if self._n_working == 0 or self._order[self._n_working - 1] != name:
            raise BackendError(
                f"Jump removes working servers in LIFO order; last is "
                f"{self._order[self._n_working - 1] if self._n_working else None!r}, not {name!r}"
            )
        self._n_working -= 1
        self._names_table = None

    def add_horizon(self, name: Name) -> None:
        if name in self._order:
            raise BackendError(f"server {name!r} already present")
        self._order.append(name)

    def remove_horizon(self, name: Name) -> None:
        if self._n_working >= len(self._order) or self._order[-1] != name:
            raise BackendError("Jump retires horizon servers from the tail only")
        self._order.pop()

    def force_add_working(self, name: Name) -> None:
        if self._n_working != len(self._order):
            raise BackendError("Jump cannot force-add while a horizon exists")
        self._order.append(name)
        self._n_working += 1
        self._names_table = None
