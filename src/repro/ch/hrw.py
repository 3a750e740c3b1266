"""Highest Random Weight (rendezvous) hashing -- Section 3.2 / Algorithm 2.

Each server carries an independent 64-bit weight stream over keys; a key is
dispatched to the working server with the highest weight.  The JET safety
check is Algorithm 2 line 5: a key is unsafe iff some *horizon* server's
weight beats the chosen working server's weight -- there is no need to
evaluate ``CH(W ∪ H, k)`` in full.

Ties: 64-bit weights collide with probability ~2^-64 per pair; we still break
ties deterministically by server seed so that ``lookup`` is a pure function
of (W, k) regardless of insertion order (required by Property 1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

import numpy as np

from repro.ch.base import BackendError, HorizonConsistentHash, Name
from repro.hashing.keyed import KeyedHasher
from repro.hashing.vector import v_mix2_outer


class HRWHash(HorizonConsistentHash):
    """Rendezvous hashing over ``W`` with a horizon-aware safety test."""

    def __init__(self, working: Iterable[Name] = (), horizon: Iterable[Name] = ()):
        self._working: Dict[Name, KeyedHasher] = {}
        self._horizon: Dict[Name, KeyedHasher] = {}
        # Batch kernel caches: (seeds, names) per side, rebuilt on change.
        # The names array doubles as the canonical backend table, so a
        # rebuild (fresh array object) is what signals downstream
        # translation caches to refresh (identity-based invalidation).
        self._w_matrix = None
        self._h_matrix = None
        for name in working:
            self._admit(self._working, name)
        for name in horizon:
            self.add_horizon(name)

    # ------------------------------------------------------------- sets
    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._working)

    @property
    def horizon(self) -> FrozenSet[Name]:
        return frozenset(self._horizon)

    def _admit(self, side: Dict[Name, KeyedHasher], name: Name) -> None:
        if name in self._working or name in self._horizon:
            raise BackendError(f"server {name!r} already present")
        side[name] = KeyedHasher(name)
        self._invalidate_matrices()

    # ----------------------------------------------------------- lookup
    def lookup(self, key_hash: int) -> Name:
        best = self._argmax(self._working.values(), key_hash)
        if best is None:
            raise BackendError("lookup on empty working set")
        return best.name

    def lookup_with_safety(self, key_hash: int) -> Tuple[Name, bool]:
        best = self._argmax(self._working.values(), key_hash)
        if best is None:
            raise BackendError("lookup on empty working set")
        best_weight = best.weight(key_hash)
        unsafe = any(
            self._beats(h, key_hash, best_weight, best)
            for h in self._horizon.values()
        )
        return best.name, unsafe

    def lookup_union(self, key_hash: int) -> Name:
        candidates = list(self._working.values()) + list(self._horizon.values())
        best = self._argmax(candidates, key_hash)
        if best is None:
            raise BackendError("lookup on empty server set")
        return best.name

    def lookup_with_safety_batch_idx(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized Algorithm 2: one weight matrix per side, argmax over
        servers.  Server rows are sorted by descending seed so that
        ``argmax`` (first maximum) realizes the scalar ``(weight, seed)``
        lexicographic tie-break.  Returns indices into
        :meth:`backend_table` (the seed-sorted working names)."""
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        if n == 0:
            return np.empty(0, dtype=np.int32), np.zeros(0, dtype=bool)
        if not self._working:
            raise BackendError("lookup on empty working set")
        w_seeds, _ = self._working_matrix()
        weights = v_mix2_outer(w_seeds, keys)
        winner = weights.argmax(axis=0)
        indices = winner.astype(np.int32)
        columns = np.arange(n)
        best_weight = weights[winner, columns]
        if not self._horizon:
            return indices, np.zeros(n, dtype=bool)
        best_seed = w_seeds[winner]
        if self._h_matrix is None:
            self._h_matrix = self._seed_matrix(self._horizon)
        h_seeds, _ = self._h_matrix
        h_weights = v_mix2_outer(h_seeds, keys)
        challenger = h_weights.argmax(axis=0)
        h_best = h_weights[challenger, columns]
        h_seed = h_seeds[challenger]
        unsafe = (h_best > best_weight) | (
            (h_best == best_weight) & (h_seed > best_seed)
        )
        return indices, unsafe

    def backend_table(self) -> np.ndarray:
        """Working names sorted by descending seed -- the argmax row order
        of the batch kernel (identity-stable until a backend change)."""
        return self._working_matrix()[1]

    def _working_matrix(self):
        if self._w_matrix is None:
            self._w_matrix = self._seed_matrix(self._working)
        return self._w_matrix

    def _invalidate_matrices(self) -> None:
        self._w_matrix = None
        self._h_matrix = None

    @staticmethod
    def _seed_matrix(side: Dict[Name, KeyedHasher]):
        """(seeds, names) arrays of one side, sorted by descending seed."""
        hashers = sorted(side.values(), key=lambda h: h.seed, reverse=True)
        seeds = np.array([h.seed for h in hashers], dtype=np.uint64)
        names = np.empty(len(hashers), dtype=object)
        names[:] = [h.name for h in hashers]
        return seeds, names

    @staticmethod
    def _argmax(hashers, key_hash: int):
        best = None
        best_key = None
        for h in hashers:
            w = (h.weight(key_hash), h.seed)
            if best_key is None or w > best_key:
                best, best_key = h, w
        return best

    @staticmethod
    def _beats(h: KeyedHasher, key_hash: int, best_weight: int, best: KeyedHasher) -> bool:
        w = h.weight(key_hash)
        return (w, h.seed) > (best_weight, best.seed)

    # --------------------------------------------------------- mutation
    def add_working(self, name: Name) -> None:
        hasher = self._horizon.pop(name, None)
        if hasher is None:
            raise BackendError(f"server {name!r} is not in the horizon")
        self._working[name] = hasher
        self._invalidate_matrices()

    def remove_working(self, name: Name) -> None:
        hasher = self._working.pop(name, None)
        if hasher is None:
            raise BackendError(f"server {name!r} is not working")
        self._horizon[name] = hasher
        self._invalidate_matrices()

    def add_horizon(self, name: Name) -> None:
        self._admit(self._horizon, name)

    def remove_horizon(self, name: Name) -> None:
        if self._horizon.pop(name, None) is None:
            raise BackendError(f"server {name!r} is not in the horizon")
        self._invalidate_matrices()
