"""Highest Random Weight (rendezvous) hashing -- Section 3.2 / Algorithm 2.

Each server carries an independent 64-bit weight stream over keys; a key is
dispatched to the working server with the highest weight.  The JET safety
check is Algorithm 2 line 5: a key is unsafe iff some *horizon* server's
weight beats the chosen working server's weight -- there is no need to
evaluate ``CH(W ∪ H, k)`` in full.

Ties: 64-bit weights collide with probability ~2^-64 per pair; we still break
ties deterministically by server seed so that ``lookup`` is a pure function
of (W, k) regardless of insertion order (required by Property 1).

Capacities (``weights={name: c}``, absent names 1.0): a server scores
``-c / ln((w+1)/(2^64+1))`` for its weight ``w`` (the logarithmic method
of Thaler & Ravishankar -- a server wins a c/Σc share of keys) and servers
rank by ``(score, w, seed)``.  The score never decreases as ``w`` grows,
so on a unit fleet that order is the integer ``(w, seed)`` order, which
an unweighted HRW keeps using.  The safety test is the same comparison
against the horizon's best, and the tracked fraction becomes
c(H)/c(W ∪ H) (Theorem 4.2 generalized).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.ch.base import BackendError, HorizonConsistentHash, Name, capacity_weights
from repro.hashing.keyed import KeyedHasher
from repro.hashing.mix import MASK64
from repro.hashing.vector import v_mix2_argmax, v_mix2_outer

_DENOM = MASK64 + 2  # 2^64 + 1: (w + 1) / _DENOM lies in (0, 1)
#: A batch key whose numpy scores (numpy's log and its uint64 -> float
#: rounding may miss libm's by a few ulp) put the top two working servers,
#: or the winner and the horizon's best, within this relative gap is
#: decided again through the scalar score.
_RECHECK = 1e-9


def _score(capacity: float, w: int) -> float:
    """A server's capacity score for its rendezvous weight ``w``."""
    return -capacity / math.log((w + 1) / _DENOM)


class HRWHash(HorizonConsistentHash):
    """Rendezvous hashing over ``W`` with a horizon-aware safety test."""

    takes_weights = True

    def __init__(
        self,
        working: Iterable[Name] = (),
        horizon: Iterable[Name] = (),
        weights: Optional[Mapping[Name, float]] = None,
    ):
        self.weights = capacity_weights(weights)
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
        best, _ = self._argmax(self._working.values(), key_hash)
        if best is None:
            raise BackendError("lookup on empty working set")
        return best.name

    def lookup_with_safety(self, key_hash: int) -> Tuple[Name, bool]:
        best, best_rank = self._argmax(self._working.values(), key_hash)
        if best is None:
            raise BackendError("lookup on empty working set")
        unsafe = any(self._rank(h, key_hash) > best_rank for h in self._horizon.values())
        return best.name, unsafe

    def lookup_union(self, key_hash: int) -> Name:
        candidates = chain(self._working.values(), self._horizon.values())
        best, _ = self._argmax(candidates, key_hash)
        if best is None:
            raise BackendError("lookup on empty server set")
        return best.name

    def lookup_with_safety_batch_idx(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized Algorithm 2: one tiled argmax per side
        (:func:`~repro.hashing.vector.v_mix2_argmax`, no servers x keys
        matrix).  Server rows are sorted by descending seed so that the
        first maximum realizes the scalar ``(weight, seed)`` lexicographic
        tie-break.  Returns indices into :meth:`backend_table` (the
        seed-sorted working names)."""
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        if n == 0:
            return np.empty(0, dtype=np.int32), np.zeros(0, dtype=bool)
        if not self._working:
            raise BackendError("lookup on empty working set")
        if self.weights is not None:
            return self._scored_batch(keys)
        w_seeds, _ = self._working_matrix()
        winner, best_weight = v_mix2_argmax(w_seeds, keys)
        indices = winner.astype(np.int32)
        if not self._horizon:
            return indices, np.zeros(n, dtype=bool)
        h_seeds, _ = self._horizon_matrix()
        challenger, h_best = v_mix2_argmax(h_seeds, keys)
        tie_won = h_seeds.take(challenger) > w_seeds.take(winner)
        unsafe = (h_best > best_weight) | ((h_best == best_weight) & tie_won)
        return indices, unsafe

    def _scored_batch(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The kernel under capacities: numpy scores decide every key whose
        top-two and horizon gaps clear ``_RECHECK``; the scalar score
        decides the rest (a NaN or infinite score never clears it)."""
        n = len(keys)
        columns = np.arange(n)
        scores = self._scores(self._working_matrix(), keys)
        winner = scores.argmax(axis=0)
        best = scores[winner, columns]
        near = np.zeros(n, dtype=bool)
        if len(scores) > 1:
            scores[winner, columns] = -np.inf
            near |= ~(best - scores.max(axis=0) > _RECHECK * best)
        unsafe = np.zeros(n, dtype=bool)
        if self._horizon:
            h_best = self._scores(self._horizon_matrix(), keys).max(axis=0)
            unsafe = h_best > best
            near |= ~(np.abs(h_best - best) > _RECHECK * best)
        indices = winner.astype(np.int32)
        if near.any():
            row = {name: i for i, name in enumerate(self.backend_table())}
            for j in np.flatnonzero(near).tolist():
                name, unsafe[j] = self.lookup_with_safety(int(keys[j]))
                indices[j] = row[name]
        return indices, unsafe

    def _scores(self, matrix, keys: np.ndarray) -> np.ndarray:
        """numpy's capacity scores of one side, a row per server."""
        seeds, names = matrix
        capacity = np.array([self.weights.get(name, 1.0) for name in names])
        u = v_mix2_outer(seeds, keys).astype(np.float64)
        u += 1.0
        u /= float(_DENOM)
        with np.errstate(divide="ignore"):
            np.log(u, out=u)
            return np.divide(-capacity[:, None], u, out=u)

    def backend_table(self) -> np.ndarray:
        """Working names sorted by descending seed -- the argmax row order
        of the batch kernel (identity-stable until a backend change)."""
        return self._working_matrix()[1]

    def _working_matrix(self):
        if self._w_matrix is None:
            self._w_matrix = self._seed_matrix(self._working)
        return self._w_matrix

    def _horizon_matrix(self):
        if self._h_matrix is None:
            self._h_matrix = self._seed_matrix(self._horizon)
        return self._h_matrix

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

    def _rank(self, hasher: KeyedHasher, key_hash: int):
        """What HRW maximizes: ``(weight, seed)``, or ``(score, weight,
        seed)`` under capacities."""
        w = hasher.weight(key_hash)
        if self.weights is None:
            return w, hasher.seed
        return _score(self.weights.get(hasher.name, 1.0), w), w, hasher.seed

    def _argmax(self, hashers, key_hash: int):
        """``(server, rank)`` of the top-ranked hasher; ``(None, None)``
        when there is none."""
        best = best_rank = None
        for h in hashers:
            rank = self._rank(h, key_hash)
            if best is None or rank > best_rank:
                best, best_rank = h, rank
        return best, best_rank

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
