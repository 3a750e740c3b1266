"""AnchorHash consistent hashing -- Section 3.5 / Algorithm 5.

This module implements the full AnchorHash algorithm (Mendelson et al.,
IEEE/ACM ToN 2021, Algorithm 2) from scratch -- the *bucket* layer -- plus
the JET integration layer that maps server names onto buckets and maintains
the horizon.

AnchorHash bucket layer
-----------------------
An *anchor* set of ``capacity`` buckets is allocated up front.  Working
buckets serve keys; removed buckets sit on a LIFO stack ``R``.  For each
removed bucket ``b``, ``A[b]`` records ``|W_b|``, the number of working
buckets right after ``b``'s removal.  ``GETBUCKET`` iteratively re-hashes a
key into the historical working set of each removed bucket it lands on,
until it reaches a working bucket -- achieving full minimal disruption and
uniform balance with O(1) expected lookups when the anchor is mostly
working.

JET integration (the name layer)
--------------------------------
Bucket additions are inherently LIFO (``ADDBUCKET`` pops the stack), yet JET
allows *any* horizon server to be added next.  Appendix A.5's resolution is
indirection: server identities are decoupled from buckets, so when horizon
server ``s`` is admitted, it takes ownership of the popped top-of-stack
bucket and the bucket it previously owned is handed to the displaced owner.
Bucket addition order stays LIFO -- hence ``CH(W ∪ H, k)`` is well defined
and Property 1 holds trivially -- while server addition order is free.

We maintain the invariant that *horizon servers own exactly the top |H|
stack buckets*.  The removal stack always holds consecutive ``A`` values
``N, N+1, N+2, ...`` from the top (each removal pushes ``A = N``; each
addition pops the ``A = N`` top), so the JET safety test is O(1):

    unsafe(k)  iff  A[penultimate bucket on k's GETBUCKET path] < N + |H|

where the *penultimate* bucket is the last removed bucket the lookup path
visits -- exactly the check of Algorithm 5 lines 8-9.  Path ``A`` values
strictly decrease, so if the penultimate (minimum-``A``) bucket is outside
the horizon region, every earlier path bucket is too, and ``k`` is safe.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.ch.base import BackendError, HorizonConsistentHash, Name
from repro.hashing.mix import MASK64, fmix64, mix2
from repro.hashing.vector import _SM_GAMMA, v_fmix64, v_remainder

_JUMP_SALT = 0x5851_F42D_4C95_7F2D


class AnchorBuckets:
    """The bucket layer: AnchorHash Algorithm 2 (INIT/GET/ADD/REMOVE)."""

    __slots__ = ("capacity", "A", "K", "W", "L", "R", "N", "_mix")

    def __init__(self, capacity: int, initial_working: int):
        if not 0 < initial_working <= capacity:
            raise ValueError("need 0 < initial_working <= capacity")
        self.capacity = capacity
        self.A: List[int] = [0] * capacity
        self.K: List[int] = list(range(capacity))
        self.W: List[int] = list(range(capacity))
        self.L: List[int] = list(range(capacity))
        self.R: List[int] = []  # removal stack; top is R[-1]
        self.N = capacity
        self._mix: Optional[np.ndarray] = None  # per-bucket fmix64(b ^ salt)
        for bucket in range(capacity - 1, initial_working - 1, -1):
            self.R.append(bucket)
            self.A[bucket] = bucket
            self.N -= 1

    # ------------------------------------------------------------ paths
    def _jump(self, bucket: int, key_hash: int) -> int:
        """``h_b(k)``: re-hash ``k`` into ``{0, ..., A[b]-1}``."""
        return mix2(fmix64(bucket ^ _JUMP_SALT), key_hash) % self.A[bucket]

    def get_path(self, key_hash: int) -> Tuple[int, Optional[int]]:
        """GETBUCKET returning ``(bucket, penultimate)``.

        ``penultimate`` is the last *removed* bucket visited (None when the
        initial bucket is already working) -- the quantity Algorithm 5's
        safety test inspects.
        """
        if self.N == 0:
            raise BackendError("lookup with no working buckets")
        A = self.A
        K = self.K
        b = key_hash % self.capacity
        penultimate: Optional[int] = None
        while A[b] > 0:  # b is removed
            penultimate = b
            h = self._jump(b, key_hash)
            while A[h] >= A[b]:  # W_b is a subset of W_h: keep following K
                h = K[h]
            b = h
        return b, penultimate

    def get(self, key_hash: int) -> int:
        return self.get_path(key_hash)[0]

    def get_path_batch(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized GETBUCKET over a uint64 key array.

        Returns ``(buckets, penultimates)`` with ``penultimate == -1``
        standing in for the scalar path's ``None``.  The wandering loop
        runs jump-style: an *active* index set shrinks as keys reach
        working buckets, and the inner ``K``-chase is its own shrinking
        mask -- every arithmetic step is the uint64 twin of the scalar
        walk, so the result is bit-identical key for key.
        """
        if self.N == 0:
            raise BackendError("lookup with no working buckets")
        A = np.asarray(self.A, dtype=np.int64)
        K = np.asarray(self.K, dtype=np.int64)
        if self._mix is None:
            ids = np.arange(self.capacity, dtype=np.uint64) ^ np.uint64(_JUMP_SALT)
            self._mix = v_fmix64(ids)
        b = v_remainder(keys, self.capacity)
        penultimate = np.full(len(keys), -1, dtype=np.int64)
        active = np.flatnonzero(A[b] > 0)  # keys sitting on a removed bucket
        with np.errstate(over="ignore"):
            while active.size:
                ba = b[active]
                ab = A[ba]
                penultimate[active] = ba
                hashed = v_fmix64(self._mix[ba] * _SM_GAMMA + keys[active])
                h = (hashed % ab.astype(np.uint64)).astype(np.int64)
                chase = np.flatnonzero(A[h] >= ab)  # W_b ⊆ W_h: follow K
                while chase.size:
                    h[chase] = K[h[chase]]
                    chase = chase[A[h[chase]] >= ab[chase]]
                b[active] = h
                active = active[A[h] > 0]
        return b, penultimate

    # --------------------------------------------------------- mutation
    def add(self) -> int:
        """ADDBUCKET: restore the most recently removed bucket."""
        if not self.R:
            raise BackendError("anchor capacity exhausted: no removed buckets")
        b = self.R.pop()
        self.A[b] = 0
        self.L[self.W[self.N]] = self.N
        self.W[self.L[b]] = b
        self.K[b] = b
        self.N += 1
        return b

    def remove(self, b: int) -> None:
        """REMOVEBUCKET: push a working bucket onto the removal stack."""
        if self.A[b] != 0 or self.N == 0:
            raise BackendError(f"bucket {b} is not working")
        self.R.append(b)
        self.N -= 1
        self.A[b] = self.N
        self.W[self.L[b]] = self.W[self.N]
        self.L[self.W[self.N]] = self.L[b]
        self.K[b] = self.W[self.N]

    def is_working(self, b: int) -> bool:
        return self.A[b] == 0


class AnchorHash(HorizonConsistentHash):
    """AnchorHash with JET horizon support (Algorithm 5)."""

    def __init__(
        self,
        working: Iterable[Name] = (),
        horizon: Iterable[Name] = (),
        capacity: Optional[int] = None,
    ):
        working = list(working)
        horizon = list(horizon)
        total = len(working) + len(horizon)
        if total == 0:
            total = 1
        if capacity is None:
            capacity = max(2 * total, 16)
        if capacity < total:
            raise BackendError("capacity smaller than initial working+horizon")
        if not working:
            raise BackendError("AnchorHash requires a non-empty initial working set")

        self._buckets = AnchorBuckets(capacity, len(working))
        self._bucket_of: Dict[Name, int] = {}
        self._name_of: Dict[int, Optional[Name]] = {}
        # Cached bucket -> name object array (the canonical backend
        # table).  Replaced -- never mutated -- whenever ownership
        # changes, so downstream translation caches can key on identity.
        self._names_table: Optional[np.ndarray] = None
        self._working_names: set = set()
        self._horizon_names: set = set()

        for i, name in enumerate(working):
            self._own(name, i)
            self._working_names.add(name)
        for name in horizon:
            self.add_horizon(name)

    # ---------------------------------------------------------- helpers
    def _own(self, name: Name, bucket: int) -> None:
        if name in self._bucket_of:
            raise BackendError(f"server {name!r} already present")
        self._bucket_of[name] = bucket
        self._name_of[bucket] = name
        self._names_table = None

    def _swap_owners(self, bucket_a: int, bucket_b: int) -> None:
        """Exchange the owners of two buckets (the A.5 indirection)."""
        if bucket_a == bucket_b:
            return
        name_a = self._name_of.get(bucket_a)
        name_b = self._name_of.get(bucket_b)
        self._name_of[bucket_a] = name_b
        self._name_of[bucket_b] = name_a
        self._names_table = None
        if name_a is not None:
            self._bucket_of[name_a] = bucket_b
        if name_b is not None:
            self._bucket_of[name_b] = bucket_a

    # ------------------------------------------------------------- sets
    @property
    def working(self) -> FrozenSet[Name]:
        return frozenset(self._working_names)

    @property
    def horizon(self) -> FrozenSet[Name]:
        return frozenset(self._horizon_names)

    # ----------------------------------------------------------- lookup
    def lookup_with_safety(self, key_hash: int) -> Tuple[Name, bool]:
        key_hash &= MASK64
        bucket, penultimate = self._buckets.get_path(key_hash)
        name = self._name_of[bucket]
        if penultimate is None:
            return name, False
        # Horizon buckets are exactly the stack's top |H| entries, which
        # hold the consecutive A values N, ..., N + |H| - 1.
        unsafe = self._buckets.A[penultimate] < self._buckets.N + len(self._horizon_names)
        return name, unsafe

    def lookup_with_safety_batch_idx(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized Algorithm 5: the winning *bucket* is already the
        index into :meth:`backend_table` (buckets own at most one name),
        so the kernel is one :meth:`AnchorBuckets.get_path_batch`
        wandering pass plus the same single ``A[penultimate]`` safety
        comparison, applied where a removed bucket was visited at all."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int32), np.zeros(0, dtype=bool)
        buckets, penultimate = self._buckets.get_path_batch(keys)
        unsafe = np.zeros(len(keys), dtype=bool)
        walked = penultimate >= 0
        if walked.any():
            A = np.asarray(self._buckets.A, dtype=np.int64)
            boundary = self._buckets.N + len(self._horizon_names)
            unsafe[walked] = A[penultimate[walked]] < boundary
        return buckets.astype(np.int32), unsafe

    def backend_table(self) -> np.ndarray:
        """Bucket -> owner-name object array (unowned buckets hold None)."""
        if self._names_table is None:
            table = np.empty(self._buckets.capacity, dtype=object)
            for bucket, name in self._name_of.items():
                table[bucket] = name
            self._names_table = table
        return self._names_table

    def lookup_union(self, key_hash: int) -> Name:
        """Destination once the whole horizon is admitted (canonical LIFO
        bucket order).  Computed by walking the GETBUCKET path and stopping
        at the first bucket inside ``W`` or the horizon region."""
        key_hash &= MASK64
        buckets = self._buckets
        boundary = buckets.N + len(self._horizon_names)
        b = key_hash % buckets.capacity
        while buckets.A[b] >= boundary:  # removed and not restorable
            h = buckets._jump(b, key_hash)
            while buckets.A[h] >= buckets.A[b]:
                h = buckets.K[h]
            b = h
        name = self._name_of.get(b)
        if name is None:
            raise BackendError("lookup_union reached an unowned bucket")
        return name

    # --------------------------------------------------------- mutation
    def add_working(self, name: Name) -> None:
        if name not in self._horizon_names:
            raise BackendError(f"server {name!r} is not in the horizon")
        top = self._buckets.R[-1]
        self._swap_owners(self._bucket_of[name], top)
        restored = self._buckets.add()
        assert restored == top
        self._horizon_names.discard(name)
        self._working_names.add(name)

    def remove_working(self, name: Name) -> None:
        if name not in self._working_names:
            raise BackendError(f"server {name!r} is not working")
        self._buckets.remove(self._bucket_of[name])
        self._working_names.discard(name)
        self._horizon_names.add(name)

    def add_horizon(self, name: Name) -> None:
        if name in self._bucket_of:
            raise BackendError(f"server {name!r} already present")
        stack = self._buckets.R
        region = len(self._horizon_names)
        if len(stack) < region + 1:
            raise BackendError("anchor capacity exhausted: grow `capacity`")
        # The bucket just below the horizon region becomes part of the
        # (now one larger) region and is handed to the new server.
        bucket = stack[-(region + 1)]
        previous_owner = self._name_of.get(bucket)
        if previous_owner is not None:
            # A dead identity (permanently removed) may still own it.
            del self._bucket_of[previous_owner]
        self._own(name, bucket)
        self._horizon_names.add(name)

    def remove_horizon(self, name: Name) -> None:
        if name not in self._horizon_names:
            raise BackendError(f"server {name!r} is not in the horizon")
        stack = self._buckets.R
        region = len(self._horizon_names)
        deepest = stack[-region]
        self._swap_owners(self._bucket_of[name], deepest)
        # `name` now owns the deepest region bucket, which falls out of the
        # region once |H| shrinks; drop the identity entirely.
        bucket = self._bucket_of.pop(name)
        self._name_of[bucket] = None
        self._names_table = None
        self._horizon_names.discard(name)

    def force_add_working(self, name: Name) -> None:
        """Unanticipated addition: pop the top bucket for ``name`` even
        though ``name`` never sat in the horizon.  The displaced horizon
        owner (if any) is re-seated on the bucket just below the region so
        the top-|H| invariant survives."""
        if name in self._bucket_of:
            raise BackendError(f"server {name!r} already present")
        stack = self._buckets.R
        if not stack:
            raise BackendError("anchor capacity exhausted: no removed buckets")
        top = stack[-1]
        displaced = self._name_of.get(top)
        if displaced is not None and displaced in self._horizon_names:
            region = len(self._horizon_names)
            if len(stack) < region + 1:
                raise BackendError("anchor capacity exhausted: grow `capacity`")
            replacement = stack[-(region + 1)]
            dead = self._name_of.get(replacement)
            if dead is not None:
                del self._bucket_of[dead]
            self._bucket_of[displaced] = replacement
            self._name_of[replacement] = displaced
            self._name_of[top] = None
            self._names_table = None
        elif displaced is not None:
            del self._bucket_of[displaced]
            self._name_of[top] = None
            self._names_table = None
        self._own(name, top)
        self._buckets.add()
        self._working_names.add(name)
