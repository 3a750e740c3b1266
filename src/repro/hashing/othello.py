"""Othello hashing: a minimal perfect mapping for the Concury dataplane.

The structure (Yu et al., "Othello Hashing"; used by Concury,
arXiv 1908.01889) encodes a static map ``key -> l-bit value`` into two
integer arrays ``A`` (size ``ma``) and ``B`` (size ``mb``) such that

    lookup(k) = A[h_a(k)] ^ B[h_b(k)]

-- two seeded hash probes and one XOR, branch-free and O(1) regardless of
how many keys are stored.  Construction views each key as an edge of a
bipartite graph between A-nodes and B-nodes; when that graph is acyclic
(which holds with high probability for ``ma >= 1.33 n``, ``mb >= n``) the
array cells can be assigned by walking each tree once so every edge's
endpoint XOR equals its value.  A cyclic draw is retried with the next
seed pair derived deterministically from the master seed, so two builds
from the same ``(keys, values, seed)`` are identical arrays -- including
how many attempts they burned.

The *control plane* owns all mutation:

- :meth:`update` changes one key's value in place by XOR-ing the value
  delta along the affected tree component (the key's edge is the only
  edge leaving that component, so every other key's lookup is preserved);
- :meth:`clone` is a cheap copy-on-write snapshot (arrays copied, the
  immutable edge structure shared) used to patch a new version aside and
  flip it atomically into the dataplane.

Lookups of keys *outside* the built key set return well-defined garbage
(whatever the two probed cells XOR to); callers that need membership must
keep it elsewhere.  Concury never does: its key universe (flowset ids) is
exactly the built key set.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.hashing.mix import MASK64, fmix64
from repro.hashing.vector import v_fmix64

__all__ = ["Othello", "OthelloBuildError"]


class OthelloBuildError(RuntimeError):
    """Raised when no acyclic seed pair is found within ``max_attempts``."""


def _pow2_at_least(n: int) -> int:
    size = 1
    while size < n:
        size <<= 1
    return size


def _probe_seeds(seed: int, attempt: int) -> Tuple[int, int]:
    """The deterministic seed pair for one build attempt.

    Derived purely from ``(seed, attempt)`` through the finalizer, so a
    rebuild-on-cycle sequence is reproducible across processes.
    """
    base = fmix64((seed * 0x9E3779B97F4A7C15 + attempt) & MASK64)
    return base, fmix64(base ^ 0xC4CEB9FE1A85EC53)


class Othello:
    """Static perfect mapping ``uint64 key -> value`` with XOR lookup."""

    __slots__ = (
        "a", "b", "ma", "mb", "seed", "attempts", "value_bits",
        "_seed_a", "_seed_b", "_keys", "_values", "_key_index",
        "_edge_a", "_edge_b", "_adjacency",
    )

    #: Sizing from the Othello paper: |A| >= 1.33 n keeps the bipartite
    #: edge draw subcritical so the graph is acyclic w.h.p.
    A_LOAD = 1.33

    def __init__(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        seed: int = 0,
        value_bits: int = 16,
        max_attempts: int = 64,
        ma: int = None,
        mb: int = None,
    ):
        keys = [int(k) & MASK64 for k in keys]
        values = [int(v) for v in values]
        if len(keys) != len(values):
            raise ValueError("keys and values must pair up")
        if len(set(keys)) != len(keys):
            raise ValueError("Othello keys must be distinct")
        if value_bits < 1 or value_bits > 32:
            raise ValueError("value_bits must be in [1, 32]")
        limit = 1 << value_bits
        if any(v < 0 or v >= limit for v in values):
            raise ValueError(f"values must fit in {value_bits} bits")
        n = max(1, len(keys))
        self.ma = ma if ma is not None else _pow2_at_least(int(self.A_LOAD * n) + 1)
        self.mb = mb if mb is not None else _pow2_at_least(n)
        self.seed = seed
        self.value_bits = value_bits
        dtype = np.uint8 if value_bits <= 8 else (np.uint16 if value_bits <= 16 else np.uint32)
        self._keys = np.array(keys, dtype=np.uint64)
        self._values = np.array(values, dtype=dtype)
        self._key_index: Dict[int, int] = {k: i for i, k in enumerate(keys)}
        self._build(max_attempts, dtype)

    # ------------------------------------------------------ construction
    def _probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized (h_a, h_b) node positions for a uint64 key array."""
        sa = np.uint64(self._seed_a)
        sb = np.uint64(self._seed_b)
        ha = (v_fmix64(keys ^ sa) & np.uint64(self.ma - 1)).astype(np.int64)
        hb = (v_fmix64(keys ^ sb) & np.uint64(self.mb - 1)).astype(np.int64)
        return ha, hb

    def _build(self, max_attempts: int, dtype) -> None:
        """Find an acyclic seed pair, then 2-color the forest.

        Each failed attempt advances the deterministic seed chain --
        ``attempts`` records how many were burned, and the hypothesis
        suite bounds it.
        """
        n = len(self._keys)
        for attempt in range(max_attempts):
            self._seed_a, self._seed_b = _probe_seeds(self.seed, attempt)
            ha, hb = self._probe(self._keys)
            adjacency = self._acyclic_adjacency(ha, hb, n)
            if adjacency is not None:
                self.attempts = attempt + 1
                self._edge_a = ha
                self._edge_b = hb
                self._adjacency = adjacency
                self._assign(dtype)
                return
        raise OthelloBuildError(
            f"no acyclic Othello draw for {n} keys in {max_attempts} attempts "
            f"(ma={self.ma}, mb={self.mb})"
        )

    def _acyclic_adjacency(self, ha, hb, n):
        """Adjacency lists if the edge draw is a forest, else None.

        Nodes are numbered A-side ``0..ma-1`` and B-side ``ma..ma+mb-1``;
        each adjacency entry is ``(neighbor, edge)``.  Acyclicity is
        checked with one union-find pass (duplicate (h_a, h_b) pairs form
        a 2-cycle and fail it like any other cycle).
        """
        total = self.ma + self.mb
        parent = list(range(total))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(total)]
        ma = self.ma
        for edge in range(n):
            u = int(ha[edge])
            v = ma + int(hb[edge])
            ru, rv = find(u), find(v)
            if ru == rv:
                return None
            parent[ru] = rv
            adjacency[u].append((v, edge))
            adjacency[v].append((u, edge))
        return adjacency

    def _assign(self, dtype) -> None:
        """Walk each tree once, fixing cells so every edge XORs right."""
        a = np.zeros(self.ma, dtype=dtype)
        b = np.zeros(self.mb, dtype=dtype)
        ma = self.ma
        values = self._values
        adjacency = self._adjacency
        seen = bytearray(ma + self.mb)
        cell = [0] * (ma + self.mb)
        for root in range(ma + self.mb):
            if seen[root] or not adjacency[root]:
                continue
            seen[root] = 1
            stack = [root]
            while stack:
                node = stack.pop()
                here = cell[node]
                for neighbor, edge in adjacency[node]:
                    if seen[neighbor]:
                        continue
                    seen[neighbor] = 1
                    cell[neighbor] = here ^ int(values[edge])
                    stack.append(neighbor)
        if ma + self.mb:
            flat = np.asarray(cell, dtype=dtype)
            a[:] = flat[:ma]
            b[:] = flat[ma:]
        self.a = a
        self.b = b

    # ------------------------------------------------------------ lookup
    def lookup(self, key: int) -> int:
        """``A[h_a(k)] ^ B[h_b(k)]`` -- the whole dataplane operation."""
        key &= MASK64
        ha = fmix64(key ^ self._seed_a) & (self.ma - 1)
        hb = fmix64(key ^ self._seed_b) & (self.mb - 1)
        return int(self.a[ha]) ^ int(self.b[hb])

    def lookup_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lookup` over a uint64 array (branch-free)."""
        keys = np.asarray(keys, dtype=np.uint64)
        ha, hb = self._probe(keys)
        return self.a[ha] ^ self.b[hb]

    # ---------------------------------------------------------- mutation
    def update(self, key: int, value: int) -> int:
        """Change one key's value in place; returns cells touched.

        XORs ``old ^ new`` into every cell of the tree component on the
        A-side of the key's edge, *excluding* travel across the edge
        itself: edges internal to that component see the delta twice
        (a no-op) and the key's edge sees it once, so exactly one lookup
        changes.  Cost is the component size -- O(log n) expected at the
        subcritical load the builder enforces.
        """
        edge = self._key_index[int(key) & MASK64]
        old = int(self._values[edge])
        value = int(value)
        if value < 0 or value >= (1 << self.value_bits):
            raise ValueError(f"value must fit in {self.value_bits} bits")
        delta = old ^ value
        if not delta:
            return 0
        ma = self.ma
        start = int(self._edge_a[edge])
        seen = {start}
        stack = [start]
        touched = 0
        a, b = self.a, self.b
        adjacency = self._adjacency
        while stack:
            node = stack.pop()
            if node < ma:
                a[node] ^= delta
            else:
                b[node - ma] ^= delta
            touched += 1
            for neighbor, via in adjacency[node]:
                if via == edge or neighbor in seen:
                    continue
                seen.add(neighbor)
                stack.append(neighbor)
        self._values[edge] = value
        return touched

    def clone(self) -> "Othello":
        """Copy-on-write snapshot: arrays copied, edge structure shared.

        The control plane patches the clone with :meth:`update` calls and
        flips it into the dataplane in one reference assignment, so
        readers only ever see a fully consistent version.
        """
        twin = object.__new__(Othello)
        twin.ma, twin.mb = self.ma, self.mb
        twin.seed, twin.attempts = self.seed, self.attempts
        twin.value_bits = self.value_bits
        twin._seed_a, twin._seed_b = self._seed_a, self._seed_b
        twin.a = self.a.copy()
        twin.b = self.b.copy()
        twin._keys = self._keys
        twin._values = self._values.copy()
        twin._key_index = self._key_index
        twin._edge_a, twin._edge_b = self._edge_a, self._edge_b
        twin._adjacency = self._adjacency
        return twin

    # ------------------------------------------------------------- state
    @property
    def memory_bytes(self) -> int:
        """Dataplane footprint: the two probe arrays only.

        Independent of how many *connections* ever hash into the map --
        the whole point of the Concury comparison.
        """
        return self.a.nbytes + self.b.nbytes

    def __len__(self) -> int:
        return len(self._keys)

    def items(self):
        """Control-plane view of the stored mapping."""
        return zip(self._keys.tolist(), self._values.tolist())
