"""Othello hashing: a minimal perfect mapping for the Concury dataplane.

The structure (Yu et al., "Othello Hashing"; used by Concury,
arXiv 1908.01889) encodes a static map ``key -> l-bit value`` into two
integer arrays ``A`` (size ``ma``) and ``B`` (size ``mb``) such that

    lookup(k) = A[h_a(k)] ^ B[h_b(k)]

-- two seeded hash probes and one XOR, branch-free and O(1) regardless of
how many keys are stored.  Construction views each key as an edge of a
bipartite graph between A-nodes and B-nodes; when that graph is a forest
(which holds with high probability for ``ma >= 1.33 n``, ``mb >= n``) the
array cells can be assigned so every edge's endpoint XOR equals its value.
A cyclic draw is retried with the next seed pair derived deterministically
from the master seed, so two builds from the same ``(keys, values, seed)``
are identical arrays -- including how many attempts they burned.

The build is one numpy peeling pass (:func:`_peel`): a draw is a forest
iff repeatedly removing the edges that have a degree-1 endpoint removes
every edge, and assigning cells in reverse peel order, one vectorised
step per round, fixes every edge's XOR.  The graph is kept as CSR arrays
(node offsets and neighbours) and the keys as a sorted array, so an
``Othello`` holds -- and pickles as -- numpy arrays and ints only.

The *control plane* owns all mutation:

- :meth:`update` / :meth:`update_many` change keys' values in place by
  XOR-ing each value delta along the affected tree component (the key's
  edge is the only edge leaving that component, so every other key's
  lookup is preserved);
- :meth:`clone` is a cheap copy-on-write snapshot (cells copied, the
  read-only graph shared) used to patch a new version aside and flip it
  atomically into the dataplane.

Lookups of keys *outside* the built key set return well-defined garbage
(whatever the two probed cells XOR to); callers that need membership must
keep it elsewhere.  Concury never does: its key universe (flowset ids) is
exactly the built key set.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hashing.mix import MASK64, fmix64
from repro.hashing.vector import _TILE_KEYS, _fmix64_into

__all__ = ["Othello", "OthelloBuildError"]

#: One peeling round: the edges removed, and for each its degree-1 end
#: (``free``) and the end it still hangs from (``other``).
Round = Tuple[np.ndarray, np.ndarray, np.ndarray]


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


def _key_array(keys) -> np.ndarray:
    """``keys`` as uint64, refusing anything but integers in [0, 2**64)."""
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "ui":
        if keys.dtype.kind == "i" and len(keys) and keys.min() < 0:
            pos = int(np.argmax(keys < 0))
            raise ValueError(f"Othello key at position {pos} is {keys[pos]}, not in [0, 2**64)")
        return keys.astype(np.uint64)
    checked = []
    for pos, key in enumerate(keys):
        try:
            key = operator.index(key)
        except TypeError:
            raise ValueError(f"Othello key at position {pos} is {key!r}, not an integer") from None
        if not 0 <= key <= MASK64:
            raise ValueError(f"Othello key at position {pos} is {key}, not in [0, 2**64)")
        checked.append(key)
    return np.array(checked, dtype=np.uint64)


def _value_array(values, value_bits: int) -> np.ndarray:
    if not isinstance(values, np.ndarray):
        values = [int(v) for v in values]
    values = np.asarray(values)
    if len(values) and (values.min() < 0 or values.max() >= 1 << value_bits):
        raise ValueError(f"values must fit in {value_bits} bits")
    return values


def _peel(u: np.ndarray, v: np.ndarray, total: int) -> Optional[List[Round]]:
    """Peeling rounds if the edges ``u[e] -- v[e]`` form a forest, else None.

    Each round removes every alive edge with a degree-1 endpoint; a draw
    is a forest iff that empties the graph (a cycle, including the 2-cycle
    of a duplicate pair, never loses a degree-1 node).  An edge's free end
    is its degree-1 node, the A-side one when both are.  A free end has no
    other alive edge, so no node is free twice or free and other in one
    round.
    """
    deg = np.bincount(u, minlength=total) + np.bincount(v, minlength=total)
    alive = np.arange(len(u))
    rounds: List[Round] = []
    while len(alive):
        au, av = u[alive], v[alive]
        u_free = deg[au] == 1
        leaf = u_free | (deg[av] == 1)
        if not leaf.any():
            return None
        u_free = u_free[leaf]
        free = np.where(u_free, au[leaf], av[leaf])
        other = np.where(u_free, av[leaf], au[leaf])
        rounds.append((alive[leaf], free, other))
        deg[free] = 0
        deg -= np.bincount(other, minlength=total)
        alive = alive[~leaf]
    return rounds


class Othello:
    """Static perfect mapping ``uint64 key -> value`` with XOR lookup."""

    __slots__ = (
        "a", "b", "ma", "mb", "seed", "attempts", "value_bits",
        "_seed_a", "_seed_b", "_keys", "_offsets", "_neighbors",
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
        if value_bits < 1 or value_bits > 32:
            raise ValueError("value_bits must be in [1, 32]")
        keys = _key_array(keys)
        values = _value_array(values, value_bits)
        if len(keys) != len(values):
            raise ValueError("keys and values must pair up")
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if len(repeated):
            first, second = order[repeated[0]:repeated[0] + 2].tolist()
            raise ValueError(
                f"Othello keys must be distinct: positions {first} and {second} "
                f"are both {keys[repeated[0]]}"
            )
        n = max(1, len(keys))
        self.ma = ma if ma is not None else _pow2_at_least(int(self.A_LOAD * n) + 1)
        self.mb = mb if mb is not None else _pow2_at_least(n)
        self.seed = seed
        self.value_bits = value_bits
        dtype = np.uint8 if value_bits <= 8 else (np.uint16 if value_bits <= 16 else np.uint32)
        self._keys = keys
        self._build(values[order].astype(dtype), max_attempts)

    # ------------------------------------------------------ construction
    @staticmethod
    def _hash_into(keys, seed: int, size: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """One probe, ``fmix64(k ^ seed) & (size - 1)``, written into the
        uint64 scratch ``out`` (``tmp`` same shape); an int64 view of it."""
        np.bitwise_xor(keys, np.uint64(seed), out=out)
        _fmix64_into(out, tmp)
        out &= np.uint64(size - 1)
        return out.view(np.int64)

    def _probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized (h_a, h_b) node positions for a uint64 key array."""
        tmp = np.empty(len(keys), dtype=np.uint64)
        ha = self._hash_into(keys, self._seed_a, self.ma, np.empty_like(tmp), tmp)
        hb = self._hash_into(keys, self._seed_b, self.mb, np.empty_like(tmp), tmp)
        return ha, hb

    def _build(self, values: np.ndarray, max_attempts: int) -> None:
        """Find an acyclic seed pair, assign the cells, keep the graph.

        Each failed attempt advances the deterministic seed chain --
        ``attempts`` records how many were burned, and the hypothesis
        suite bounds it.  Nodes are numbered A-side ``0..ma-1`` and
        B-side ``ma..ma+mb-1``; the one node of each tree that peeling
        never frees holds 0, and every freed node is fixed from the node
        it hung from, which a later round (or no round) freed.
        """
        total = self.ma + self.mb
        for attempt in range(max_attempts):
            self._seed_a, self._seed_b = _probe_seeds(self.seed, attempt)
            u, v = self._probe(self._keys)
            v += self.ma
            rounds = _peel(u, v, total)
            if rounds is None:
                continue
            self.attempts = attempt + 1
            cell = np.zeros(total, dtype=values.dtype)
            for edges, free, other in reversed(rounds):
                cell[free] = cell[other] ^ values[edges]
            self.a, self.b = cell[:self.ma].copy(), cell[self.ma:].copy()
            ends = np.concatenate((u, v))
            self._neighbors = np.concatenate((v, u))[np.argsort(ends, kind="stable")]
            self._offsets = np.zeros(total + 1, dtype=np.int64)
            np.cumsum(np.bincount(ends, minlength=total), out=self._offsets[1:])
            for shared in (self._keys, self._neighbors, self._offsets):
                shared.flags.writeable = False
            return
        raise OthelloBuildError(
            f"no acyclic Othello draw for {len(self._keys)} keys in {max_attempts} attempts "
            f"(ma={self.ma}, mb={self.mb})"
        )

    # ------------------------------------------------------------ lookup
    def lookup(self, key: int) -> int:
        """``A[h_a(k)] ^ B[h_b(k)]`` -- the whole dataplane operation."""
        key &= MASK64
        ha = fmix64(key ^ self._seed_a) & (self.ma - 1)
        hb = fmix64(key ^ self._seed_b) & (self.mb - 1)
        return int(self.a[ha]) ^ int(self.b[hb])

    def lookup_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lookup` over a uint64 array (branch-free),
        walked in L2-sized tiles through two reused scratch arrays."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.empty(len(keys), dtype=self.a.dtype)
        h = np.empty(min(len(keys), _TILE_KEYS), dtype=np.uint64)
        tmp = np.empty_like(h)
        for lo in range(0, len(keys), _TILE_KEYS):
            part = keys[lo:lo + _TILE_KEYS]
            n = len(part)
            self.lookup_into(part, out[lo:lo + n], h[:n], tmp[:n])
        return out

    def lookup_into(self, keys: np.ndarray, out: np.ndarray, h: np.ndarray, tmp: np.ndarray) -> None:
        """:meth:`lookup` of one tile of uint64 ``keys`` written into
        ``out``, through uint64 scratch ``h`` and ``tmp`` of the tile's
        length; ``keys`` is only read."""
        cells = self.a[self._hash_into(keys, self._seed_a, self.ma, h, tmp)]
        np.bitwise_xor(cells, self.b[self._hash_into(keys, self._seed_b, self.mb, h, tmp)], out=out)

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
        return self.update_many([key], [value])

    def update_many(self, keys, values) -> int:
        """:meth:`update` each ``(key, value)`` pair in order; total touched.

        Every key and value is checked before any cell changes.  In a
        forest the key's edge is the only path from its A end to its B
        end, so the walk starts at the A end with the B end marked seen.
        """
        keys = _key_array(keys)
        values = _value_array(values, self.value_bits)
        if len(keys) != len(values):
            raise ValueError("keys and values must pair up")
        rank = np.searchsorted(self._keys, keys)
        member = rank < len(self._keys)
        member[member] = self._keys[rank[member]] == keys[member]
        if not member.all():
            raise KeyError(int(keys[np.argmin(member)]))
        ha, hb = self._probe(keys)
        ma = self.ma
        a, b = memoryview(self.a), memoryview(self.b)
        offsets, neighbors = memoryview(self._offsets), memoryview(self._neighbors)
        touched = 0
        for start, end, value in zip(ha.tolist(), hb.tolist(), values.tolist()):
            delta = a[start] ^ b[end] ^ value
            if not delta:
                continue
            seen = {start, ma + end}
            stack = [start]
            while stack:
                node = stack.pop()
                if node < ma:
                    a[node] ^= delta
                else:
                    b[node - ma] ^= delta
                touched += 1
                for neighbor in neighbors[offsets[node]:offsets[node + 1]]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
        return touched

    def clone(self) -> "Othello":
        """Copy-on-write snapshot: cells copied, read-only graph shared.

        The control plane patches the clone with :meth:`update` calls and
        flips it into the dataplane in one reference assignment, so
        readers only ever see a fully consistent version.
        """
        twin = object.__new__(Othello)
        for name in self.__slots__:
            setattr(twin, name, getattr(self, name))
        twin.a = self.a.copy()
        twin.b = self.b.copy()
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
        """Control-plane view of the stored mapping, in key order."""
        return zip(self._keys.tolist(), self.lookup_batch(self._keys).tolist())
