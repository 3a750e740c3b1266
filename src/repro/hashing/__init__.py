"""Deterministic 64-bit hashing primitives used throughout the reproduction.

Every randomized decision in the library (rendezvous weights, ring positions,
Maglev permutations, AnchorHash jumps, workload generation seeds) is derived
from the mixers in this package, so that simulations are fully reproducible
across processes and platforms -- unlike Python's builtin ``hash`` which is
salted per process.

The public surface:

- :func:`splitmix64` -- fast single-round mixer (Steele et al.).
- :func:`fmix64` -- MurmurHash3 finalizer; high-quality avalanche.
- :func:`mix2` -- combine two 64-bit values.
- :func:`xxhash64` -- full xxHash64 over bytes (reference-compatible).
- :func:`fnv1a64` -- FNV-1a over bytes (simple, good for short names).
- :func:`hash_str` / :func:`hash_int` -- convenience entry points.
- :class:`KeyedHasher` -- per-(server, key) rendezvous weights with a
  precomputed server seed, the hot path of HRW-style lookups.
"""

from repro.hashing.mix import MASK64, fmix64, mix2, splitmix64
from repro.hashing.xxh import xxhash64
from repro.hashing.fnv import fnv1a64
from repro.hashing.keyed import KeyedHasher, hash_int, hash_str, server_seed

__all__ = [
    "MASK64",
    "splitmix64",
    "fmix64",
    "mix2",
    "xxhash64",
    "fnv1a64",
    "KeyedHasher",
    "hash_str",
    "hash_int",
    "server_seed",
]
