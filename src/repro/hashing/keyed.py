"""Keyed hashing: per-(server, key) rendezvous weights.

HRW-style consistent hashing ranks servers by ``hash(server, key)``.  The
hot path computes one such weight per server per lookup, so this module is
written for minimal per-call overhead: each server gets a precomputed
64-bit *seed* (derived from its name once), and the per-key weight is a
single multiply-xor mix of ``(seed, key_hash)``.
"""

from __future__ import annotations

from typing import Union

from repro.hashing.fnv import fnv1a64
from repro.hashing.mix import MASK64, fmix64, mix2
from repro.hashing.xxh import xxhash64

Key = Union[int, str, bytes, tuple]


def hash_str(s: str, seed: int = 0) -> int:
    """Hash a string to 64 bits via xxHash64 of its UTF-8 encoding."""
    return xxhash64(s.encode("utf-8"), seed)


def hash_int(x: int, seed: int = 0) -> int:
    """Hash an integer to 64 bits (one finalizer round over seed-mixed input)."""
    return fmix64((x ^ (seed * 0x9E3779B97F4A7C15)) & MASK64)


def hash_key(key: Key, seed: int = 0) -> int:
    """Hash an arbitrary connection identifier to 64 bits.

    Accepts the identifier forms used across the library: raw 64-bit ints
    (the fast path, used by simulators and traces), strings, bytes, and
    tuples such as TCP 5-tuples.
    """
    if isinstance(key, int):
        return hash_int(key, seed)
    if isinstance(key, str):
        return hash_str(key, seed)
    if isinstance(key, bytes):
        return xxhash64(key, seed)
    if isinstance(key, tuple):
        h = seed ^ 0x27D4EB2F165667C5
        for part in key:
            h = mix2(h, hash_key(part))
        return h
    raise TypeError(f"unhashable connection identifier type: {type(key)!r}")


def server_seed(name: Key) -> int:
    """Derive a server's 64-bit seed from its name (computed once per server)."""
    if isinstance(name, str):
        return fmix64(fnv1a64(name.encode("utf-8")))
    return hash_key(name)


class KeyedHasher:
    """Rendezvous-weight calculator for one server.

    Instances precompute the server seed so the per-key weight is one
    :func:`mix2` call.  Two servers with different names produce
    independent weight streams; the same server name always produces the
    same stream (deterministic across processes).
    """

    __slots__ = ("name", "seed")

    def __init__(self, name: Key):
        self.name = name
        self.seed = server_seed(name)

    def weight(self, key_hash: int) -> int:
        """Weight of this server for a pre-hashed key (64-bit int)."""
        return mix2(self.seed, key_hash)
