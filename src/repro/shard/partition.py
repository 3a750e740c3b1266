"""RSS-style keyspace partitioning and per-shard seed derivation.

The front stage of the sharded dataplane: a flow's shard is a pure
function of its 64-bit connection key and the shard count -- nothing
else.  That is the receive-side-scaling contract: adding or removing
*worker processes* never moves a flow between shards (workers are
assigned whole shards), so per-shard CT state stays consistent without
any cross-shard coordination, exactly the property JET's per-connection
consistency argument needs.

Two deliberate choices:

- ``splitmix64`` over the raw key, salted.  Every CH family already
  mixes the same key (HRW via ``mix2``, table via ``fmix64``...); the
  salt decorrelates the shard selector from all of them, so the flows
  landing in one shard are an unbiased sample of the keyspace and each
  shard sees the same Zipf shape as the whole trace.
- Per-shard RNG seeds come from the splitmix64 *stream* seeded at the
  master seed (:func:`shard_seed`): shard ``i`` gets the ``i``-th output.
  Seeds depend on ``(master seed, shard id)`` only -- never on worker
  count or scheduling order -- which is what makes merged results
  byte-stable however the shards are spread over processes.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.mix import MASK64, splitmix64
from repro.hashing.vector import v_remainder, v_splitmix64

#: Salt XORed into keys before the shard mix, so the shard selector is
#: independent of every CH family's own use of the same key bits.
SHARD_SALT = 0x5245505F53484152  # "REP_SHAR"

#: The splitmix64 golden-gamma stream increment (Steele, Lea, Flood 2014);
#: restated here because :mod:`repro.hashing.mix` keeps its copy private.
_GAMMA = 0x9E3779B97F4A7C15


def shard_of_key(key: int, n_shards: int) -> int:
    """Shard id of one flow key -- the scalar spec of :func:`shard_of_keys`."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if n_shards == 1:
        return 0
    return splitmix64((key ^ SHARD_SALT) & MASK64) % n_shards


def shard_of_keys(keys: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard id per flow key (int32 array), vectorized.

    Bit-identical to :func:`shard_of_key` element by element: both run one
    salted splitmix64 round and reduce modulo ``n_shards``.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    if n_shards == 1:
        return np.zeros(len(keys), dtype=np.int32)
    mixed = v_splitmix64(keys ^ np.uint64(SHARD_SALT))
    return v_remainder(mixed, n_shards).astype(np.int32)


def shard_seed(master_seed: int, shard_id: int) -> int:
    """The ``shard_id``-th output of the splitmix64 stream at ``master_seed``.

    A pure function of ``(master seed, shard id)``: every RNG a shard owns
    (bounded-CT random eviction, a shard's workload stream in the sharded
    simulator) is seeded from this, so results cannot depend on how many
    worker processes ran the shards or in what order.
    """
    if shard_id < 0:
        raise ValueError("shard_id must be >= 0")
    return splitmix64((master_seed + shard_id * _GAMMA) & MASK64)
