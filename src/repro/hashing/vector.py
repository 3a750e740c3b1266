"""Vectorized (numpy) counterparts of the scalar mixers.

Bit-identical to :mod:`repro.hashing.mix` over uint64 arrays -- the
differential tests assert it -- so table-based CH structures can be built
and updated with array operations instead of per-row Python loops.
numpy's uint64 arithmetic wraps modulo 2^64, matching the masked scalar
code.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MM_M1 = np.uint64(0xFF51AFD7ED558CCD)
_MM_M2 = np.uint64(0xC4CEB9FE1A85EC53)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_S33 = np.uint64(33)
# Cells per weight tile of v_mix2_argmax: tile + scratch (2 x 512 kB) stay
# in L2.  Measured best both at 100 seeds x 30k and at 500 seeds x 150k.
_TILE_CELLS = 1 << 16
# Keys per dataplane tile (Othello probes, the Concury kernel): three
# uint64 scratch arrays (3 x 128 kB) plus the tile's gathers stay in L2.
# 16k and 32k replay level, 8k 1-6 % slower (sweep in docs/ALGORITHMS.md).
_TILE_KEYS = 1 << 14


def _fmix64_into(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The finalizer in place on ``x``, through same-shape scratch ``tmp``."""
    for mult in (_MM_M1, _MM_M2):
        np.right_shift(x, _S33, out=tmp)
        x ^= tmp
        x *= mult
    np.right_shift(x, _S33, out=tmp)
    x ^= tmp
    return x


def _splitmix64_into(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 in place on ``x``, through same-shape scratch ``tmp``."""
    x += _SM_GAMMA
    for shift, mult in ((30, _SM_M1), (27, _SM_M2)):
        np.right_shift(x, np.uint64(shift), out=tmp)
        x ^= tmp
        x *= mult
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp
    return x


def v_fmix64(x: np.ndarray) -> np.ndarray:
    """MurmurHash3 finalizer over a uint64 array (new array returned)."""
    x = x.astype(np.uint64, copy=True)
    return _fmix64_into(x, np.empty_like(x))


def v_mix2(a: int, b: np.ndarray) -> np.ndarray:
    """``mix2(a, b_i)`` for scalar ``a`` against an array ``b``."""
    # Pre-wrap the scalar product in Python ints; numpy warns on scalar
    # uint64 overflow even though the wraparound is exactly what we want.
    seed_term = np.uint64((a * 0x9E3779B97F4A7C15) & 0xFFFF_FFFF_FFFF_FFFF)
    return v_fmix64(seed_term + b.astype(np.uint64, copy=False))


def v_mix2_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``mix2(a_i, b_j)`` as an (len(a), len(b)) matrix."""
    a = a.astype(np.uint64, copy=False)
    b = b.astype(np.uint64, copy=False)
    return v_fmix64(a[:, None] * _SM_GAMMA + b[None, :])


def v_mix2_argmax(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per ``b_j`` the HRW winner among the (non-empty) seeds ``a``:
    ``(argmax_i, max_i)`` of ``mix2(a_i, b_j)``, ties to the lowest ``i``.

    The ``len(a) x len(b)`` weight matrix never exists: ``b`` is walked in
    blocks through one reused tile, laid out (block, len(a)) so the
    reductions run along the contiguous axis.
    """
    a_term = a.astype(np.uint64, copy=False) * _SM_GAMMA
    b = b.astype(np.uint64, copy=False)
    block = max(1, _TILE_CELLS // len(a))
    tile = np.empty((min(block, len(b)), len(a)), dtype=np.uint64)
    tmp = np.empty_like(tile)
    arg = np.empty(len(b), dtype=np.intp)
    top = np.empty(len(b), dtype=np.uint64)
    for lo in range(0, len(b), block):
        part = b[lo:lo + block]
        x = np.add(part[:, None], a_term[None, :], out=tile[:len(part)])
        _fmix64_into(x, tmp[:len(part)])
        won = x.argmax(axis=1, out=arg[lo:lo + block])
        top[lo:lo + block] = np.take_along_axis(x, won[:, None], axis=1)[:, 0]
    return arg, top


def v_splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 over a uint64 array."""
    x = x.astype(np.uint64, copy=True)
    return _splitmix64_into(x, np.empty_like(x))


def v_remainder(x: np.ndarray, m: int) -> np.ndarray:
    """``x % m`` for a uint64 array and a scalar ``0 < m < 2**63``, as intp.

    Computed as ``x - (x // m) * m`` in place on the quotient: numpy runs
    uint64 ``//`` by a scalar as a multiply-shift, ~3x faster than ``%``,
    and the result is exact because ``(x // m) * m <= x``.  ``x`` itself
    is only read.
    """
    m = np.uint64(m)
    q = np.floor_divide(x, m)
    q *= m
    np.subtract(x, q, out=q)
    return q.view(np.intp)
