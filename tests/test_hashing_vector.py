"""Differential tests: vectorized mixers must equal the scalar ones bit-for-bit."""

import numpy as np

from repro.hashing.mix import fmix64, mix2, splitmix64
from repro.hashing.vector import (
    v_fmix64,
    v_mix2,
    v_mix2_argmax,
    v_mix2_outer,
    v_splitmix64,
)


def _random_uint64(n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


class TestVectorScalarEquivalence:
    def test_v_fmix64_matches_scalar(self):
        xs = _random_uint64(500, 1)
        out = v_fmix64(xs)
        for x, o in zip(xs.tolist(), out.tolist()):
            assert o == fmix64(x)

    def test_v_fmix64_does_not_mutate_input(self):
        xs = _random_uint64(10, 2)
        copy = xs.copy()
        v_fmix64(xs)
        assert np.array_equal(xs, copy)

    def test_v_mix2_matches_scalar(self):
        bs = _random_uint64(300, 3)
        for a in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
            out = v_mix2(a, bs)
            for b, o in zip(bs.tolist(), out.tolist()):
                assert o == mix2(a, b)

    def test_v_mix2_outer_matches_scalar(self):
        a = _random_uint64(7, 4)
        b = _random_uint64(11, 5)
        out = v_mix2_outer(a, b)
        for i, ai in enumerate(a.tolist()):
            for j, bj in enumerate(b.tolist()):
                assert out[i, j] == mix2(ai, bj)

    def test_v_mix2_argmax_matches_outer(self, monkeypatch):
        # 7 seeds under a 20-cell budget: 2-row blocks, 11 = 5 blocks + tail.
        monkeypatch.setattr("repro.hashing.vector._TILE_CELLS", 20)
        a = _random_uint64(7, 4)
        b = _random_uint64(11, 5)
        full = v_mix2_outer(a, b)
        arg, top = v_mix2_argmax(a, b)
        assert np.array_equal(arg, full.argmax(axis=0))
        assert np.array_equal(top, full.max(axis=0))
        arg, top = v_mix2_argmax(a, b[:0])
        assert arg.shape == top.shape == (0,)

    def test_v_splitmix64_matches_scalar(self):
        xs = _random_uint64(300, 6)
        out = v_splitmix64(xs)
        for x, o in zip(xs.tolist(), out.tolist()):
            assert o == splitmix64(x)

    def test_empty_arrays(self):
        empty = np.array([], dtype=np.uint64)
        assert v_fmix64(empty).shape == (0,)
        assert v_mix2(5, empty).shape == (0,)
        assert v_splitmix64(empty).shape == (0,)
