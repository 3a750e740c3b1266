"""Differential tests: vectorized mixers must equal the scalar ones bit-for-bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.mix import MASK64, fmix64, mix2, splitmix64
from repro.hashing.vector import (
    _fmix64_into,
    _splitmix64_into,
    v_fmix64,
    v_mix2,
    v_mix2_argmax,
    v_mix2_outer,
    v_remainder,
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

    def test_in_place_mixers_match_scalar(self):
        for into, scalar in ((_fmix64_into, fmix64), (_splitmix64_into, splitmix64)):
            xs = _random_uint64(300, 7)
            expected = [scalar(x) for x in xs.tolist()]
            out = into(xs, np.empty_like(xs))
            assert out is xs
            assert xs.tolist() == expected


MODULI = [1, 2, 4099, 30_000, 65_537, 2**32 + 15]


class TestRemainder:
    @pytest.mark.parametrize("m", MODULI)
    def test_edges_match_modulo(self, m):
        xs = np.array(
            [0, m - 1, m, m + 1, 2 * m, 7 * m, MASK64, MASK64 - 1, (MASK64 // m) * m],
            dtype=np.uint64,
        )
        copy = xs.copy()
        got = v_remainder(xs, m)
        assert got.dtype == np.intp
        assert got.tolist() == [x % m for x in xs.tolist()]
        assert np.array_equal(xs, copy)

    @given(m=st.sampled_from(MODULI), xs=st.lists(st.integers(0, MASK64), max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_matches_modulo(self, m, xs):
        got = v_remainder(np.array(xs, dtype=np.uint64), m)
        assert got.tolist() == [x % m for x in xs]

    def test_read_only_input(self):
        xs = _random_uint64(100, 8)
        xs.setflags(write=False)
        assert v_remainder(xs, 4099).tolist() == [x % 4099 for x in xs.tolist()]
