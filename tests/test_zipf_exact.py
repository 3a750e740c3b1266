"""The Zipf generator's exact inverse-CDF sampler and counting compaction.

``traces.zipf._inverse_cdf`` must return ``cdf.searchsorted(u, side)``
draw for draw, and ``zipf_trace`` must equal the weighted
``Generator.choice`` + sorting-unique construction it replaced, which is
kept here (:func:`reference_zipf`) as the executable spec.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.mix import splitmix64
from repro.traces import zipf_trace
from repro.traces.zipf import (
    _BLOCK,
    _COARSE_BITS,
    _cut_points,
    _inverse_cdf,
    _unique_keys,
)

SIDES = ("left", "right")


def reference_zipf(skew, n_packets, population, seed):
    """``zipf_trace``'s arrays, built with choice and np.unique."""
    rng = np.random.default_rng(splitmix64(seed ^ 0x21F0_AAAD) & 0x7FFF_FFFF)
    weights = np.arange(1, population + 1, dtype=np.float64) ** (-skew)
    draws = rng.choice(population, size=n_packets, p=weights / weights.sum())
    distinct, packets = np.unique(draws, return_inverse=True)
    keys = _unique_keys(len(distinct), seed=splitmix64(seed ^ 0x51AF_E234))
    return keys, packets.astype(np.int64)


def zipf_cdf(skew, population):
    cdf = np.cumsum(np.arange(1, population + 1, dtype=np.float64) ** (-skew))
    return cdf / cdf[-1]


class FixedDraws:
    """A stand-in generator whose ``random`` hands out given uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.taken = 0

    def random(self, size):
        out = self.values[self.taken:self.taken + size]
        self.taken += size
        return out


def edge_draws(buckets):
    """Bucket edges j / buckets (a sample of a large table's) and both
    float neighbours of each."""
    edges = np.arange(0, buckets + 1, 1 + buckets // 2048, dtype=np.float64)
    edges = np.concatenate([edges, [buckets]]) / buckets
    draws = np.concatenate(
        [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)]
    )
    return draws[(draws >= 0.0) & (draws < 1.0)]


CDFS = {
    "zipf-0.6": zipf_cdf(0.6, 200_000),
    "zipf-1.0": zipf_cdf(1.0, 5_000),
    "zipf-1.4": zipf_cdf(1.4, 300_000),
    # Skew 40 underflows: every rank past the first few adds nothing, so
    # the CDF ends in a long flat run of 1.0s.
    "flat-tail": zipf_cdf(40.0, 1_000),
    "population-1": zipf_cdf(1.0, 1),
    # Values on the bucket edges themselves: left and right part here.
    "on-edges": np.arange(1, 4097, dtype=np.float64) / 4096,
    "repeated-edges": np.repeat(np.arange(1, 65, dtype=np.float64) / 64, 3),
}


class TestInverseCdf:
    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("name", sorted(CDFS))
    @pytest.mark.parametrize("bits", [4, 11, _COARSE_BITS])
    def test_bucket_edges_and_neighbours(self, name, side, bits):
        cdf = CDFS[name]
        cuts = _cut_points(cdf, side, 1 << bits)
        assert len(cuts) == (1 << bits) + 1
        draws = edge_draws(1 << bits)
        got = _inverse_cdf(
            cdf, FixedDraws(draws), np.empty(len(draws), np.int64), side, cuts
        )
        assert np.array_equal(got, cdf.searchsorted(draws, side))

    def test_table_never_exceeds_the_draws(self):
        cdf = CDFS["zipf-1.0"]
        assert len(_cut_points(cdf, "right", 1)) == 2
        assert len(_cut_points(cdf, "right", 100)) == 129
        assert len(_cut_points(cdf, "right", 128)) == 129
        assert len(_cut_points(cdf, "right", 10**9)) == (1 << _COARSE_BITS) + 1

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_block_boundaries(self, n, side):
        for name in ("zipf-1.0", "flat-tail", "population-1"):
            cdf = CDFS[name]
            got = _inverse_cdf(
                cdf, np.random.default_rng(n), np.empty(n, np.int64), side
            )
            expected = cdf.searchsorted(np.random.default_rng(n).random(n), side)
            assert np.array_equal(got, expected), name

    def test_stream_position_matches_one_call(self):
        # The generator is left where a single rng.random(n) leaves it.
        rng = np.random.default_rng(3)
        _inverse_cdf(CDFS["zipf-0.6"], rng, np.empty(2 * _BLOCK + 7, np.int64), "right")
        reference = np.random.default_rng(3)
        reference.random(2 * _BLOCK + 7)
        assert rng.random() == reference.random()


class TestZipfTraceIsChoice:
    @settings(max_examples=60, deadline=None)
    @given(
        skew=st.one_of(st.floats(0.0, 3.0), st.just(40.0)),
        n_packets=st.integers(1, 50_000),
        population=st.integers(1, 50_000),
        seed=st.integers(0, 2**31),
    )
    def test_equals_choice_and_unique(self, skew, n_packets, population, seed):
        trace = zipf_trace(skew, n_packets, population, seed=seed)
        keys, packets = reference_zipf(skew, n_packets, population, seed)
        assert np.array_equal(trace.flow_keys, keys)
        assert trace.packets.dtype == packets.dtype
        assert np.array_equal(trace.packets, packets)

    @pytest.mark.parametrize("skew", [0.6, 1.0, 1.4])
    def test_paper_skews_past_one_block(self, skew):
        trace = zipf_trace(skew, 5 * _BLOCK + 3, 300_000, seed=11)
        keys, packets = reference_zipf(skew, 5 * _BLOCK + 3, 300_000, 11)
        assert np.array_equal(trace.flow_keys, keys)
        assert np.array_equal(trace.packets, packets)

    def test_nan_skew_rejected_like_choice(self):
        with pytest.raises(ValueError):
            reference_zipf(float("nan"), 10, 10, 0)
        with pytest.raises(ValueError):
            zipf_trace(float("nan"), 10, 10)


def test_peak_memory_within_three_outputs():
    tracemalloc.start()
    try:
        trace = zipf_trace(1.0, 10**6, 5 * 10**5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (trace.flow_keys.nbytes + trace.packets.nbytes)
