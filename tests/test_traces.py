"""Trace generation, persistence, and calibration tests."""

import numpy as np
import pytest

from repro.traces import (
    Trace,
    load_trace,
    ny18_like,
    save_trace,
    uni1_like,
    zipf_trace,
)
from tests.test_trace_io import cached_trace


class TestTraceModel:
    def test_basic_shape(self):
        t = Trace("t", np.array([11, 22, 33], dtype=np.uint64),
                  np.array([0, 1, 1, 2, 0], dtype=np.int64))
        assert t.n_flows == 3
        assert t.n_packets == 5
        assert list(t.flow_sizes()) == [2, 2, 1]
        assert t.mean_flow_size() == pytest.approx(5 / 3)

    def test_iter_packets_yields_keys(self):
        t = Trace("t", np.array([11, 22], dtype=np.uint64),
                  np.array([1, 0], dtype=np.int64))
        assert t.flow_keys[t.packets].tolist() == [22, 11]

    def test_size_histogram(self):
        t = Trace("t", np.array([1, 2, 3], dtype=np.uint64),
                  np.array([0, 0, 1, 2], dtype=np.int64))
        assert t.size_histogram() == {1: 2, 2: 1}

    def test_out_of_range_packet_rejected(self):
        with pytest.raises(ValueError):
            Trace("t", np.array([1], dtype=np.uint64), np.array([3], dtype=np.int64))

    def test_empty_flows_rejected(self):
        with pytest.raises(ValueError):
            Trace("t", np.array([], dtype=np.uint64), np.array([], dtype=np.int64))

    def test_describe_mentions_counts(self):
        t = zipf_trace(1.0, n_packets=1000, population=500, seed=1)
        text = t.describe()
        assert "1,000 packets" in text


class TestZipf:
    def test_packet_count_exact(self):
        t = zipf_trace(0.8, n_packets=5000, population=2000, seed=2)
        assert t.n_packets == 5000

    def test_flow_keys_unique(self):
        t = zipf_trace(0.8, n_packets=5000, population=2000, seed=2)
        assert len(set(t.flow_keys.tolist())) == t.n_flows

    def test_higher_skew_fewer_distinct_flows(self):
        low = zipf_trace(0.6, n_packets=30_000, population=20_000, seed=3)
        high = zipf_trace(1.4, n_packets=30_000, population=20_000, seed=3)
        assert high.n_flows < low.n_flows

    def test_higher_skew_bigger_heavy_hitter(self):
        low = zipf_trace(0.6, n_packets=30_000, population=20_000, seed=4)
        high = zipf_trace(1.4, n_packets=30_000, population=20_000, seed=4)
        assert high.flow_sizes().max() > low.flow_sizes().max()

    def test_seeded_determinism(self):
        a = zipf_trace(1.0, n_packets=2000, population=1000, seed=5)
        b = zipf_trace(1.0, n_packets=2000, population=1000, seed=5)
        assert np.array_equal(a.packets, b.packets)
        assert np.array_equal(a.flow_keys, b.flow_keys)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            zipf_trace(-0.5)
        with pytest.raises(ValueError):
            zipf_trace(1.0, n_packets=0)


class TestDatacenterStandins:
    def test_uni1_flow_count_scales(self):
        t = uni1_like(scale=0.01, seed=1)
        assert t.n_flows == 3340

    def test_ny18_flow_count_scales(self):
        t = ny18_like(scale=0.01, seed=1)
        assert t.n_flows == 16_000

    def test_relative_skew_matches_fig6a(self):
        # UNI1: fewer flows, larger mean and larger heavy hitters.
        u = uni1_like(scale=0.01, seed=2)
        n = ny18_like(scale=0.01, seed=2)
        assert u.n_flows < n.n_flows
        assert u.mean_flow_size() > n.mean_flow_size()
        assert u.flow_sizes().max() > n.flow_sizes().max()

    def test_packets_shuffled_not_grouped(self):
        t = uni1_like(scale=0.005, seed=3)
        # A grouped trace would have long runs of equal flow ids; a shuffled
        # one has adjacent-equal probability ~ sum of (share^2).
        adjacent_equal = (t.packets[1:] == t.packets[:-1]).mean()
        assert adjacent_equal < 0.2


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        t = zipf_trace(1.0, n_packets=1500, population=700, seed=6)
        save_trace(t, tmp_path / "trace.npz")
        loaded = load_trace(tmp_path / "trace.npz")
        assert loaded.name == t.name
        assert np.array_equal(loaded.packets, t.packets)
        assert np.array_equal(loaded.flow_keys, t.flow_keys)

    def test_cached_trace_generates_then_reuses(self, tmp_path):
        calls = []

        def factory():
            calls.append(1)
            return zipf_trace(0.7, n_packets=500, population=300, seed=7)

        a = cached_trace(factory, tmp_path, "zipf07")
        b = cached_trace(factory, tmp_path, "zipf07")
        assert len(calls) == 1
        assert np.array_equal(a.packets, b.packets)
