"""Property-based differential tests for the columnar lookup path.

For every registered CH family (the paper's four JET families, HRW with
capacities and the jump/modulo extensions), under random
working/horizon sets and random key batches -- including the empty batch
and single-key batches -- the vectorized ``lookup_batch_idx`` /
``lookup_with_safety_batch_idx``, decoded through ``backend_table()``,
must agree with the scalar reference, key for key, before and after
backend churn.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ch import (
    EXTENSION_FAMILIES,
    JET_FAMILIES,
    AnchorHash,
    HRWHash,
    MaglevHash,
    RingHash,
    TableHRWHash,
    hrw,
)
from repro.hashing.mix import MASK64
from repro.hashing.vector import v_mix2_outer
from repro.traces.replay import DEFAULT_CHUNK
from tests.conftest import churned_ring

keys64 = st.integers(min_value=0, max_value=MASK64)

#: "ring-incremental" and "hrw-weighted" are test-local, not registered
#: families: the ring with its arrays edited in place
#: (``conftest.churned_ring``), and HRW ranking by capacity score.
ALL_FAMILIES = sorted([*JET_FAMILIES, "ring-incremental", "hrw-weighted"]) + sorted(
    EXTENSION_FAMILIES
)
#: Capacities of "hrw-weighted": working and horizon names of both kinds.
CAPACITIES = {"w0": 3.0, "w2": 0.5, "w5": 1.75, "h0": 2.0, "h2": 0.25}


def build(family, working, horizon):
    """Small-parameter CH instance so hypothesis examples stay fast."""
    if family == "hrw-weighted":
        return HRWHash(working, horizon, weights=CAPACITIES)
    if family == "concury":
        from repro.ch import ConcuryHash

        return ConcuryHash(working, horizon, inner="table", flowsets=128, rows=127)
    if family == "ring":
        return RingHash(working, horizon, virtual_nodes=8)
    if family == "ring-incremental":
        return churned_ring(working, horizon, virtual_nodes=8)
    if family == "table":
        return TableHRWHash(working, horizon, rows=127)
    if family == "anchor":
        return AnchorHash(
            working, horizon, capacity=2 * (len(working) + len(horizon)) + 4
        )
    cls = JET_FAMILIES.get(family) or EXTENSION_FAMILIES[family]
    return cls(working=working, horizon=horizon)


def assert_batch_equals_scalar(ch, key_sample):
    """The safety kernel against the ``lookup_with_safety`` loop."""
    keys = np.array(key_sample, dtype=np.uint64)
    idx, unsafe = ch.lookup_with_safety_batch_idx(keys)
    assert idx.dtype == np.int32
    assert len(idx) == len(key_sample)
    assert len(unsafe) == len(key_sample)
    expected = [ch.lookup_with_safety(k) for k in key_sample]
    assert list(ch.backend_table()[idx]) == [d for d, _ in expected]
    assert unsafe.tolist() == [u for _, u in expected]


def assert_idx_equals_scalar(ch, key_sample):
    """``lookup_batch_idx`` (the destination column of the same kernel,
    and all Maglev has) against the ``lookup`` loop; plain-int lists are
    accepted like arrays."""
    idx = ch.lookup_batch_idx(np.array(key_sample, dtype=np.uint64))
    assert idx.dtype == np.int32
    assert list(ch.backend_table()[idx]) == [ch.lookup(k) for k in key_sample]
    assert ch.lookup_batch_idx(key_sample).tolist() == idx.tolist()


class TestBatchEqualsScalarEverywhere:
    @given(
        family=st.sampled_from(ALL_FAMILIES),
        n_working=st.integers(min_value=1, max_value=10),
        n_horizon=st.integers(min_value=0, max_value=4),
        key_sample=st.lists(keys64, min_size=0, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_fresh_instance(self, family, n_working, n_horizon, key_sample):
        working = [f"w{i}" for i in range(n_working)]
        horizon = [f"h{i}" for i in range(n_horizon)]
        ch = build(family, working, horizon)
        assert_batch_equals_scalar(ch, key_sample)

    @given(
        family=st.sampled_from(ALL_FAMILIES),
        n_working=st.integers(min_value=2, max_value=10),
        n_horizon=st.integers(min_value=1, max_value=4),
        key_sample=st.lists(keys64, min_size=0, max_size=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_after_churn(self, family, n_working, n_horizon, key_sample):
        working = [f"w{i}" for i in range(n_working)]
        horizon = [f"h{i}" for i in range(n_horizon)]
        ch = build(family, working, horizon)
        # Jump's horizon is a stack: the server that just left the working
        # set is the only admissible one; other families admit any member.
        victim = working[-1]
        admit = victim if family == "jump" else horizon[0]
        ch.remove_working(victim)
        assert_batch_equals_scalar(ch, key_sample)
        ch.add_working(admit)
        assert_batch_equals_scalar(ch, key_sample)

    @given(family=st.sampled_from(ALL_FAMILIES), key=keys64)
    @settings(max_examples=25, deadline=None)
    def test_single_key_batch(self, family, key):
        ch = build(family, ["w0", "w1", "w2"], ["h0"])
        assert_batch_equals_scalar(ch, [key])


class TestWeightedHRWExactPath:
    """With the recheck bound at infinity every key of the weighted kernel
    is decided by the scalar score, and must still agree."""

    @given(
        n_working=st.integers(min_value=1, max_value=8),
        n_horizon=st.integers(min_value=0, max_value=3),
        key_sample=st.lists(keys64, min_size=0, max_size=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_fresh_instance(self, n_working, n_horizon, key_sample):
        ch = build("hrw-weighted", [f"w{i}" for i in range(n_working)],
                   [f"h{i}" for i in range(n_horizon)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hrw, "_RECHECK", math.inf)
            assert_batch_equals_scalar(ch, key_sample)


class TestIndexKernelProperties:
    """The plain entry point under the same randomization: for every
    family, ``backend_table()[lookup_batch_idx(keys)]`` must equal the
    ``lookup`` loop under random membership, random key batches, and
    churn."""

    @given(
        family=st.sampled_from(ALL_FAMILIES),
        n_working=st.integers(min_value=1, max_value=10),
        n_horizon=st.integers(min_value=0, max_value=4),
        key_sample=st.lists(keys64, min_size=0, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_fresh_instance(self, family, n_working, n_horizon, key_sample):
        working = [f"w{i}" for i in range(n_working)]
        horizon = [f"h{i}" for i in range(n_horizon)]
        assert_idx_equals_scalar(build(family, working, horizon), key_sample)

    @given(
        family=st.sampled_from(ALL_FAMILIES),
        n_working=st.integers(min_value=2, max_value=10),
        n_horizon=st.integers(min_value=1, max_value=4),
        key_sample=st.lists(keys64, min_size=0, max_size=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_after_churn(self, family, n_working, n_horizon, key_sample):
        working = [f"w{i}" for i in range(n_working)]
        horizon = [f"h{i}" for i in range(n_horizon)]
        ch = build(family, working, horizon)
        victim = working[-1]
        admit = victim if family == "jump" else horizon[0]
        ch.remove_working(victim)
        assert_idx_equals_scalar(ch, key_sample)
        ch.add_working(admit)
        assert_idx_equals_scalar(ch, key_sample)

    @given(
        n_working=st.integers(min_value=1, max_value=10),
        key_sample=st.lists(keys64, min_size=0, max_size=40),
        churn=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_maglev_idx_equals_names(self, n_working, key_sample, churn):
        ch = MaglevHash([f"w{i}" for i in range(n_working)], table_size=251)
        if churn:
            ch.add("fresh")
            ch.remove("w0")
        assert_idx_equals_scalar(ch, key_sample)


class TestMaglevBatchProperties:
    """Maglev's table is rebuilt wholesale on every change: a kernel
    warmed before the churn must serve the new table after it."""

    @given(
        n_working=st.integers(min_value=2, max_value=10),
        key_sample=st.lists(keys64, min_size=1, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_scalar(self, n_working, key_sample):
        ch = MaglevHash([f"w{i}" for i in range(n_working)], table_size=251)
        before = ch.backend_table()
        assert_idx_equals_scalar(ch, key_sample)
        ch.remove("w0")
        assert ch.backend_table() is not before
        assert_idx_equals_scalar(ch, key_sample)


class TestRingBoundaryKeys:
    """Keys drawn from the materialized vnode positions themselves: the
    searchsorted(side="right") boundary must agree with bisect_right."""

    @given(
        variant=st.sampled_from(["ring", "ring-incremental"]),
        n_working=st.integers(min_value=1, max_value=8),
        n_horizon=st.integers(min_value=0, max_value=3),
        picks=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=25),
        offset=st.sampled_from([0, 1, MASK64]),  # on, just after, just before
    )
    @settings(max_examples=40, deadline=None)
    def test_vnode_position_keys(self, variant, n_working, n_horizon, picks, offset):
        ch = build(variant, [f"w{i}" for i in range(n_working)],
                   [f"h{i}" for i in range(n_horizon)])
        ch.lookup(0)  # force the initial rebuild
        positions = ch._positions
        key_sample = [
            (positions[p % len(positions)] + offset) & MASK64 for p in picks
        ]
        assert_batch_equals_scalar(ch, key_sample)


class TestHRWKernelMemory:
    """Unweighted HRW walks the keys in tiles: one ``DEFAULT_CHUNK`` call
    over 100 + 10 servers stays under a fixed traced peak, where the
    servers x keys weight matrices it replaced took ~200 MiB, and it
    answers bit for bit as those matrices do."""

    PEAK_BYTES = 16 << 20

    @staticmethod
    def matrix_form(ch, keys):
        """The servers x keys form, kept here as the spec: one weight
        matrix per side, argmax over the seed-sorted rows."""
        w_seeds, _ = ch._working_matrix()
        h_seeds, _ = ch._horizon_matrix()
        weights = v_mix2_outer(w_seeds, keys)
        winner = weights.argmax(axis=0)
        best = weights.max(axis=0)
        h_weights = v_mix2_outer(h_seeds, keys)
        challenger = h_weights.argmax(axis=0)
        h_best = h_weights.max(axis=0)
        unsafe = (h_best > best) | (
            (h_best == best) & (h_seeds[challenger] > w_seeds[winner])
        )
        return winner.astype(np.int32), unsafe

    def test_one_chunk_peak_and_bits(self):
        ch = HRWHash([f"s{i}" for i in range(100)], [f"h{i}" for i in range(10)])
        keys = np.random.default_rng(7).integers(
            0, MASK64, DEFAULT_CHUNK, dtype=np.uint64, endpoint=True
        )
        ch.lookup_with_safety_batch_idx(keys[:1])  # the seed arrays, once
        tracemalloc.start()
        try:
            idx, unsafe = ch.lookup_with_safety_batch_idx(keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_BYTES, peak
        assert 0 < unsafe.sum() < len(keys)
        # The spec in blocks, so the check itself stays small.
        for lo in range(0, len(keys), 8_192):
            want_idx, want_unsafe = self.matrix_form(ch, keys[lo:lo + 8_192])
            assert np.array_equal(idx[lo:lo + 8_192], want_idx)
            assert np.array_equal(unsafe[lo:lo + 8_192], want_unsafe)
