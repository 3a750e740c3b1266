"""Differential tests for the ring's in-place maintenance: a ``RingHash``
driven through an event sequence equals a ``RingHash`` freshly built on
the resulting (W, H) -- scalar, batch kernel and union ring."""

import random

import numpy as np
import pytest

from repro.ch.base import BackendError
from repro.ch.properties import sample_keys
from repro.ch.ring import RingHash

W = [f"w{i}" for i in range(8)]
H = [f"h{i}" for i in range(3)]
KEYS = sample_keys(800, seed=31)


def driven(working=W, horizon=H, virtual_nodes=20):
    """A ring whose merged arrays are built, so the next event edits them
    in place instead of leaving the change to the lazy full rebuild."""
    ch = RingHash(working, horizon, virtual_nodes=virtual_nodes)
    if ch.working:
        ch.lookup(0)
    return ch


def fresh_like(ch):
    return RingHash(
        sorted(ch.working, key=str), sorted(ch.horizon, key=str),
        virtual_nodes=ch.virtual_nodes, weights=ch.weights,
    )


def assert_equivalent(ch, keys=KEYS):
    """Compare against a fresh ring built from the same sets."""
    reference = fresh_like(ch)
    for k in keys:
        assert ch.lookup_with_safety(k) == reference.lookup_with_safety(k)
        assert ch.lookup_union(k) == reference.lookup_union(k)
    batch = np.array(keys, dtype=np.uint64)
    idx, unsafe = ch.lookup_with_safety_batch_idx(batch)
    ref_idx, ref_unsafe = reference.lookup_with_safety_batch_idx(batch)
    assert list(ch.backend_table()[idx]) == list(reference.backend_table()[ref_idx])
    assert unsafe.tolist() == ref_unsafe.tolist()


def random_event(ch, rng, tag):
    """One remove / re-add / announce / retire; may empty the working set."""
    working = sorted(ch.working, key=str)
    horizon = sorted(ch.horizon, key=str)
    op = rng.random()
    if op < 0.3 and horizon:
        ch.add_working(rng.choice(horizon))
    elif op < 0.6 and working:
        ch.remove_working(rng.choice(working))
    elif op < 0.8:
        ch.add_horizon(tag)
    elif horizon:
        ch.remove_horizon(rng.choice(horizon))


class TestFreshEquivalence:
    def test_initial_state_matches_rebuild(self):
        assert_equivalent(driven())

    def test_no_horizon(self):
        assert_equivalent(driven(W, []))


class TestSingleOps:
    def test_add_working(self):
        ch = driven()
        ch.add_working("h0")
        assert_equivalent(ch)

    def test_remove_working(self):
        ch = driven()
        ch.remove_working("w3")
        assert_equivalent(ch)

    def test_add_horizon(self):
        ch = driven()
        ch.add_horizon("fresh")
        assert_equivalent(ch)

    def test_remove_horizon(self):
        ch = driven()
        ch.remove_horizon("h1")
        assert_equivalent(ch)

    def test_remove_then_readd(self):
        ch = driven()
        before = [ch.lookup(k) for k in KEYS]
        ch.remove_working("w5")
        ch.add_working("w5")
        assert [ch.lookup(k) for k in KEYS] == before

    def test_error_paths(self):
        ch = driven()
        with pytest.raises(BackendError):
            ch.add_working("nope")
        with pytest.raises(BackendError):
            ch.remove_working("h0")
        with pytest.raises(BackendError):
            ch.add_horizon("w0")
        with pytest.raises(BackendError):
            ch.remove_horizon("w0")
        assert_equivalent(ch, KEYS[:100])  # a refused event edits nothing


class TestChurnEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_sequences_stay_equivalent(self, seed):
        # 50 sequences per id (200 in all), each from a small ring so the
        # empty-working-set transition and the recovery from it occur.
        for sequence in range(50):
            rng = random.Random(1000 * seed + sequence)
            ch = driven(W[: rng.randint(1, 4)], H[: rng.randint(0, 3)], virtual_nodes=6)
            for step in range(12):
                random_event(ch, rng, f"s{step}")
                if ch.working:
                    assert_equivalent(ch, KEYS[:40])
                else:
                    with pytest.raises(BackendError):
                        ch.lookup(1)

    def test_empty_working_recovery(self):
        ch = driven(["only"], ["h0"], virtual_nodes=10)
        ch.remove_working("only")
        with pytest.raises(BackendError):
            ch.lookup(1)
        ch.add_horizon("h1")  # events on an empty working set wait ...
        ch.add_working("only")  # ... for the full rebuild this one triggers
        assert_equivalent(ch, KEYS[:100])

    def test_weighted_ring_sequence(self):
        # The mutators reach the weighted ring through ``_placement``:
        # servers own different vnode counts.
        weights = {"b": 3.0, "c": 0.5, "x": 2.0}
        weights.update({f"n{step}": (0.5, 1.0, 2.5)[step % 3] for step in range(30)})
        ch = RingHash(["a", "b", "c"], ["x"], virtual_nodes=8, weights=weights)
        ch.lookup(0)
        rng = random.Random(9)
        for step in range(30):
            if rng.random() < 0.2:
                ch.add_horizon(f"n{step}")
            else:
                random_event(ch, rng, f"u{step}")
            if ch.working:
                assert_equivalent(ch, KEYS[:60])


class TestJETContractHolds:
    def test_safety_flag_vs_union(self):
        ch = driven()
        ch.remove_working("w0")
        ch.add_working("h2")
        for k in KEYS:
            destination, unsafe = ch.lookup_with_safety(k)
            assert destination in ch.working
            assert unsafe == (destination != ch.lookup_union(k))
