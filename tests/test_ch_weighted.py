"""Weighted CH tests: proportional balance + JET compatibility.

``HRWHash`` and ``RingHash`` take ``weights={name: capacity}``.  HRW's
winner shares and tracked fraction are binomial draws, so they are held
to the same 4σ band the invariant checker uses
(``tracked_fraction_band``); Ring's vnode arcs are not binomial and keep
a looser check.
"""

import numpy as np
import pytest

from repro.analysis import tracked_fraction_band
from repro.ch import hrw
from repro.ch.base import BackendError
from repro.ch.hrw import HRWHash
from repro.ch.properties import sample_keys
from repro.ch.ring import RingHash
from repro.core import JETLoadBalancer

KEYS = sample_keys(30_000, seed=91)


def share(ch, keys, name):
    return sum(ch.lookup(k) == name for k in keys) / len(keys)


def assert_in_band(observed, expected, n):
    assert abs(observed - expected) <= tracked_fraction_band(n, expected)


class TestWeightedHRW:
    def test_uniform_weights_behave_uniformly(self):
        # Equal but not unit: the scored order, on a fleet it must spread
        # evenly.
        ch = HRWHash([f"s{i}" for i in range(10)], weights={f"s{i}": 2.5 for i in range(10)})
        for i in range(10):
            assert_in_band(share(ch, KEYS[:10_000], f"s{i}"), 0.1, 10_000)

    def test_share_proportional_to_weight(self):
        ch = HRWHash(["small", "big"], weights={"big": 3.0})
        assert_in_band(share(ch, KEYS, "big"), 0.75, len(KEYS))

    def test_three_way_weights(self):
        weights = {"a": 1.0, "b": 2.0, "c": 7.0}
        ch = HRWHash(weights, weights=weights)
        for name, weight in weights.items():
            assert_in_band(share(ch, KEYS, name), weight / 10, len(KEYS))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(BackendError):
            HRWHash(["a"], weights={"a": 0.0})
        with pytest.raises(BackendError):
            HRWHash(["a"], weights={"a": -2.0})

    def test_weight_of(self):
        # A server's weight is its entry in the mapping the CH keeps;
        # names absent from it, and unit entries, weigh 1.0.
        ch = HRWHash(["a", "b"], ["h"], weights={"a": 2.5, "b": 1.0, "h": 1.5})
        assert ch.weights == {"a": 2.5, "h": 1.5}
        assert HRWHash(["a"], weights={"a": 1.0}).weights is None

    def test_safety_flag_matches_union(self):
        names = [f"s{i}" for i in range(8)]
        weights = {**{name: 1.0 + i % 3 for i, name in enumerate(names)}, "h0": 2.0}
        ch = HRWHash(names, ["h0"], weights=weights)
        for k in KEYS[:3000]:
            destination, unsafe = ch.lookup_with_safety(k)
            assert unsafe == (destination != ch.lookup_union(k))

    def test_tracking_probability_is_weight_fraction(self):
        # Generalized Theorem 4.2: P(track) = weight(H) / weight(W ∪ H).
        ch = HRWHash([f"s{i}" for i in range(9)], ["h0"], weights={"h0": 3.0})
        tracked = sum(ch.lookup_with_safety(k)[1] for k in KEYS)
        assert_in_band(tracked / len(KEYS), 3 / 12, len(KEYS))

    def test_minimal_disruption(self):
        names = [f"s{i}" for i in range(6)]
        ch = HRWHash(names, weights={name: 1.0 + (i % 2) for i, name in enumerate(names)})
        before = {k: ch.lookup(k) for k in KEYS[:5000]}
        ch.remove_working("s3")
        for k, d in before.items():
            if d != "s3":
                assert ch.lookup(k) == d

    def test_jet_integration_pcc(self):
        names = [f"s{i}" for i in range(5)]
        weights = {**{name: 1.0 + i for i, name in enumerate(names)}, "h0": 4.0}
        lb = JETLoadBalancer(HRWHash(names, ["h0"], weights=weights))
        first = {k: lb.get_destination(k) for k in KEYS[:4000]}
        lb.add_working_server("h0")
        assert all(lb.get_destination(k) == first[k] for k in first)

    def test_horizon_add_with_weight(self):
        # A server announced later looks its weight up in the same mapping.
        ch = HRWHash(["a"], weights={"h": 5.0})
        ch.add_horizon("h")
        ch.add_working("h")
        assert_in_band(share(ch, KEYS[:10_000], "h"), 5 / 6, 10_000)

    def test_empty_lookup_raises(self):
        with pytest.raises(BackendError):
            HRWHash(weights={"a": 2.0}).lookup(1)

    def test_exact_score_ties_ignore_history(self, monkeypatch):
        # Property 1: with every score equal, the rank's (weight, seed)
        # decides -- not the order servers were added or re-admitted in.
        monkeypatch.setattr(hrw, "_score", lambda capacity, w: 1.0)
        weights = {"a": 2.0, "b": 3.0, "c": 0.5, "h": 4.0}
        forward = HRWHash(["a", "b", "c"], ["h"], weights=weights)
        backward = HRWHash(["c", "b"], ["a", "h"], weights=weights)
        backward.add_working("a")
        for k in KEYS[:500]:
            assert forward.lookup_with_safety(k) == backward.lookup_with_safety(k)


class TestWeightedRing:
    def test_share_roughly_proportional(self):
        ch = RingHash(["small", "big"], weights={"big": 3.0}, virtual_nodes=200)
        assert share(ch, KEYS[:15_000], "big") == pytest.approx(0.75, rel=0.12)

    def test_vnode_counts_scale(self):
        ch = RingHash(["a", "b"], weights={"b": 2.5}, virtual_nodes=100)
        assert len(ch._working["a"]) == 100
        assert len(ch._working["b"]) == 250

    def test_safety_flag_matches_union(self):
        names = [f"s{i}" for i in range(6)]
        weights = {**{name: 1.0 + (i % 2) for i, name in enumerate(names)}, "h0": 2.0}
        ch = RingHash(names, ["h0"], weights=weights, virtual_nodes=40)
        for k in KEYS[:2000]:
            destination, unsafe = ch.lookup_with_safety(k)
            assert destination in ch.working
            assert unsafe == (destination != ch.lookup_union(k))

    def test_remove_readd_restores(self):
        ch = RingHash(["a", "b", "c"], weights={"a": 2.0, "c": 1.5}, virtual_nodes=60)
        before = [ch.lookup(k) for k in KEYS[:2000]]
        ch.remove_working("a")
        ch.add_working("a")
        assert [ch.lookup(k) for k in KEYS[:2000]] == before

    def test_invalid_weight_rejected(self):
        with pytest.raises(BackendError):
            RingHash(["a"], weights={"a": -1.0})
        # Refused up front, also for a name announced later.
        with pytest.raises(BackendError):
            RingHash(["a"], weights={"h": 0.0})


def build(family, working, horizon, weights):
    if family == "hrw":
        return HRWHash(working, horizon, weights=weights)
    return RingHash(working, horizon, virtual_nodes=30, weights=weights)


def answers(ch, keys):
    """The sets, scalar and batch destinations and safety bits, and the
    backend table."""
    batch = np.array(keys, dtype=np.uint64)
    idx, unsafe = ch.lookup_with_safety_batch_idx(batch)
    table = list(ch.backend_table())
    scalar = [ch.lookup_with_safety(k) for k in keys]
    return ch.working, ch.horizon, scalar, [table[i] for i in idx], unsafe.tolist(), table


W = [f"w{i}" for i in range(7)]
H = ["h0", "h1"]
CAPACITIES = {"w0": 2.0, "h0": 3.0}


def constructions(variant):
    """Two ``(working, horizon, weights)`` that must build the same CH."""
    if variant == "all-unit":
        return (W, H, {name: 1.0 for name in W + H}), (W, H, None)
    if variant == "only-absent-weighted":
        # HRW ranks by score once any name is weighted; on servers that
        # all weigh 1 that order is the integer one.
        return (W, H, {"absent": 2.0}), (W, H, None)
    # Was: a weighted ring read its iterables twice, and built from
    # generators it had no servers at all.
    return (iter(W), iter(H), CAPACITIES), (W, H, CAPACITIES)


@pytest.mark.parametrize("family", ["hrw", "ring"])
@pytest.mark.parametrize("variant", ["all-unit", "only-absent-weighted", "one-shot-iterables"])
def test_equivalent_constructions_build_the_same_ch(family, variant):
    built, reference = constructions(variant)
    keys = KEYS[:1500]
    assert answers(build(family, *built), keys) == answers(build(family, *reference), keys)
