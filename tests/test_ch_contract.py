"""Contract tests every JET-capable CH family must satisfy.

Parametrized over the paper's four families (HRW, Ring, Table, Anchor),
and HRW and Ring built with capacities, via the ``jet_ch`` /
``jet_ch_factory`` fixtures -- these are the semantics Algorithm 1 relies
on.
"""

import random

import pytest

from repro.ch.base import BackendError
from repro.ch.properties import (
    balance_counts,
    check_addition_disruption,
    check_removal_disruption,
)
from tests.conftest import HORIZON, WORKING


class TestLookupBasics:
    def test_lookup_returns_working_server(self, jet_ch, few_keys):
        for k in few_keys:
            assert jet_ch.lookup(k) in jet_ch.working

    def test_lookup_deterministic(self, jet_ch, few_keys):
        assert [jet_ch.lookup(k) for k in few_keys] == [
            jet_ch.lookup(k) for k in few_keys
        ]

    def test_lookup_union_in_union(self, jet_ch, few_keys):
        union = jet_ch.working | jet_ch.horizon
        for k in few_keys:
            assert jet_ch.lookup_union(k) in union

    def test_safety_flag_equals_union_disagreement(self, jet_ch, keys):
        for k in keys:
            destination, unsafe = jet_ch.lookup_with_safety(k)
            assert destination == jet_ch.lookup(k)
            assert unsafe == (destination != jet_ch.lookup_union(k))

    def test_len_and_contains(self, jet_ch):
        assert len(jet_ch) == len(WORKING)
        assert WORKING[0] in jet_ch
        assert HORIZON[0] not in jet_ch


class TestSetManagement:
    def test_initial_sets(self, jet_ch):
        assert jet_ch.working == frozenset(WORKING)
        assert jet_ch.horizon == frozenset(HORIZON)

    def test_add_working_moves_from_horizon(self, jet_ch):
        jet_ch.add_working(HORIZON[0])
        assert HORIZON[0] in jet_ch.working
        assert HORIZON[0] not in jet_ch.horizon

    def test_add_working_requires_horizon_membership(self, jet_ch):
        with pytest.raises(BackendError):
            jet_ch.add_working("never-announced")

    def test_remove_working_moves_to_horizon(self, jet_ch):
        jet_ch.remove_working(WORKING[0])
        assert WORKING[0] not in jet_ch.working
        assert WORKING[0] in jet_ch.horizon

    def test_remove_unknown_working_raises(self, jet_ch):
        with pytest.raises(BackendError):
            jet_ch.remove_working("missing")

    def test_duplicate_horizon_add_raises(self, jet_ch):
        with pytest.raises(BackendError):
            jet_ch.add_horizon(HORIZON[0])

    def test_adding_working_name_to_horizon_raises(self, jet_ch):
        with pytest.raises(BackendError):
            jet_ch.add_horizon(WORKING[0])

    def test_remove_unknown_horizon_raises(self, jet_ch):
        with pytest.raises(BackendError):
            jet_ch.remove_horizon("missing")

    def test_permanent_removal_cycle(self, jet_ch):
        jet_ch.remove_working(WORKING[0])
        jet_ch.remove_horizon(WORKING[0])
        assert WORKING[0] not in jet_ch.working | jet_ch.horizon

    def test_force_add_reaches_working(self, jet_ch, few_keys):
        jet_ch.force_add_working("forced-1")
        assert "forced-1" in jet_ch.working
        for k in few_keys:
            assert jet_ch.lookup(k) in jet_ch.working


class TestMinimalDisruption:
    def test_addition_moves_keys_only_to_new_server(self, jet_ch, keys):
        report = check_addition_disruption(jet_ch, HORIZON[0], keys)
        assert report.is_minimal
        # Balance property: roughly 1/(|W|+1) of keys move to the addition.
        expected = 1 / (len(WORKING) + 1)
        assert report.moved_fraction == pytest.approx(expected, rel=0.6)

    def test_removal_moves_only_victims_keys(self, jet_ch, keys):
        report = check_removal_disruption(jet_ch, WORKING[3], keys)
        assert report.is_minimal
        expected = 1 / len(WORKING)
        assert report.moved_fraction == pytest.approx(expected, rel=0.6)

    def test_remove_then_readd_restores_mapping(self, jet_ch, few_keys):
        before = {k: jet_ch.lookup(k) for k in few_keys}
        jet_ch.remove_working(WORKING[5])
        jet_ch.add_working(WORKING[5])
        after = {k: jet_ch.lookup(k) for k in few_keys}
        assert before == after


class TestBalance:
    def test_rough_uniformity(self, jet_ch, keys):
        counts = balance_counts(jet_ch, keys)
        expected = len(keys) / len(WORKING)
        # Generous envelope: table/ring granularity adds variance.
        assert min(counts.values()) > expected * 0.4
        assert max(counts.values()) < expected * 1.9

    def test_tracking_fraction_near_theory(self, jet_ch, keys):
        # Theorem 4.2: P(track) = |H| / (|W| + |H|).
        tracked = sum(jet_ch.lookup_with_safety(k)[1] for k in keys)
        expected = len(HORIZON) / (len(WORKING) + len(HORIZON))
        assert tracked / len(keys) == pytest.approx(expected, rel=0.35)


class TestEmptyAndSmall:
    def test_lookup_after_removing_all_but_one(self, jet_ch, few_keys):
        for name in WORKING[1:]:
            jet_ch.remove_working(name)
        for k in few_keys:
            assert jet_ch.lookup(k) == WORKING[0]

    def test_single_server_all_safe_when_horizon_empty(self, jet_ch_factory, few_keys):
        ch = jet_ch_factory()
        for name in list(ch.horizon):
            ch.remove_horizon(name)
        for k in few_keys:
            destination, unsafe = ch.lookup_with_safety(k)
            assert not unsafe


class TestChurnSequences:
    def test_long_random_event_sequence_keeps_invariants(self, jet_ch_factory, few_keys):
        ch = jet_ch_factory()
        rng = random.Random(77)
        for step in range(60):
            working = sorted(ch.working, key=str)
            horizon = sorted(ch.horizon, key=str)
            op = rng.random()
            if op < 0.35 and horizon:
                ch.add_working(rng.choice(horizon))
            elif op < 0.65 and len(working) > 2:
                ch.remove_working(rng.choice(working))
            elif op < 0.85:
                ch.add_horizon(f"fresh-{step}")
            elif horizon:
                ch.remove_horizon(rng.choice(horizon))
            for k in few_keys[:60]:
                destination, unsafe = ch.lookup_with_safety(k)
                assert destination in ch.working
                assert unsafe == (destination != ch.lookup_union(k))
