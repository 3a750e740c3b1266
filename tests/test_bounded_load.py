"""Bounded-load JET (CH-BL, Section 6.3 direction) tests."""

import math

import pytest

from repro.ch import RingHash
from repro.ch.properties import sample_keys
from repro.core.load_aware import BoundedLoadJET
from repro.core import JETLoadBalancer

W = [f"w{i}" for i in range(10)]
H = ["h0"]
KEYS = sample_keys(5000, seed=71)


def make(epsilon=0.25):
    return BoundedLoadJET(RingHash(W, H, virtual_nodes=50), epsilon=epsilon)


def drive(lb, keys):
    placement = {}
    for k in keys:
        d = lb.get_destination(k, new_connection=True)
        lb.note_flow_start(d)
        placement[k] = d
    return placement


class TestCapEnforcement:
    @pytest.mark.parametrize("epsilon", [0.1, 0.25, 0.5])
    def test_max_load_within_cap(self, epsilon):
        lb = make(epsilon)
        drive(lb, KEYS)
        cap = math.ceil((1 + epsilon) * len(KEYS) / len(W))
        assert lb.max_load() <= cap + 1  # +1: cap computed pre-insert

    def test_tighter_epsilon_balances_better(self):
        tight = make(0.05)
        loose = make(1.0)
        drive(tight, KEYS)
        drive(loose, KEYS)
        assert tight.max_load() <= loose.max_load()

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            make(0.0)

    def test_cascade_counter(self):
        lb = make(0.05)
        drive(lb, KEYS)
        assert lb.cascaded > 0  # a tight cap must deflect some keys

    def test_uncascaded_placements_match_plain_jet(self):
        lb = make(0.25)
        plain = JETLoadBalancer(RingHash(W, H, virtual_nodes=50))
        placement = drive(lb, KEYS[:2000])
        agree = sum(plain.get_destination(k) == d for k, d in placement.items())
        # Deviations are exactly the cascaded keys.
        assert agree == len(placement) - lb.cascaded


class TestTrackingEconomy:
    def test_tracks_unsafe_plus_cascaded_only(self):
        lb = make(0.25)
        drive(lb, KEYS)
        plain = RingHash(W, H, virtual_nodes=50)
        unsafe = sum(plain.lookup_with_safety(k)[1] for k in KEYS)
        assert lb.tracked_connections <= unsafe + lb.cascaded
        # Far cheaper than power-of-2-choices' ~50%.
        assert lb.tracked_connections / len(KEYS) < 0.35

    def test_mid_connection_packets_follow_ch(self):
        lb = make(0.25)
        placement = drive(lb, KEYS[:2000])
        # Untracked flows: later (non-SYN) packets take the CH result,
        # which equals their placement (they were not cascaded).
        for k, d in placement.items():
            assert lb.get_destination(k) == d


class TestPCC:
    def test_pcc_through_horizon_addition(self):
        lb = make(0.25)
        placement = drive(lb, KEYS[:3000])
        lb.add_working_server("h0")
        assert all(lb.get_destination(k) == d for k, d in placement.items())

    def test_pcc_through_removal_except_victims(self):
        lb = make(0.25)
        placement = drive(lb, KEYS[:3000])
        victim = W[2]
        lb.remove_working_server(victim)
        for k, d in placement.items():
            if d == victim:
                continue
            assert lb.get_destination(k) == d

    def test_flow_end_accounting(self):
        lb = make(0.25)
        d = lb.get_destination(KEYS[0], new_connection=True)
        lb.note_flow_start(d)
        assert lb._active == 1
        lb.note_flow_end(d)
        assert lb._active == 0
        lb.note_flow_end(d)
        assert lb._active == 0
