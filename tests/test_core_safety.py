"""The Section 2.1 safety model, kept here as the reference the CH's
safety flag is checked against.

For one backend change every active connection is exactly one of
*inevitably broken* (the event removes its true destination), *safe* (the
decision rule still agrees with its true destination) or *unsafe* (it
breaks unless tracked).  JET itself reads the classes from
``lookup_with_safety``, which ``test_ch_contract.py`` holds per family.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Set

import pytest

from repro.ch import HRWHash
from repro.ch.properties import sample_keys


class SafetyClass(Enum):
    SAFE = "safe"
    UNSAFE = "unsafe"
    INEVITABLY_BROKEN = "inevitably_broken"


@dataclass
class SafetyReport:
    safe: Set[int] = field(default_factory=set)
    unsafe: Set[int] = field(default_factory=set)
    inevitably_broken: Set[int] = field(default_factory=set)

    @property
    def total(self):
        return len(self.safe) + len(self.unsafe) + len(self.inevitably_broken)

    @property
    def unsafe_fraction(self):
        """Unsafe share of the connections the event could affect."""
        considered = len(self.safe) + len(self.unsafe)
        return len(self.unsafe) / considered if considered else 0.0

    def classify(self, key):
        for cls, keys in ((SafetyClass.INEVITABLY_BROKEN, self.inevitably_broken),
                          (SafetyClass.UNSAFE, self.unsafe), (SafetyClass.SAFE, self.safe)):
            if key in keys:
                return cls
        raise KeyError(f"key {key} was not classified")


def classify_event(true_destinations, rule_after, removed=None):
    """Classify each connection against the post-event ``rule_after``."""
    report = SafetyReport()
    for key, true_destination in true_destinations.items():
        if removed is not None and true_destination == removed:
            report.inevitably_broken.add(key)
        elif rule_after(key) == true_destination:
            report.safe.add(key)
        else:
            report.unsafe.add(key)
    return report


def classify_for_horizon(true_destinations, lookup_union):
    """The whole-horizon addition (Theorem 4.4): nothing inevitably breaks."""
    return classify_event(true_destinations, lookup_union, removed=None)

W = [f"w{i}" for i in range(8)]
KEYS = sample_keys(1500, seed=13)


class TestClassifyEvent:
    def test_three_way_partition_on_removal(self):
        ch = HRWHash(W, ["h0"])
        truth = {k: ch.lookup(k) for k in KEYS}
        victim = W[0]
        ch.remove_working(victim)
        report = classify_event(truth, ch.lookup, removed=victim)
        assert report.total == len(KEYS)
        # Inevitably broken = exactly the victim's connections.
        assert report.inevitably_broken == {k for k, d in truth.items() if d == victim}
        # Consistent hashing: a removal makes nothing unsafe (property 1 of
        # Section 2.4).
        assert report.unsafe == set()

    def test_addition_has_no_inevitable_breakage(self):
        ch = HRWHash(W, ["h0"])
        truth = {k: ch.lookup(k) for k in KEYS}
        ch.add_working("h0")
        report = classify_event(truth, ch.lookup, removed=None)
        assert report.inevitably_broken == set()
        # Unsafe = precisely keys the new server captured.
        assert all(ch.lookup(k) == "h0" for k in report.unsafe)
        assert report.unsafe_fraction == pytest.approx(1 / 9, rel=0.5)

    def test_classify_lookup(self):
        report = SafetyReport(safe={1}, unsafe={2}, inevitably_broken={3})
        assert report.classify(1) is SafetyClass.SAFE
        assert report.classify(2) is SafetyClass.UNSAFE
        assert report.classify(3) is SafetyClass.INEVITABLY_BROKEN
        with pytest.raises(KeyError):
            report.classify(4)

    def test_unsafe_fraction_excludes_inevitable(self):
        report = SafetyReport(safe={1, 2, 3}, unsafe={4}, inevitably_broken={5, 6})
        assert report.unsafe_fraction == pytest.approx(0.25)

    def test_empty_report(self):
        report = SafetyReport()
        assert report.total == 0
        assert report.unsafe_fraction == 0.0


class TestClassifyForHorizon:
    def test_matches_lookup_with_safety(self):
        # Theorem 4.4: the connections JET flags unsafe must be exactly the
        # whole-horizon-addition unsafe set.
        ch = HRWHash(W, ["h0", "h1"])
        truth = {k: ch.lookup(k) for k in KEYS}
        report = classify_for_horizon(truth, ch.lookup_union)
        flagged = {k for k in KEYS if ch.lookup_with_safety(k)[1]}
        assert report.unsafe == flagged
        assert report.inevitably_broken == set()

    def test_no_horizon_means_all_safe(self):
        ch = HRWHash(W, [])
        truth = {k: ch.lookup(k) for k in KEYS[:200]}
        report = classify_for_horizon(truth, ch.lookup_union)
        assert report.unsafe == set()
        assert len(report.safe) == 200
