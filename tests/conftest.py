"""Shared fixtures: server populations, key samples, CH factories."""

import pytest

from repro.ch import AnchorHash, HRWHash, JumpHash, RingHash, TableHRWHash
from repro.ch.properties import sample_keys

WORKING = [f"w{i}" for i in range(16)]
HORIZON = [f"h{i}" for i in range(3)]


#: Capacities of the test-local "hrw-weighted" / "ring-weighted" labels:
#: mild enough for the contract's unweighted balance envelopes
#: (tests/test_ch_weighted.py holds shares to w/Σw).
CAPACITIES = {WORKING[0]: 1.5, WORKING[5]: 0.75, HORIZON[0]: 1.25}


def make_family(family: str, working=None, horizon=None):
    """Construct a JET-capable CH of the given family with test-sized
    parameters (small tables/capacities keep tests fast).  The weighted
    labels are built from one-shot iterables, which must read as lists."""
    working = WORKING if working is None else working
    horizon = HORIZON if horizon is None else horizon
    if family == "hrw":
        return HRWHash(working, horizon)
    if family == "ring":
        return RingHash(working, horizon, virtual_nodes=40)
    if family == "hrw-weighted":
        return HRWHash(iter(working), iter(horizon), weights=CAPACITIES)
    if family == "ring-weighted":
        return RingHash(iter(working), iter(horizon), virtual_nodes=40, weights=CAPACITIES)
    if family == "table":
        return TableHRWHash(working, horizon, rows=1031)
    if family == "anchor":
        return AnchorHash(working, horizon, capacity=4 * (len(working) + len(horizon)))
    if family == "jump":
        return JumpHash(working, horizon)
    raise ValueError(family)


def churned_ring(working, horizon, **kwargs):
    """A ring on (``working``, ``horizon``) reached from a different start
    through all four mutators, after the first build -- so the arrays its
    kernels read were edited in place, not populated.  The differential
    suites run it beside the freshly built ring under the test-local
    label ``ring-incremental`` (not a registered family)."""
    working, horizon = list(working), list(horizon)
    ch = RingHash(
        [*working[1:], "stray-w"], [*horizon[1:], working[0], "stray-h"], **kwargs
    )
    ch.lookup(0)
    ch.add_working(working[0])
    ch.remove_working("stray-w")
    ch.remove_horizon("stray-w")
    ch.remove_horizon("stray-h")
    if horizon:
        ch.add_horizon(horizon[0])
    assert (ch.working, ch.horizon) == (frozenset(working), frozenset(horizon))
    return ch


#: The four CH families the paper integrates with JET (Algorithms 2-5),
#: and the two that take capacities built with some.
JET_FAMILY_NAMES = ("hrw", "ring", "table", "anchor", "hrw-weighted", "ring-weighted")


@pytest.fixture(params=JET_FAMILY_NAMES)
def jet_ch(request):
    """A fresh horizon-aware CH instance per paper family."""
    return make_family(request.param)


@pytest.fixture(params=JET_FAMILY_NAMES)
def jet_ch_factory(request):
    """A factory producing fresh same-configured CH instances."""
    family = request.param
    return lambda: make_family(family)


@pytest.fixture(scope="session")
def keys():
    """A reusable batch of pseudo-random 64-bit connection keys."""
    return sample_keys(4000, seed=12345)


@pytest.fixture(scope="session")
def few_keys():
    return sample_keys(400, seed=54321)
