"""Connection-tracking tables with pluggable eviction policies."""

from repro.ct.base import ConnectionTracker, CTStats, Destination
from repro.ct.unbounded import UnboundedCT
from repro.ct.lru import LRUCT
from repro.ct.fifo import FIFOCT
from repro.ct.random_evict import RandomEvictCT
from repro.ct.ttl import Clock, TTLCT, WallClock

#: The policy names :func:`make_ct` builds; ``--ct-policy`` and the
#: scenario document's ``ct_policy`` take their choices from here.
CT_POLICIES = ("lru", "fifo", "random", "ttl")


def make_ct(
    capacity=None,
    policy: str = "lru",
    seed: int = 0,
    ttl: float = None,
    clock=None,
) -> ConnectionTracker:
    """Build a CT table.

    ``policy="ttl"`` builds an idle-timeout table (optionally also
    capacity-bounded).  Otherwise: unbounded when ``capacity`` is None,
    else the requested eviction policy ("lru", "fifo", or "random").
    """
    if policy == "ttl":
        return TTLCT(ttl if ttl is not None else 60.0, capacity, clock=clock)
    if capacity is None:
        return UnboundedCT()
    if policy == "lru":
        return LRUCT(capacity)
    if policy == "fifo":
        return FIFOCT(capacity)
    if policy == "random":
        return RandomEvictCT(capacity, seed=seed)
    raise ValueError(f"unknown eviction policy {policy!r}")


__all__ = [
    "ConnectionTracker",
    "CTStats",
    "Destination",
    "UnboundedCT",
    "LRUCT",
    "FIFOCT",
    "RandomEvictCT",
    "TTLCT",
    "Clock",
    "WallClock",
    "CT_POLICIES",
    "make_ct",
]
