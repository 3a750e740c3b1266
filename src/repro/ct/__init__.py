"""Connection-tracking tables: the columnar unbounded store and one scalar
ordered table whose parameters the four eviction-policy names pin."""

from repro.ct.base import ConnectionTracker, CTStats, Destination
from repro.ct.unbounded import UnboundedCT
from repro.ct.table import FIFOCT, LRUCT, TTLCT, Clock, RandomEvictCT

#: The policy names :func:`make_ct` builds; ``--ct-policy`` and the
#: scenario document's ``ct_policy`` take their choices from here.
CT_POLICIES = ("lru", "fifo", "random", "ttl")

#: Idle timeout of ``policy="ttl"`` when none is given (``--ct-policy
#: ttl`` without ``--ct-ttl``): a TCP-timeout-scale quiet period.
DEFAULT_TTL_S = 60.0


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
    if policy not in CT_POLICIES:
        raise ValueError(f"unknown eviction policy {policy!r}; choose from {CT_POLICIES}")
    if policy == "ttl":
        return TTLCT(ttl if ttl is not None else DEFAULT_TTL_S, capacity, clock=clock)
    if capacity is None:
        return UnboundedCT()
    if policy == "random":
        return RandomEvictCT(capacity, seed=seed)
    return {"lru": LRUCT, "fifo": FIFOCT}[policy](capacity)


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
    "CT_POLICIES",
    "DEFAULT_TTL_S",
    "make_ct",
]
