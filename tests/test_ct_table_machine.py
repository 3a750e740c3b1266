"""The ordered CT table against a list model, every policy x capacity.

``repro.ct.table.OrderedCT`` is one class behind four policy names; this
is its one machine.  The model is the table as a plain list of
``[key, destination, touched]`` rows, stalest first, written from the
policies' definitions (FIFO: insertion age; LRU: recency; TTL: recency
plus an idle timeout on an injected clock; random: any resident may go)
-- no OrderedDict, no key list, no RNG.  Rules never reap behind the
table's back: only ``items`` / ``len`` / ``put`` reclaim idle entries,
so ``get`` / ``peek`` / ``delete`` meet expired-but-unreaped rows.
"""

import itertools

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.ct import FIFOCT, LRUCT, TTLCT, Clock, RandomEvictCT
from repro.ct.base import CTStats

TTL = 5.0
KEYS = st.integers(min_value=0, max_value=11)
DESTINATIONS = st.sampled_from(["a", "b", "c"])


class ListModel:
    def __init__(self, capacity, recency, ttl):
        self.capacity, self.recency, self.ttl = capacity, recency, ttl
        self.rows, self.stats, self.expired = [], CTStats(), 0

    def row(self, key):
        return next((row for row in self.rows if row[0] == key), None)

    def stale(self, row, now):
        return self.ttl is not None and row[2] < now - self.ttl

    def reap(self, now):
        while self.rows and self.stale(self.rows[0], now):
            del self.rows[0]
            self.expired += 1

    def touch(self, row, now):
        row[2] = now
        if self.recency:
            self.rows.remove(row)
            self.rows.append(row)

    def get(self, key, now):
        self.stats.lookups += 1
        row = self.row(key)
        if row is None:
            return None
        if self.stale(row, now):
            self.rows.remove(row)
            self.expired += 1
            return None
        self.stats.hits += 1
        self.touch(row, now)
        return row[1]

    def put(self, key, destination, now, victim=None):
        """``victim``: the resident a full table evicts (default: stalest)."""
        self.reap(now)
        row = self.row(key)
        if row is None:
            if self.capacity is not None and len(self.rows) >= self.capacity:
                self.rows.remove(self.rows[0] if victim is None else self.row(victim))
                self.stats.evictions += 1
            row = [key, destination, now]
            self.rows.append(row)
            self.stats.inserts += 1
        row[1] = destination
        self.touch(row, now)
        self.stats.peak_size = max(self.stats.peak_size, len(self.rows))

    def items(self, now):
        self.reap(now)
        return [(key, destination) for key, destination, _ in self.rows]


BUILD = {
    "fifo": lambda capacity, clock: FIFOCT(capacity),
    "lru": lambda capacity, clock: LRUCT(capacity),
    "random": lambda capacity, clock: RandomEvictCT(capacity, seed=11),
    "ttl": lambda capacity, clock: TTLCT(TTL, capacity, clock=clock),
}


class OrderedCTMachine(RuleBasedStateMachine):
    policy = "lru"
    capacity = None

    @initialize()
    def setup(self):
        self.clock = Clock(0.0)
        self.ct = BUILD[self.policy](self.capacity, self.clock)
        self.model = ListModel(
            self.capacity, self.policy in ("lru", "ttl"), TTL if self.policy == "ttl" else None
        )

    def frozen(self):
        """What picks the next victim: table order, and the RNG's state."""
        rng = getattr(self.ct, "_rng", None)
        return list(self.ct._table.items()), rng and rng.getstate()

    @rule(key=KEYS)
    def get(self, key):
        assert self.ct.get(key) == self.model.get(key, self.clock.now)

    @rule(key=KEYS, destination=DESTINATIONS)
    def put(self, key, destination):
        before = {row[0] for row in self.model.rows}
        self.ct.put(key, destination)
        victim = None
        if self.policy == "random":
            # The draw is the table's own; the model only requires that
            # a full table evicted exactly one resident, never the newcomer.
            resident = {key for key, _ in self.ct._table.items()}
            gone = before - resident
            full = self.capacity is not None and len(before) >= self.capacity
            assert len(gone) == (1 if full and key not in before else 0)
            victim = next(iter(gone), None)
        self.model.put(key, destination, self.clock.now, victim)
        assert self.capacity is None or len(self.model.rows) <= self.capacity

    @rule(key=KEYS)
    def delete(self, key):
        row = self.model.row(key)
        if row is not None:
            self.model.rows.remove(row)
        assert self.ct.delete(key) == (row is not None)

    @rule(key=KEYS)
    def peek(self, key):
        before = self.frozen()
        row = self.model.row(key)
        expected = None if row is None or self.model.stale(row, self.clock.now) else row[1]
        assert self.ct.peek(key) == expected
        assert self.frozen() == before

    @rule()
    def items(self):
        expected = self.model.items(self.clock.now)
        got = list(self.ct.items())
        if self.policy == "random":  # its order is not part of the contract
            assert sorted(got) == sorted(expected)
        else:
            assert got == expected
            assert list(self.ct) == [key for key, _ in expected]
        before = self.frozen()  # (idle entries went with the first scan)
        assert len(self.ct) == len(list(self.ct.items())) == len(expected)
        assert self.capacity is None or len(self.ct) <= self.capacity
        assert self.frozen() == before

    @rule(destination=DESTINATIONS)
    def invalidate_destination(self, destination):
        self.model.reap(self.clock.now)
        doomed = [row for row in self.model.rows if row[1] == destination]
        for row in doomed:
            self.model.rows.remove(row)
        self.model.stats.invalidations += len(doomed)
        assert self.ct.invalidate_destination(destination) == len(doomed)

    @precondition(lambda self: self.policy == "ttl")
    @rule(dt=st.sampled_from([0.5, 2.0, TTL, TTL + 1.0]))
    def advance_clock(self, dt):
        self.clock.now += dt

    @invariant()
    def counters_agree(self):
        assert self.ct.stats == self.model.stats
        assert self.ct.expired == self.model.expired


def _case(policy, capacity):
    machine = type(
        f"OrderedCT_{policy}_{capacity}",
        (OrderedCTMachine,),
        {"policy": policy, "capacity": capacity},
    )
    machine.TestCase.settings = settings(max_examples=30, stateful_step_count=40, deadline=None)
    return machine.TestCase


globals().update(
    {
        f"TestOrderedCT_{policy}_cap{capacity}": _case(policy, capacity)
        for policy, capacity in itertools.product(BUILD, (None, 1, 3, 8))
    }
)
