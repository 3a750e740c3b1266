"""One model of Algorithm 1, and every stack held to it.

:class:`Algorithm1` is GETDESTINATION and the five backend-change entry
points over a dict (the CT) and two sets (W and H).  Its CH is a black
box, the stack's own, asked only through the scalar ``lookup`` (CH(W, k))
and ``lookup_union`` (CH(W ∪ H, k)) -- never a kernel and never
``lookup_with_safety``, the fused answers under test.

One rule machine drives {jet, full} x {table, anchor, ring, hrw} x
{scalar, columnar in slices of 1, 7 and the whole chunk} through
arbitrary interleavings of packets, chunks, membership changes and CT
writes the balancer did not make (a pool peer's sync).  A chunk's keys
all come from one small pool -- flows the CT holds, flows seen before,
or fresh ones that repeat within the chunk -- so the CT's cumulative hit
ratio crosses 1/2 both ways and the columnar dispatch runs in both of
its orders.

Each invariant is stated once:

* model and stack agree on every destination (``_dispatch``), on
  ``tracked_items()`` and on four ``CTStats`` counters
  (``stack_agrees_with_the_model``);
* JET tracks a new flow iff ``lookup != lookup_union`` (Property 1): the
  model's line 6, which the stack's CT must match flow for flow;
* a flow never moves while its backend stays in W, unless a server the
  flow never saw in W ∪ H has joined W (Theorem 4.4,
  ``_check_theorem_4_4``).
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import make_full_ct, make_jet
from repro.hashing.mix import fmix64

STACKS = {"jet": make_jet, "full": make_full_ct}
FAMILIES = {
    "table": {"rows": 211},
    "anchor": {"capacity": 64},  # room for every name one run can mint
    "ring": {"virtual_nodes": 8},
    "hrw": {},
}
#: ``None`` is the scalar tier; an int slices each chunk for the columnar
#: tier, 0 meaning the whole chunk in one call.
TIERS = [None, 1, 7, 0]
POOLS = ["tracked", "seen", "fresh"]
#: Fresh keys a chunk draws from: few, so fresh flows repeat within it.
FRESH = 8


class Algorithm1:
    """Algorithm 1 with active cleanup; the CT keeps its own counters."""

    def __init__(self, ch, track_every_miss, working, horizon):
        self.ch, self.track_every_miss = ch, track_every_miss
        self.W, self.H = set(working), set(horizon)
        self.ct = {}
        self.lookups = self.hits = self.inserts = self.invalidations = 0

    def get_destination(self, key):
        self.lookups += 1
        if key in self.ct:
            self.hits += 1
            return self.ct[key]
        destination = self.ch.lookup(key)
        # Line 6.  Property 1: a flow is unsafe iff CH(W, k) != CH(W ∪ H, k).
        if self.track_every_miss or destination != self.ch.lookup_union(key):
            self.ct[key] = destination
            self.inserts += 1
        return destination

    def add_working_server(self, name):
        self.H.remove(name)
        self.W.add(name)

    def remove_working_server(self, name):
        self.W.remove(name)
        self.H.add(name)
        stale = [key for key, destination in self.ct.items() if destination == name]
        for key in stale:
            del self.ct[key]
        self.invalidations += len(stale)

    def add_horizon_server(self, name):
        self.H.add(name)

    def remove_horizon_server(self, name):
        self.H.remove(name)

    def force_add_working_server(self, name):
        self.W.add(name)

    def sync(self, key, destination):
        """A CT write the balancer did not make: a pool peer's entry."""
        if key not in self.ct:
            self.inserts += 1
        self.ct[key] = destination


class Algorithm1Machine(RuleBasedStateMachine):
    @initialize(
        mode=st.sampled_from(sorted(STACKS)),
        family=st.sampled_from(sorted(FAMILIES)),
        tier=st.sampled_from(TIERS),
    )
    def build(self, mode, family, tier):
        working = [f"w{i}" for i in range(6)]
        horizon = [f"h{i}" for i in range(3)]
        self.lb = STACKS[mode](family, working, horizon, **FAMILIES[family])
        self.model = Algorithm1(self.lb.ch, mode == "full", working, horizon)
        self.tier = tier
        self.minted = 0  # fresh keys and names handed out so far
        # Theorem 4.4's bookkeeping: a logical clock that membership
        # changes advance, when each server joined W ∪ H, the latest such
        # time of a server admitted to W, and each flow's destination and
        # clock at its previous packet.
        self.clock = 0
        self.joined = dict.fromkeys(working + horizon, 0)
        self.admitted = 0
        self.last = {}

    # ------------------------------------------------------------ dispatch
    def _keys(self, pool, picks):
        """One key per pick, all from one pool: flows the CT holds, flows
        seen before, or FRESH new ones (also when the pool is empty)."""
        keys = sorted({"tracked": self.model.ct, "seen": self.last}.get(pool, ()))
        if not keys:
            keys = [fmix64(self.minted + i) for i in range(FRESH)]  # fmix64(0) is 0
        return [keys[index % len(keys)] for index in picks]

    def _dispatch(self, keys, tier):
        expected = [self.model.get_destination(key) for key in keys]
        if tier is None:
            got = [self.lb.get_destination(key) for key in keys]
        else:
            got, step = [], tier or len(keys)
            for start in range(0, len(keys), step):
                batch = np.array(keys[start:start + step], dtype=np.uint64)
                ids = self.lb.get_destinations_batch_idx(batch)
                got += self.lb.dispatch_names()[ids].tolist()
        assert got == expected
        for key, destination in zip(keys, got):
            previous = self.last.get(key)
            if previous is not None:
                self._check_theorem_4_4(*previous, destination)
            self.last[key] = (destination, self.clock)
        self.minted += FRESH

    def _check_theorem_4_4(self, before, stamped, destination):
        """A flow never moves while its backend stays in W (a removal
        forgets the flows it breaks), unless a server unknown to W ∪ H at
        its previous packet has joined W since: a force-add, or the
        admission of an announcement the flow never saw."""
        if destination != before:
            assert self.admitted > stamped, (before, destination)

    @rule(pool=st.sampled_from(POOLS), index=st.integers(0, 2**16))
    def packet(self, pool, index):
        self._dispatch(self._keys(pool, [index]), None)

    @rule(
        pool=st.sampled_from(POOLS),
        picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=40),
    )
    def chunk(self, pool, picks):
        self._dispatch(self._keys(pool, picks), self.tier)

    @rule(
        pool=st.sampled_from(POOLS),
        index=st.integers(0, 2**16),
        server=st.integers(0, 64),
    )
    def sync(self, pool, index, server):
        """A peer's entry put into the CT through ``put_tracked``, as
        LBPool's sync does; the flow is at that destination from now on,
        and its next packet arrives here."""
        [key] = self._keys(pool, [index])
        name = self._pick(self.model.W, server)
        self.lb.put_tracked(key, name)
        self.model.sync(key, name)
        self.last[key] = (name, self.clock)
        self._dispatch([key], self.tier)

    # ------------------------------------------------------ membership
    def _change(self, entry, name):
        self.clock += 1
        getattr(self.lb, entry)(name)
        getattr(self.model, entry)(name)
        if entry == "remove_working_server":
            self.last = {k: seen for k, seen in self.last.items() if seen[0] != name}
        elif entry in ("add_working_server", "force_add_working_server"):
            self.admitted = max(self.admitted, self.joined[name])

    def _mint_name(self):
        self.minted += 1
        name = f"n{self.minted}"
        self.joined[name] = self.clock + 1
        return name

    @staticmethod
    def _pick(servers, index):
        return sorted(servers)[index % len(servers)]

    @rule(index=st.integers(0, 64))
    def remove(self, index):
        if len(self.model.W) > 1:
            self._change("remove_working_server", self._pick(self.model.W, index))

    @rule(index=st.integers(0, 64))
    def recover(self, index):
        if self.model.H:
            self._change("add_working_server", self._pick(self.model.H, index))

    @rule()
    def announce(self):
        self._change("add_horizon_server", self._mint_name())

    @rule(index=st.integers(0, 64))
    def expire(self, index):
        if self.model.H:
            self._change("remove_horizon_server", self._pick(self.model.H, index))

    @rule()
    def force_add(self):
        self._change("force_add_working_server", self._mint_name())

    # ------------------------------------------------------- agreement
    @invariant()
    def stack_agrees_with_the_model(self):
        ch, model, stats = self.lb.ch, self.model, self.lb.ct.stats
        assert (ch.working, ch.horizon) == (model.W, model.H)
        assert self.lb.tracked_items() == model.ct
        assert (stats.lookups, stats.hits, stats.inserts, stats.invalidations) == (
            model.lookups, model.hits, model.inserts, model.invalidations
        )


TestAlgorithm1 = Algorithm1Machine.TestCase
TestAlgorithm1.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None
)
