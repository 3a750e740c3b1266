"""UnboundedCT's one-store-at-a-time table against a plain-dict model.

A hypothesis rule machine interleaves the scalar entry points, the
``*_idx`` batch entry points (in-batch duplicate keys and flow key 0
included), ``invalidate_destination``, re-insertion of invalidated keys
and growth across a rehash, in the dict store and after the hand-over to
the arrays, and requires equal contents, ``len`` and every ``CTStats`` field
after each step; the sparse probe ``get_hits_idx`` must be the dense
``get_batch_idx`` without its misses, and a probe followed by the
insert of its misses at the slots the probe's search ended on (the
columnar dispatch's CT side) must store what the model stores, across a
rehash between the two calls.  Its key pool holds one cluster that
shares a home slot near the top of the table at every size, so probe
runs are long and wrap, and distinct missing keys race for one empty
slot; the machine runs once with the shipped straggler threshold (its
batches then settle by the Python walk alone) and once with a threshold
of 2 (strided rounds, then the walk), and once each with its ``CTStats``
seeded miss-heavy and hit-heavy, a regime the store itself must not
read.  The example tests below pin the probe on a crafted long run, the
insert that follows a probe, the table size against the batching, the
edge values at the array store's boundary, what each store holds, the
table with nothing live, and which order each balancer's table
picks for its dispatch.
"""

import copy
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import repro.ct.unbounded as unbounded
from repro.ch import TableHRWHash
from repro.core import FullCTLoadBalancer, make_full_ct, make_jet
from repro.ct import UnboundedCT
from repro.ct.base import CTStats
from repro.hashing.mix import splitmix64
from repro.shard.worker import _ct_approx_bytes
from repro.traces import replay, replay_batch, zipf_trace

_UNGAMMA = pow(int(unbounded._GAMMA), -1, 2**64)


def homed(top_bits, count, bits=6):
    """``count`` distinct keys whose multiply-shift hash starts with the
    ``bits``-bit prefix ``top_bits``: one home slot in a ``2**bits``-slot
    table, adjacent home slots in any larger one."""
    return [
        (((top_bits << (64 - bits)) + (j << 40) + 1) * _UNGAMMA) % 2**64
        for j in range(count)
    ]


#: Flow key 0, the largest key, enough others to collide in 64 slots, and
#: a cluster homed on slot 62 of 64 (a run that wraps at every size).
POOL = [0, 2**64 - 1] + [splitmix64(i) for i in range(1, 40)] + homed(62, 30)
KEYS = st.sampled_from(POOL)
IDS = st.integers(min_value=0, max_value=5)
PAIRS = st.lists(st.tuples(KEYS, IDS), max_size=40)


def u64(keys):
    return np.array(keys, dtype=np.uint64)


class UnboundedCTMachine(RuleBasedStateMachine):
    #: Straggler threshold to run under (None: the shipped one).
    walk = None
    #: ``(lookups, hits)`` the table starts from: a head start no run of
    #: the machine overturns pins the probe regime from the first call.
    history = (0, 0)

    @initialize()
    def setup(self):
        self.shipped_walk = unbounded._WALK
        if self.walk is not None:
            unbounded._WALK = self.walk
        self.ct = UnboundedCT()
        self.model = {}
        self.expected = CTStats()
        for stats in (self.ct.stats, self.expected):
            stats.lookups, stats.hits = self.history
        self.victims = []
        self.fresh = 1 << 40

    def _model_put(self, key, ident):
        if key not in self.model:
            self.expected.inserts += 1
        self.model[key] = ident
        self.expected.peak_size = max(self.expected.peak_size, len(self.model))

    # ------------------------------------------------------------ scalar
    @rule(key=KEYS, ident=IDS)
    def put(self, key, ident):
        self.ct.put(key, ident)
        self._model_put(key, ident)

    @rule(key=KEYS)
    def get(self, key):
        assert self.ct.get(key) == self.model.get(key)
        self.expected.lookups += 1
        self.expected.hits += key in self.model

    @rule(key=KEYS)
    def peek(self, key):
        assert self.ct.peek(key) == self.model.get(key)

    @rule(key=KEYS)
    def delete(self, key):
        assert self.ct.delete(key) == (self.model.pop(key, None) is not None)

    # ------------------------------------------------------------- batch
    @rule(pairs=PAIRS)
    def put_batch_idx(self, pairs):
        self.ct.put_batch_idx(
            u64([k for k, _ in pairs]), np.array([i for _, i in pairs], dtype=np.int32)
        )
        for key, ident in pairs:
            self._model_put(key, ident)

    @rule(keys=st.lists(KEYS, max_size=40))
    def get_batch_idx(self, keys):
        got = self.ct.get_batch_idx(u64(keys))
        assert got.dtype == np.int32
        assert got.tolist() == [self.model.get(k, -1) for k in keys]
        self.expected.lookups += len(keys)
        self.expected.hits += sum(k in self.model for k in keys)

    @rule(keys=st.lists(KEYS, max_size=40))
    def get_hits_idx(self, keys):
        # The sparse probe is the dense one without its misses, counters
        # included: a twin of the table answers the dense call.
        twin = copy.deepcopy(self.ct)
        dense = twin.get_batch_idx(u64(keys))
        positions, ids = self.ct.get_hits_idx(u64(keys))
        assert ids.dtype == np.int32
        assert positions.tolist() == np.flatnonzero(dense >= 0).tolist()
        assert ids.tolist() == dense[positions].tolist()
        assert self.ct.stats == twin.stats
        hits = [i for i, k in enumerate(keys) if k in self.model]
        assert positions.tolist() == hits
        assert ids.tolist() == [self.model[keys[i]] for i in hits]
        self.expected.lookups += len(keys)
        self.expected.hits += len(hits)

    @rule(
        keys=st.lists(KEYS, max_size=40),
        ident=IDS,
        sparse=st.booleans(),
        between=st.sampled_from([None, None, None, "grow", "put"]),
    )
    def probe_then_insert_misses(self, keys, ident, sparse, between):
        # Probe, then put the misses where the probe's search ended, as
        # the columnar dispatch does.  A growth or a scalar put of a
        # missed key in between must void those slots.
        if sparse:
            positions, _ = self.ct.get_hits_idx(u64(keys))
            miss = np.setdiff1d(np.arange(len(keys)), positions)
        else:
            miss = np.flatnonzero(self.ct.get_batch_idx(u64(keys)) < 0)
        self.expected.lookups += len(keys)
        self.expected.hits += sum(k in self.model for k in keys)
        missed = [keys[i] for i in miss]
        if between == "grow":
            self.ct._reserve(300)
        elif between == "put" and missed:
            self.put(missed[-1], ident)
        ids = [(ident + i) % 6 for i in range(len(missed))]  # repeats differ
        self.ct.put_batch_idx(u64(missed), np.array(ids, np.int32), miss)
        for key, i in zip(missed, ids):
            self._model_put(key, i)

    @rule(ident=IDS)
    def invalidate_destination(self, ident):
        keys, vals = self.ct._keys, self.ct._vals
        self.victims = [k for k, v in self.model.items() if v == ident]
        assert self.ct.invalidate_destination(ident) == len(self.victims)
        for key in self.victims:
            del self.model[key]
        self.expected.invalidations += len(self.victims)
        if keys is not None:
            # Nothing reallocated or rebuilt: the same arrays, and the
            # victims' keys still sit in them as tombstones.
            assert self.ct._keys is keys and self.ct._vals is vals
            assert set(self.victims) - {0} <= set(keys.tolist())

    @rule(ident=IDS)
    def reinsert_invalidated(self, ident):
        self.put_batch_idx([(key, ident) for key in self.victims])

    @rule(count=st.integers(min_value=30, max_value=120), ident=IDS)
    def grow(self, count, ident):
        fresh = list(range(self.fresh, self.fresh + count))
        self.fresh += count
        self.put_batch_idx([(key, ident) for key in fresh])

    def teardown(self):
        unbounded._WALK = self.shipped_walk

    # --------------------------------------------------------- invariant
    @invariant()
    def matches_model(self):
        ct = self.ct
        assert dict(ct.items()) == self.model
        assert sorted(ct) == sorted(self.model)
        assert len(ct) == len(self.model)
        assert ct.stats == self.expected
        # One store at a time.
        assert (ct._table is None) != (ct._keys is None)
        if ct._keys is not None:
            assert_slots_agree(ct, self.model, POOL)


def assert_slots_agree(ct, model, candidates):
    """The arrays, ``_slot_of``, the vectorized settle and the dict model
    name the same slot for every key, present, tombstoned or absent."""
    keys, vals = ct._keys, ct._vals
    occupied = np.flatnonzero(keys).tolist()
    assert len(set(keys[occupied].tolist())) == len(occupied)  # one slot per key
    held = {int(keys[slot]): int(vals[slot]) for slot in occupied}
    if vals[-1] >= 0:
        held[0] = int(vals[-1])
    assert {key: ident for key, ident in held.items() if ident >= 0} == model
    settled = ct._settle(u64(candidates), ct._home(u64(candidates))).tolist()
    assert settled == [ct._slot_of(key) for key in candidates]
    for key, slot in zip(candidates, settled):
        assert vals[slot] == model.get(key, -1)
        assert keys[slot] == (key if key in held else 0)


TestUnboundedCTStore = UnboundedCTMachine.TestCase
TestUnboundedCTStore.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class VectorRoundsMachine(UnboundedCTMachine):
    walk = 2


TestUnboundedCTStoreVectorRounds = VectorRoundsMachine.TestCase
TestUnboundedCTStoreVectorRounds.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class MissHeavyMachine(UnboundedCTMachine):
    history = (10**9, 0)


class HitHeavyMachine(UnboundedCTMachine):
    history = (10**9, 10**9)


TestUnboundedCTStoreMissHeavy = MissHeavyMachine.TestCase
TestUnboundedCTStoreHitHeavy = HitHeavyMachine.TestCase
TestUnboundedCTStoreMissHeavy.settings = TestUnboundedCTStoreHitHeavy.settings = (
    TestUnboundedCTStoreVectorRounds.settings
)


class TestLongProbeRuns:
    """140 keys homed on the last ten of 256 slots, plus flow key 0: one
    run that starts at slot 246, wraps past slot 255 and holds the table
    at 0.55 load -- longer than the straggler threshold, so a whole-run
    batch goes through strided rounds (one-slot rounds first when the
    tail threshold is below it) and ends in the walk, while a small
    batch is walked from its first collision."""

    RUN = [key for top in range(246, 256) for key in homed(top, 14, bits=8)]
    #: Absent keys homed inside the run: their probe ends past its tail.
    ABSENT = [key for top in (246, 250, 255) for key in homed(top, 20, bits=8)[14:]]

    def filled(self):
        ct, model = UnboundedCT(), {0: 3}
        model.update((key, i % 5) for i, key in enumerate(self.RUN))
        ct.put_batch_idx(u64(list(model)), np.array(list(model.values()), np.int32))
        assert len(ct._keys) - 1 == 256 and len(ct) == 141 > 0.55 * 256
        return ct, model

    #: ``(_TAIL, _WALK)``: one-slot rounds alone, strided rounds alone
    #: (across the wrap), the shipped mix, and the walk alone.
    @pytest.mark.parametrize(
        "tail, walk",
        [(0, 0), (10**9, 0), (unbounded._TAIL, unbounded._WALK), (10**9, 10**9)],
    )
    def test_every_slot_agrees_whatever_finishes_the_probe(self, tail, walk, monkeypatch):
        monkeypatch.setattr(unbounded, "_TAIL", tail)
        monkeypatch.setattr(unbounded, "_WALK", walk)
        ct, model = self.filled()
        everyone = [0] + self.RUN + self.ABSENT
        assert_slots_agree(ct, model, everyone)
        occupied = np.flatnonzero(ct._keys[:-1])
        assert {0, 255} <= set(occupied.tolist()) and len(occupied) == 140  # wrapped
        got = ct.get_batch_idx(u64(everyone))
        assert got.tolist() == [model.get(key, -1) for key in everyone]
        # Tombstones inside the run keep it intact.
        assert ct.invalidate_destination(2) == 28
        model = {key: ident for key, ident in model.items() if ident != 2}
        assert_slots_agree(ct, model, everyone)
        # A batch under the threshold, then the tail of the run alone.
        revived = self.RUN[2::5][:7]
        ct.put_batch_idx(u64(revived + revived[:2]), np.full(9, 4, np.int32))
        model.update((key, 4) for key in revived)
        assert_slots_agree(ct, model, everyone)
        tail = self.RUN[-3:] + self.ABSENT[-2:]
        assert ct.get_batch_idx(u64(tail)).tolist() == [model.get(k, -1) for k in tail]
        assert len(ct._keys) - 1 == 256 and ct.stats.inserts == 141 + 7

    def test_walk_and_rounds_settle_on_the_same_slots(self, monkeypatch):
        ct, _ = self.filled()
        everyone = u64([0] + self.RUN + self.ABSENT)
        slots = []
        for tail, walk in ((0, 0), (10**9, 0), (10**9, 10**9)):
            monkeypatch.setattr(unbounded, "_TAIL", tail)
            monkeypatch.setattr(unbounded, "_WALK", walk)
            slots.append(ct._settle(everyone, ct._home(everyone)).tolist())
        assert slots[0] == slots[1] == slots[2]


class TestInsertWhereTheProbeEnded:
    """A probe keeps where each key's search ended, and the insert of
    the keys it missed writes them there: no second search unless the
    table rehashed in between, or distinct keys raced for one empty slot
    (the losers search on from it)."""

    FRESH = list(range(1 << 40, (1 << 40) + 200))  # grows the table to 512

    @staticmethod
    def searches(monkeypatch):
        """The names of the search routines called from here on."""
        calls = []
        for name in ("_home", "_settle"):
            entry = getattr(UnboundedCT, name)

            def recorded(ct, *args, _entry=entry, _name=name):
                calls.append(_name)
                return _entry(ct, *args)

            monkeypatch.setattr(UnboundedCT, name, recorded)
        return calls

    @staticmethod
    def probe(ct, keys, sparse):
        """The positions of the keys the probe missed."""
        if sparse:
            return np.setdiff1d(np.arange(len(keys)), ct.get_hits_idx(u64(keys))[0])
        return np.flatnonzero(ct.get_batch_idx(u64(keys)) < 0)

    def filled(self, held):
        ct = UnboundedCT()
        model = dict.fromkeys(self.FRESH + held, 1)
        ct.put_batch_idx(u64(list(model)), np.ones(len(model), np.int32))
        return ct, model

    @pytest.mark.parametrize("sparse", [False, True])
    def test_insert_after_a_probe_makes_no_search(self, sparse, monkeypatch):
        ct, model = self.filled(POOL[1:41:2])
        keys = POOL[:41] + POOL[:41:3]  # flow key 0 and repeats included
        miss = self.probe(ct, keys, sparse)
        calls = self.searches(monkeypatch)
        missed = [keys[i] for i in miss]
        ct.put_batch_idx(u64(missed), np.full(len(missed), 2, np.int32), miss)
        assert calls == [] and 0 in missed
        model.update(dict.fromkeys(missed, 2))
        assert dict(ct.items()) == model and ct.stats.inserts == len(model)
        assert_slots_agree(ct, model, POOL)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_a_rehash_in_between_voids_the_slots(self, sparse, monkeypatch):
        ct, model = self.filled(POOL[1:41:2])
        miss = self.probe(ct, POOL, sparse)
        before = ct._keys
        ct._reserve(1_000)
        assert ct._keys is not before
        calls = self.searches(monkeypatch)
        missed = [POOL[i] for i in miss]
        ct.put_batch_idx(u64(missed), np.full(len(missed), 2, np.int32), miss)
        assert calls[0] == "_home"
        model.update(dict.fromkeys(missed, 2))
        assert dict(ct.items()) == model
        assert_slots_agree(ct, model, POOL)

    def test_racing_keys_search_on_from_the_slot_they_lost(self, monkeypatch):
        cluster = homed(62, 12)
        ct, model = UnboundedCT(), dict.fromkeys(cluster[:4], 0)
        ct.put_batch_idx(u64(cluster[:4]), np.zeros(4, np.int32))
        keys = cluster[4:] + cluster[4:6]
        ends = ct.get_batch_idx(u64(keys))
        assert ends.max() == -1 and len(set(ct._ends.tolist())) == 1  # one empty slot
        calls = self.searches(monkeypatch)
        ct.put_batch_idx(u64(keys), np.arange(len(keys), dtype=np.int32), np.arange(len(keys)))
        assert "_home" not in calls and "_settle" in calls
        model.update((key, i) for i, key in enumerate(keys))
        assert dict(ct.items()) == model and ct.stats.inserts == 12
        assert_slots_agree(ct, model, cluster)

    def test_a_tombstone_is_revived_in_place(self, monkeypatch):
        keys = POOL[:41]
        ct, model = self.filled([])
        ct.put_batch_idx(u64(keys), np.full(len(keys), 2, np.int32))
        assert ct.invalidate_destination(2) == len(keys)
        slots = [ct._slot_of(key) for key in keys]
        miss = self.probe(ct, keys, sparse=False)
        assert len(miss) == len(keys)
        calls = self.searches(monkeypatch)
        ct.put_batch_idx(u64(keys), np.full(len(keys), 3, np.int32), miss)
        assert calls == [] and [ct._slot_of(key) for key in keys] == slots
        model.update(dict.fromkeys(keys, 3))
        assert dict(ct.items()) == model


class TestSizedByConnections:
    """The table holds connections, so its size must not depend on how
    many packets of one connection a batch happened to carry."""

    TRACE = zipf_trace(skew=1.2, n_packets=150_000, population=20_000, seed=4)

    def balancer(self, make):
        """A table-HRW stack under which the hottest flow is unsafe."""
        hottest = int(self.TRACE.flow_keys[np.bincount(self.TRACE.packets).argmax()])
        for naming in range(200):
            working = [f"n{naming}s{i}" for i in range(20)]
            horizon = [f"n{naming}h{i}" for i in range(10)]
            lb = make("table", working, horizon, rows=389)
            if lb.ch.lookup_with_safety(hottest)[1]:
                return lb
        raise AssertionError("no naming makes the hottest flow unsafe")

    @pytest.mark.parametrize("make", [make_jet, make_full_ct])
    def test_table_size_does_not_depend_on_the_chunk_size(self, make):
        sizes = {}
        for chunk_size in (1_024, 32_768, 131_072):
            lb = self.balancer(make)
            result = replay_batch(self.TRACE, lb, chunk_size=chunk_size)
            slots = len(lb.ct._keys) - 1
            assert result.tracked_connections / slots >= 0.1875
            sizes[chunk_size] = slots
        assert len(set(sizes.values())) == 1, sizes

    @pytest.mark.parametrize("batch", [1, 50, 3_000, 40_000])
    def test_load_after_any_growth(self, batch):
        ct = UnboundedCT()
        stream = self.TRACE.flow_keys[self.TRACE.packets[:40_000]]
        for start in range(0, len(stream), batch):
            before = ct._keys
            chunk = stream[start : start + batch]
            ct.put_batch_idx(chunk, np.zeros(len(chunk), np.int32))
            slots = len(ct._keys) - 1
            if ct._keys is not before and slots > 64:
                assert 0.1875 <= len(ct) / slots <= 0.6
        assert len(ct) == len(set(stream.tolist()))


class TestWhichTableBuildsTheFilter:
    """On a Zipf replay full CT's probes mostly hit (every packet of a
    flow after its first), JET's mostly miss (the safe flows are never
    tracked): each table's own ``CTStats.miss_heavy`` before a chunk picks
    that chunk's order -- CH first (the sparse ``get_hits_idx``) or CT
    first (the dense ``get_batch_idx``) -- so full CT asks the CH first
    only for its first chunk, into the never-probed table, and JET for
    every chunk; either way the replay is the scalar one down to the CT
    counters."""

    TRACE = zipf_trace(skew=1.1, n_packets=60_000, population=12_000, seed=9)
    CHUNK = 2_048
    WORKING = [f"w{i}" for i in range(12)]
    HORIZON = [f"h{i}" for i in range(4)]
    CH_KWARGS = {"table": {"rows": 389}, "anchor": {"capacity": 64}}

    def events(self):
        return [
            (15_000, lambda lb: lb.remove_working_server(self.WORKING[3])),
            (30_000, lambda lb: lb.add_working_server(self.WORKING[3])),
            (45_000, lambda lb: lb.remove_working_server(self.WORKING[7])),
        ]

    @pytest.mark.parametrize("family", ["table", "anchor"])
    @pytest.mark.parametrize("make", [make_jet, make_full_ct])
    def test_regime_follows_the_tables_own_stats(self, make, family, monkeypatch):
        orders = []  # per chunk: (regime before it, the probe it made)
        balancers = [
            make(family, self.WORKING, self.HORIZON, **self.CH_KWARGS[family])
            for _ in range(2)
        ]
        scalar = replay(self.TRACE, balancers[0], self.events())
        assert balancers[0].ct._keys is None  # the dict store throughout
        ct = balancers[1].ct
        for probe in ("get_hits_idx", "get_batch_idx"):
            entry = getattr(UnboundedCT, probe)

            def recorded(table, keys, entry=entry, probe=probe):
                orders.append((table.stats.miss_heavy, probe))
                return entry(table, keys)

            monkeypatch.setattr(UnboundedCT, probe, recorded)
        columnar = replay_batch(
            self.TRACE, balancers[1], self.events(), chunk_size=self.CHUNK
        )
        assert len(orders) > len(self.TRACE.packets) // self.CHUNK  # one a chunk
        for miss_heavy, probe in orders:
            assert probe == ("get_hits_idx" if miss_heavy else "get_batch_idx")
        sparse = [probe == "get_hits_idx" for _, probe in orders]
        if make is make_full_ct:
            assert sparse[0] and not any(sparse[1:])
        else:
            assert all(sparse) and ct.stats.miss_heavy
        for field in (
            "pcc_violations", "inevitably_broken", "tracked_connections",
            "max_oversubscription", "server_loads", "ct_peak_size",
        ):
            assert getattr(columnar, field) == getattr(scalar, field), field
        assert balancers[1].ct.stats == balancers[0].ct.stats
        assert balancers[1].tracked_items() == balancers[0].tracked_items()


ENGAGE = {
    "get_batch_idx": lambda ct: ct.get_batch_idx(u64([])),
    "get_hits_idx": lambda ct: ct.get_hits_idx(u64([])),
    "put_batch_idx": lambda ct: ct.put_batch_idx(u64([]), np.array([], np.int32)),
}


class TestOneStore:
    def test_fresh_table_allocates_no_arrays(self):
        ct = UnboundedCT()
        assert ct._table == {} and ct._keys is None and ct._vals is None

    @pytest.mark.parametrize("how", sorted(ENGAGE))
    def test_hand_over_drops_the_dict_and_keeps_stats(self, how):
        ct = UnboundedCT()
        for key in POOL:
            ct.put(key, key % 7)
        before = CTStats(**vars(ct.stats))
        ENGAGE[how](ct)
        assert ct._table is None
        assert not any(name.startswith("_mirror") for name in vars(ct))
        assert dict(ct.items()) == {key: key % 7 for key in POOL}
        assert ct.stats == before

    def test_rehash_with_tombstones_keeps_contents_and_drops_them(self):
        ct = UnboundedCT()
        keys = u64(POOL)
        ct.put_batch_idx(keys, (keys % np.uint64(3)).astype(np.int32))
        dropped = ct.invalidate_destination(1)
        small = ct._keys
        assert dropped and np.count_nonzero(small) > len(ct) - 1
        ct.put_batch_idx(u64(range(1 << 40, (1 << 40) + 500)), np.zeros(500, np.int32))
        assert ct._keys is not small and len(ct._keys) > len(small)
        # Key 0 sits in the side slot, every other live key in one slot.
        assert np.count_nonzero(ct._keys) == len(ct) - 1
        expected = {k: k % 3 for k in POOL if k % 3 != 1}
        expected.update((k, 0) for k in range(1 << 40, (1 << 40) + 500))
        assert dict(ct.items()) == expected
        assert ct.stats.inserts == len(POOL) + 500
        assert ct.stats.peak_size == len(ct) == len(expected)

    def test_steady_churn_recycles_tombstones(self):
        # Tombstones count towards the load, so a table whose live size
        # stays put neither fills up with them nor grows without bound.
        ct = UnboundedCT()
        for cycle in range(200):
            fresh = u64(range(1 + 30 * cycle, 31 + 30 * cycle))
            ct.put_batch_idx(fresh, np.full(30, cycle % 2, dtype=np.int32))
            assert ct.invalidate_destination(cycle % 2) == 30
        assert len(ct) == 0 and len(ct._keys) <= 257
        assert ct.get_batch_idx(u64(range(1, 6001))).max() == -1


class TestIndexModeEdgeValues:
    @pytest.mark.parametrize("bad", [-1, -7, 2**31, 2**40])
    def test_ids_outside_int32_are_rejected(self, bad):
        ct = UnboundedCT()
        ct.put_batch_idx(u64([1, 2]), np.array([0, 1], dtype=np.int32))
        with pytest.raises(ValueError):
            ct.put_batch_idx(u64([3, 4]), np.array([0, bad], dtype=np.int64))
        with pytest.raises(ValueError):
            ct.put(3, bad)
        assert dict(ct.items()) == {1: 0, 2: 1}
        ct.put(3, 2**31 - 1)
        assert ct.get(3) == 2**31 - 1

    def test_hand_over_rejects_a_value_it_cannot_store(self):
        ct = UnboundedCT()
        ct.put(1, 0)
        ct.put(2, -1)
        with pytest.raises(ValueError):
            ct.get_batch_idx(u64([1]))
        assert dict(ct.items()) == {1: 0, 2: -1}  # still the dict, intact

    @pytest.mark.parametrize("how", sorted(ENGAGE))
    def test_flow_key_zero_is_an_ordinary_key(self, how):
        ct = UnboundedCT()
        ct.put(0, 4)
        ENGAGE[how](ct)
        assert ct.get_batch_idx(u64([0, 9, 0])).tolist() == [4, -1, 4]
        assert ct.get(0) == ct.peek(0) == 4 and len(ct) == 1
        assert list(ct.items()) == [(0, 4)] and list(ct) == [0]
        assert ct.invalidate_destination(4) == 1
        assert ct.get(0) is None and len(ct) == 0 and not ct.delete(0)
        ct.put_batch_idx(u64([0, 5, 0]), np.array([1, 2, 3], dtype=np.int32))
        assert dict(ct.items()) == {0: 3, 5: 2}
        assert ct.delete(0) and not ct.delete(0)
        ct.put(0, 2)
        assert dict(ct.items()) == {0: 2, 5: 2}
        assert ct.stats.inserts == 4 and ct.stats.invalidations == 1


class TestNothingLive:
    """A table with no live entry answers a probe as a miss without a
    search, and counts its lookups all the same."""

    def empty(self, how):
        ct = UnboundedCT()
        if how == "tombstones":
            ct.put_batch_idx(u64(POOL), np.zeros(len(POOL), np.int32))
            assert ct.invalidate_destination(0) == len(POOL) and len(ct) == 0
        return ct

    @pytest.mark.parametrize("how", ["fresh", "tombstones"])
    def test_probe_makes_no_search(self, how, monkeypatch):
        ct = self.empty(how)
        before = CTStats(**vars(ct.stats))

        def searched(*args):
            raise AssertionError("a table with nothing live searched")

        monkeypatch.setattr(UnboundedCT, "_settle", searched)
        assert ct.get_batch_idx(u64(POOL)).tolist() == [-1] * len(POOL)
        positions, ids = ct.get_hits_idx(u64(POOL[:9]))
        assert positions.size == ids.size == 0 and ids.dtype == np.int32
        assert ct._table is None
        assert ct.stats.lookups == before.lookups + len(POOL) + 9
        assert ct.stats.hits == before.hits


class TestStoreBytes:
    def test_nbytes_reads_the_store_in_each_mode(self):
        ct = UnboundedCT()
        for key in POOL:
            ct.put(key, 1)
        assert ct.nbytes == sys.getsizeof(ct._table) + 36 * len(POOL)
        ct.put_batch_idx(u64([]), np.array([], np.int32))
        # A uint64 key and an int32 id per slot, the side slot included,
        # however the table is probed.
        assert ct.nbytes == 12 * len(ct._keys)
        for _ in range(2):
            assert ct.get_batch_idx(u64([5, 6, 7])).tolist() == [-1, -1, -1]
            ct.get_hits_idx(u64([5, 6, 7]))
        assert ct.nbytes == ct._keys.nbytes + ct._vals.nbytes == 12 * len(ct._keys)

    def test_ct_approx_bytes_does_not_walk_the_entries(self):
        lb = FullCTLoadBalancer(TableHRWHash(["a", "b", "c"], ["h"], rows=53))
        lb.get_destinations_batch_idx(u64(POOL))
        lb.tracked_items = None  # would raise if the estimate still called it
        assert _ct_approx_bytes(lb) == lb.ct.nbytes > 0
