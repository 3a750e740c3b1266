"""One contract over every registered LB mode.

Algorithm 1 is written once (``StatelessLoadBalancer`` owns membership,
``TrackingLoadBalancer`` the CT half) and ``LB_MODES`` is the one mode ->
stack map, so what every mode must keep is stated here once, over
``lb_mode_choices()``, rather than per class: a registry entry the shard
recipe or the simulator cannot build, or a balancer whose working-set
mirror drifts from its CH, fails here whichever mode it is.
"""

from collections import Counter

import numpy as np
import pytest

from repro.ch import MaglevHash, RingHash, TableHRWHash
from repro.ch.properties import sample_keys
from repro.core import (
    BoundedLoadJET,
    FullCTLoadBalancer,
    JETLoadBalancer,
    PowerOfTwoJET,
    StatelessLoadBalancer,
)
from repro.core.concury import ConcuryLoadBalancer
from repro.core.factories import LB_MODES, lb_class, lb_mode_choices, make_lb
from repro.core.jet import TrackingLoadBalancer
from repro.core.load_aware import SynGatedJET
from repro.ct import LRUCT, UnboundedCT
from repro.shard import BalancerSpec
from repro.sim.scenario import SimulationConfig, build_balancer

WORKING = [f"s{i}" for i in range(10)]
HORIZON = ["h0", "h1"]
KEYS = sample_keys(1500, seed=41)
KEY_ARRAY = np.array(KEYS, dtype=np.uint64)

MODES = lb_mode_choices()
#: (mode, family): table-HRW with a horizon everywhere, Maglev for the
#: modes that can run on a horizon-less CH.
STACKS = [(mode, "table") for mode in MODES] + [
    (mode, "maglev")
    for mode in MODES
    if not lb_class(mode).needs_horizon
]


def build(mode, family, **kwargs):
    if family == "maglev":
        return make_lb(mode, family, WORKING, table_size=251, **kwargs)
    return make_lb(mode, family, WORKING, HORIZON, rows=127, **kwargs)


def churn(lb, horizon_aware):
    """Remove / re-add / horizon add / horizon retire / force-add."""
    lb.remove_working_server("s3")
    lb.remove_working_server("s7")
    lb.add_working_server("s3")
    lb.add_horizon_server("h9")
    lb.remove_horizon_server("h0")
    if horizon_aware:
        lb.add_working_server("h1")
    lb.force_add_working_server("x0")


@pytest.mark.parametrize("mode,family", STACKS)
class TestEveryStack:
    def test_working_mirror_follows_the_ch(self, mode, family):
        lb = build(mode, family)
        assert lb.working == lb.ch.working == frozenset(WORKING)
        churn(lb, horizon_aware=family != "maglev")
        assert lb.working == lb.ch.working
        assert "s7" not in lb.working and {"s3", "x0"} <= lb.working
        # Every dispatch still lands in the working set.
        assert {lb.get_destination(k) for k in KEYS} <= lb.working

    def test_scalar_after_columnar_decodes_index_mode(self, mode, family):
        lb, twin = build(mode, family), build(mode, family)
        if not lb.columnar_effective:
            # SYN-gated placement: the columnar entry point must refuse,
            # not fall through to CT-less dispatch.
            with pytest.raises(NotImplementedError):
                lb.get_destinations_batch_idx(KEY_ARRAY)
            return
        ids = lb.get_destinations_batch_idx(KEY_ARRAY)
        expected = [twin.get_destination(k) for k in KEYS]
        assert list(lb.dispatch_names()[ids]) == expected
        # The CT now holds ids; scalar dispatch must hand back names, and
        # a removal must invalidate the id, not the name.
        assert [lb.get_destination(k) for k in KEYS] == expected
        for each in (lb, twin):
            each.remove_working_server("s2")
        after = [lb.get_destination(k) for k in KEYS]
        assert after == [twin.get_destination(k) for k in KEYS]
        assert "s2" not in after
        if isinstance(lb, TrackingLoadBalancer):
            assert lb.tracked_items() == twin.tracked_items()
        assert lb.dispatch_working_mask().sum() == len(lb.working)


@pytest.mark.parametrize("mode", MODES)
class TestEveryMode:
    def test_three_builders_agree(self, mode):
        cls = type(make_lb(mode, "table", WORKING, HORIZON, rows=127))
        assert cls is lb_class(mode)
        spec = BalancerSpec.fleet(mode, "table", n_servers=10, horizon_size=2)
        assert type(spec.build(0)) is cls
        config = SimulationConfig(
            mode=mode, ch_family="table", n_servers=10, horizon_size=2,
            ch_kwargs={"rows": 127},
        )
        balancer, working, standby = build_balancer(config)
        assert type(balancer) is cls
        assert balancer.working == frozenset(working)
        assert len(standby) == 2

    @pytest.mark.parametrize("cleaned_on_removal", [True, False])
    def test_cleanup_never_returns_a_removed_server(self, mode, cleaned_on_removal):
        cls = lb_class(mode)
        if not issubclass(cls, TrackingLoadBalancer):
            pytest.skip("no CT to clean")
        ch = TableHRWHash(WORKING, HORIZON, rows=127)
        lb = cls(ch, UnboundedCT())
        before = {k: lb.get_destination(k) for k in KEYS}
        victim = Counter(lb.tracked_items().values()).most_common(1)[0][0]
        held = [k for k, dest in lb.tracked_items().items() if dest == victim]
        lb.remove_working_server(victim)
        if not cleaned_on_removal:
            # The victim's entries synced back in after the removal (a
            # late pool delta): only the lazy check on a hit is left.
            for k in held:
                lb.put_tracked(k, victim)
        stale = sum(1 for dest in lb.tracked_items().values() if dest == victim)
        assert (stale == 0) if cleaned_on_removal else (stale > 0)
        after = {k: lb.get_destination(k) for k in KEYS}
        assert victim not in after.values()
        # Only the victim's connections moved.
        assert all(after[k] == d for k, d in before.items() if d != victim)
        assert victim not in lb.tracked_items().values()


class TestRegistry:
    def test_alias_builds_the_registry_class(self):
        assert lb_class("p2c") is lb_class("jet-p2c") is PowerOfTwoJET
        # One list for every entry point: the alias is a choice too.
        assert lb_mode_choices() == sorted(LB_MODES) + ["p2c"]
        config = SimulationConfig(mode="p2c", ch_family="table", n_servers=10,
                                  horizon_size=2, ch_kwargs={"rows": 127})
        assert type(build_balancer(config)[0]) is PowerOfTwoJET
        with pytest.raises(ValueError, match="unknown LB mode"):
            make_lb("nope", "table", WORKING, HORIZON)

    def test_shard_build_seeds_the_ct_from_shard_seed(self):
        """(Named for the per-shard CT seed a replay no longer has: its CT
        is unbounded or LRU.)  Every build and every copy has its own
        empty CT, and a CT-less stack is the same in every shard."""
        spec = BalancerSpec.fleet(
            "jet", "table", n_servers=10, horizon_size=2, ct_capacity=8, seed=5,
        )
        copy = spec.builder()
        cts = [spec.build(shard).ct for shard in (0, 3)] + [copy(shard).ct for shard in (0, 3)]
        assert all(isinstance(ct, LRUCT) and ct.capacity == 8 and not len(ct) for ct in cts)
        assert len({id(ct) for ct in cts}) == len(cts)
        # CT-less stacks come out identical in every shard: the Concury
        # map is seeded by the master seed alone.
        concury = BalancerSpec.fleet("concury", "table", n_servers=10,
                                     horizon_size=2, seed=5)
        assert concury.build(0).ch.seed == concury.build(3).ch.seed == 5

    @pytest.mark.parametrize("mode", [m for m in MODES if lb_class(m).needs_horizon])
    def test_safety_modes_reject_maglev_at_spec_time(self, mode):
        with pytest.raises(ValueError, match="maglev has no horizon"):
            BalancerSpec.fleet(mode, "maglev")

    def test_isinstance_relations(self):
        # Theorem 4.2's expected-tracked accounting (sim/engine.py,
        # obs/collectors.py) switches on isinstance(_, JETLoadBalancer):
        # only JET itself may answer yes.
        ch = lambda: TableHRWHash(WORKING, HORIZON, rows=127)  # noqa: E731
        others = [
            FullCTLoadBalancer(ch()),
            PowerOfTwoJET(ch()),
            BoundedLoadJET(RingHash(WORKING, HORIZON, virtual_nodes=8)),
            StatelessLoadBalancer(ch()),
            make_lb("concury", "table", WORKING, HORIZON, rows=127),
        ]
        assert not any(isinstance(lb, JETLoadBalancer) for lb in others)
        assert isinstance(JETLoadBalancer(ch()), JETLoadBalancer)
        assert isinstance(others[-1], ConcuryLoadBalancer)
        assert isinstance(others[-1], StatelessLoadBalancer)
        assert not isinstance(others[-1], TrackingLoadBalancer)
        assert all(isinstance(lb, TrackingLoadBalancer) for lb in others[:3])

    @pytest.mark.parametrize(
        "make",
        [
            lambda ch: PowerOfTwoJET(ch, weights={"s0": 0.01}),
            lambda ch: BoundedLoadJET(ch, epsilon=0.01),
        ],
        ids=["p2c", "bounded-load"],
    )
    def test_syn_gated_placement_runs_on_the_syn_only(self, make):
        # Through the shared base: with every server loaded far past what
        # either placement tolerates (p2c: s0 looks 100x as loaded as its
        # count; CH-BL: every CH choice is over a ~1-connection cap), a
        # SYN is placed off the CH choice and tracked, while a non-SYN
        # packet of an untracked flow gets the plain CH answer, tracked
        # iff unsafe -- it never reaches ``_place``.
        lb = make(RingHash(WORKING, HORIZON, virtual_nodes=8))
        assert isinstance(lb, SynGatedJET) and lb.dispatches_new_connections
        for _ in range(3):
            lb.note_flow_start("s0")
        plain = RingHash(WORKING, HORIZON, virtual_nodes=8)
        lb._place = None  # a call would raise: mid-flow packets must not place
        for key in KEYS[:300]:
            choice, unsafe = plain.lookup_with_safety(key)
            assert lb.get_destination(key) == choice
            assert (lb.peek_tracked(key) is not None) == unsafe
        del lb._place
        placed_off = 0
        for key in KEYS[300:900]:
            choice, unsafe = plain.lookup_with_safety(key)
            destination = lb.get_destination(key, new_connection=True)
            lb.note_flow_start(destination)
            assert destination in lb.working
            if destination != choice:
                placed_off += 1
                assert lb.peek_tracked(key) == destination
            else:
                assert (lb.peek_tracked(key) is not None) == unsafe
            # Later packets of the flow follow the first, placed or not.
            assert lb.get_destination(key) == destination
        assert placed_off > 0

    def test_positional_constructor_order(self):
        ch, ct = TableHRWHash(WORKING, HORIZON, rows=127), UnboundedCT()
        p2c = PowerOfTwoJET(ch, ct, {"s0": 2.0})
        assert p2c.ct is ct and p2c.weights == {"s0": 2.0}
        bl = BoundedLoadJET(RingHash(WORKING, HORIZON, virtual_nodes=8), ct, 0.5)
        assert bl.ct is ct and bl.epsilon == 0.5
        assert StatelessLoadBalancer(MaglevHash(WORKING, table_size=251)).working


class _Counting:
    """Delegating stand-in that counts the public calls made through it."""

    def __init__(self, target):
        self.target = target
        self.calls = Counter()

    def __getattr__(self, name):
        value = getattr(self.target, name)
        if name.startswith("_") or not callable(value):
            return value

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return value(*args, **kwargs)

        return counted

    def __len__(self):
        return len(self.target)


def _record_receivers(monkeypatch, cls, log):
    """Log ``(instance id, method)`` for every public method of ``cls``."""
    for name in dir(cls):
        function = getattr(cls, name)
        if name.startswith("_") or not callable(function) or isinstance(function, type):
            continue

        def recorded(self, *args, _function=function, _name=name, **kwargs):
            log.append((id(self), _name))
            return _function(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, recorded)


@pytest.mark.parametrize("mode", ["jet", "full"])
def test_ct_and_ch_are_read_at_call_time(mode, monkeypatch):
    """The tracing contract: ``lb.ct`` / ``lb.ch`` replaced after
    construction see every CT and CH call of both tiers and of a backend
    change -- a bound method cached in ``__init__`` would keep reaching
    the objects the balancer was built with."""
    log = []
    _record_receivers(monkeypatch, TableHRWHash, log)
    _record_receivers(monkeypatch, UnboundedCT, log)
    built_ch = TableHRWHash(WORKING, HORIZON, rows=127)
    built_ct = UnboundedCT()
    lb = lb_class(mode)(built_ch, built_ct)
    ct = lb.ct = _Counting(UnboundedCT())
    ch = lb.ch = _Counting(TableHRWHash(WORKING, HORIZON, rows=127))
    del log[:]

    for key in KEYS[:300]:                       # scalar tier
        lb.get_destination(key)
    miss_heavy = ct.stats.miss_heavy             # the regime picks the order
    lb.get_destinations_batch_idx(KEY_ARRAY)     # columnar tier
    lb.remove_working_server("s4")               # backend change + invalidation
    lb.add_working_server("s4")
    lb.add_horizon_server("h7")
    lb.remove_horizon_server("h7")
    lb.force_add_working_server("x1")
    for key in KEYS[:300]:                       # scalar tier again
        assert lb.get_destination(key) in lb.working
    assert lb.tracked_connections == len(ct.target) > 0

    receivers = {ident for ident, _ in log}
    assert id(built_ch) not in receivers and id(built_ct) not in receivers
    assert receivers == {id(ct.target), id(ch.target)}
    assert len(built_ct) == 0 and built_ch.working == frozenset(WORKING)
    scalar, batch = (
        ("lookup_with_safety", "lookup_with_safety_batch_idx")
        if mode == "jet"
        else ("lookup", "lookup_batch_idx")
    )
    for name in (scalar, batch, "backend_table", "add_working", "remove_working",
                 "add_horizon", "remove_horizon", "force_add_working"):
        assert ch.calls[name] > 0, name
    # A miss-heavy table is asked for its hits alone, after the CH.
    probe = "get_hits_idx" if miss_heavy else "get_batch_idx"
    for name in ("get", "put", probe, "put_batch_idx",
                 "invalidate_destination"):
        assert ct.calls[name] > 0, name
