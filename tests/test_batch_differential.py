"""Differential tests for the columnar dataplane: idx == scalar.

The scalar path is the executable spec: every batch entry point (CH
``lookup_batch_idx``/``lookup_with_safety_batch_idx`` decoded through
``backend_table()``, LB ``get_destinations_batch_idx`` decoded through
``dispatch_names()``, and ``replay_batch``) must reproduce the scalar
results key-for-key -- destinations, unsafe flags, post-batch CT state
and ``CTStats``, and replay metrics.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.ch import (
    EXTENSION_FAMILIES,
    FAMILIES,
    JET_FAMILIES,
    BackendError,
    HorizonConsistentHash,
    MaglevHash,
    TableHRWHash,
    family_choices,
)
from repro.ch.properties import sample_keys
from repro.core import (
    FullCTLoadBalancer,
    JETLoadBalancer,
    PowerOfTwoJET,
    StatelessLoadBalancer,
    make_ch,
    make_full_ct,
    make_jet,
)
from repro.core.factories import make_lb
from repro.core.indexing import BackendIndexer
from repro.ct import LRUCT, UnboundedCT
from repro.sim import SimulationConfig, run_simulation
from repro.traces import Trace, replay, replay_batch, zipf_trace
from repro.traces.replay import DEFAULT_CHUNK
from tests.conftest import churned_ring

WORKING = [f"w{i}" for i in range(12)]
HORIZON = [f"h{i}" for i in range(4)]
#: Test-local variant of "ring" (``conftest.churned_ring``): the same
#: ring, its arrays edited in place by membership events.
CHURNED_RING = "ring-incremental"
ALL_FAMILIES = sorted([*JET_FAMILIES, CHURNED_RING]) + sorted(EXTENSION_FAMILIES)

KEYS = np.array(sample_keys(1500, seed=7), dtype=np.uint64)


def _ch_kwargs(family):
    if family == "table":
        return {"rows": 389}
    if family == "anchor":
        return {"capacity": 4 * (len(WORKING) + len(HORIZON))}
    if family in ("ring", CHURNED_RING):
        return {"virtual_nodes": 20}
    if family == "concury":
        return {"flowsets": 512, "rows": 389}  # inner defaults to table
    return {}


def build_on(family, working, horizon, **kwargs):
    if family == CHURNED_RING:
        return churned_ring(working, horizon, **kwargs)
    return make_ch(family, working, horizon, **kwargs)


def build(family):
    """Fresh test-sized CH of the given family."""
    return build_on(family, WORKING, HORIZON, **_ch_kwargs(family))


def batch_names(ch, keys):
    """``(names, unsafe)`` of the safety kernel, decoded at the edge."""
    idx, unsafe = ch.lookup_with_safety_batch_idx(keys)
    assert idx.dtype == np.int32
    assert unsafe.dtype == bool
    return ch.backend_table()[idx], unsafe


def assert_batch_matches_scalar(ch, keys):
    """The safety kernel must equal the scalar loop, key for key."""
    destinations, unsafe = batch_names(ch, keys)
    expected = [ch.lookup_with_safety(int(k)) for k in keys]
    assert list(destinations) == [d for d, _ in expected]
    assert unsafe.tolist() == [u for _, u in expected]


def assert_idx_matches_scalar(ch, keys):
    """``lookup_batch_idx`` -- the destination column of the same kernel,
    and all Maglev has -- must equal the ``lookup`` loop."""
    idx = ch.lookup_batch_idx(keys)
    assert idx.dtype == np.int32
    assert list(ch.backend_table()[idx]) == [ch.lookup(int(k)) for k in keys]


@pytest.fixture(params=ALL_FAMILIES)
def family(request):
    return request.param


class TestCHBatch:
    """``lookup_with_safety_batch_idx`` against the ``lookup_with_safety``
    loop, every horizon-aware family."""

    def test_matches_scalar(self, family):
        assert_batch_matches_scalar(build(family), KEYS)

    def test_empty_batch(self, family):
        destinations, unsafe = batch_names(build(family), np.empty(0, dtype=np.uint64))
        assert len(destinations) == 0
        assert len(unsafe) == 0

    def test_single_key_batch(self, family):
        ch = build(family)
        assert_batch_matches_scalar(ch, KEYS[:1])

    def test_matches_scalar_after_churn(self, family):
        ch = build(family)
        # Retire one working server, re-check, re-admit, re-check.  Jump's
        # horizon is a stack, so the retired server is also the only
        # admissible one; other families can admit any horizon member.
        victim = WORKING[-1]
        admit = victim if family == "jump" else HORIZON[0]
        ch.remove_working(victim)
        assert_batch_matches_scalar(ch, KEYS[:600])
        ch.add_working(admit)
        assert_batch_matches_scalar(ch, KEYS[:600])

    def test_accepts_plain_int_lists(self, family):
        ch = build(family)
        ints = [int(k) for k in KEYS[:32]]
        destinations, _ = batch_names(ch, ints)
        assert list(destinations) == [ch.lookup(k) for k in ints]

    def test_duplicate_keys_in_one_batch(self, family):
        ch = build(family)
        assert_batch_matches_scalar(
            ch, np.concatenate([KEYS[:50], KEYS[:50], KEYS[20:30]])
        )


class TestMaglevBatch:
    """Maglev's int32-table kernel against the scalar table walk."""

    def test_matches_scalar(self):
        assert_idx_matches_scalar(MaglevHash(WORKING, table_size=251), KEYS[:500])

    def test_empty_batch(self):
        ch = MaglevHash(WORKING, table_size=251)
        assert len(ch.lookup_batch_idx(np.empty(0, dtype=np.uint64))) == 0

    def test_single_server_owns_every_row(self):
        ch = MaglevHash(["only"], table_size=251)
        out = ch.backend_table()[ch.lookup_batch_idx(KEYS[:64])]
        assert set(out.tolist()) == {"only"}

    def test_matches_scalar_after_churn(self):
        ch = MaglevHash(WORKING, table_size=251)
        ch.remove(WORKING[0])
        ch.add("fresh")
        assert_idx_matches_scalar(ch, KEYS[:500])

    def test_empty_working_set_raises(self):
        ch = MaglevHash(["only"], table_size=251)
        ch.remove("only")
        with pytest.raises(BackendError):
            ch.lookup_batch_idx(KEYS[:4])


class TestRingKernelEdges:
    """Searchsorted boundary and cache-invalidation cases for the ring."""

    @pytest.mark.parametrize("family", ["ring", CHURNED_RING])
    def test_key_exactly_on_vnode_position(self, family):
        # bisect_right/searchsorted(side="right") place an exact hit
        # *after* the vnode, so the key belongs to the next entry; batch
        # must agree with scalar on every materialized position.
        ch = build(family)
        ch.lookup(0)  # force the initial rebuild
        boundary = np.array(ch._positions[:200], dtype=np.uint64)
        assert_batch_matches_scalar(ch, boundary)

    @pytest.mark.parametrize("family", ["ring", CHURNED_RING])
    def test_wraparound_past_last_vnode(self, family):
        # Keys beyond the highest vnode wrap to entry 0 (clockwise ring).
        ch = build(family)
        ch.lookup(0)
        top = max(ch._positions)
        wrap = np.array([top, (top + 1) & 0xFFFF_FFFF_FFFF_FFFF, 2**64 - 1, 0],
                        dtype=np.uint64)
        assert_batch_matches_scalar(ch, wrap)

    @pytest.mark.parametrize("family", ["ring", CHURNED_RING])
    def test_horizon_dominated_ring(self, family):
        # One working server, many horizon vnodes: most merged-ring
        # entries are tracked horizon entries pointing at the lone worker.
        ch = build_on(family, ["solo"], HORIZON, virtual_nodes=20)
        destinations, unsafe = batch_names(ch, KEYS[:400])
        assert set(destinations.tolist()) == {"solo"}
        assert unsafe.any()
        assert_batch_matches_scalar(ch, KEYS[:400])

    @pytest.mark.parametrize("family", ["ring", CHURNED_RING])
    def test_batch_after_remove_working_dirty_rebuild(self, family):
        # remove_working edits the built ring in place; the *batch* call
        # must be the one that refreshes the kernel and still match scalar.
        ch = build(family)
        ch.lookup_with_safety_batch_idx(KEYS[:100])  # warm the kernel arrays
        ch.remove_working(WORKING[0])
        fresh = build(family)
        fresh.remove_working(WORKING[0])
        destinations, unsafe = batch_names(ch, KEYS[:400])
        expected = [fresh.lookup_with_safety(int(k)) for k in KEYS[:400]]
        assert list(destinations) == [d for d, _ in expected]
        assert unsafe.tolist() == [u for _, u in expected]

    def test_single_server_no_horizon(self):
        ch = make_ch("ring", ["solo"], [], virtual_nodes=20)
        destinations, unsafe = batch_names(ch, KEYS[:100])
        assert set(destinations.tolist()) == {"solo"}
        assert not unsafe.any()

    def test_union_cache_tracks_membership_changes(self):
        ch = build("ring")
        before = [ch.lookup_union(int(k)) for k in KEYS[:200]]
        # W <-> H moves must not change the union ring ...
        ch.remove_working(WORKING[0])
        assert [ch.lookup_union(int(k)) for k in KEYS[:200]] == before
        ch.add_working(HORIZON[0])
        assert [ch.lookup_union(int(k)) for k in KEYS[:200]] == before
        # ... while identity changes must refresh the cached union.
        ch.add_horizon("brand-new")
        fresh = build("ring")
        fresh.remove_working(WORKING[0])
        fresh.add_working(HORIZON[0])
        fresh.add_horizon("brand-new")
        assert [ch.lookup_union(int(k)) for k in KEYS[:200]] == [
            fresh.lookup_union(int(k)) for k in KEYS[:200]
        ]


class TestAnchorKernelEdges:
    def test_single_working_bucket(self):
        ch = make_ch("anchor", ["solo"], HORIZON, capacity=32)
        destinations, _ = batch_names(ch, KEYS[:200])
        assert set(destinations.tolist()) == {"solo"}
        assert_batch_matches_scalar(ch, KEYS[:200])

    def test_deep_wandering_after_mass_removal(self):
        # Remove most workers so GETBUCKET paths wander through many
        # removed buckets (exercises the active-mask iterations and the
        # inner K-chase) and every surviving key reports unsafe=True
        # against the large horizon region.
        ch = build("anchor")
        for name in WORKING[2:]:
            ch.remove_working(name)
        assert_batch_matches_scalar(ch, KEYS[:600])


TRACE = zipf_trace(skew=1.0, n_packets=5_000, population=1_000, seed=13)


def churn_events():
    """One announced remove / admit pair, mid-trace."""
    return [
        (1_500, lambda lb: lb.remove_working_server(WORKING[5])),
        (3_500, lambda lb: lb.add_working_server(HORIZON[0])),
    ]


def _lb_pair(maker):
    """Two identically configured balancers: one driven batched, one scalar."""
    return maker(), maker()


def _tracked(lb):
    return lb.tracked_items() if hasattr(lb, "tracked_items") else None


def _decode_idx_run(lb, keys):
    """Dispatch through the integer path and decode at the edge."""
    ids = lb.get_destinations_batch_idx(keys)
    assert ids.dtype == np.int32
    names = lb.dispatch_names()
    return [names[i] for i in ids.tolist()]


def assert_lb_batch_matches(batched, scalar, keys):
    """Same destinations, and the CT (where one exists) holds the same
    name mappings whichever tier wrote them."""
    expected = [scalar.get_destination(int(k)) for k in keys.tolist()]
    assert _decode_idx_run(batched, keys) == expected
    assert _tracked(batched) == _tracked(scalar)


def assert_idx_dispatch_refused(lb):
    """The probe says no, so the idx entry point raises -- before it
    touches the CT (it must not engage the array store on the way out)."""
    assert not lb.columnar_effective
    with pytest.raises(NotImplementedError):
        lb.get_destinations_batch_idx(KEYS[:8])
    assert len(lb.ct) == 0 and lb.ct.stats.lookups == 0


class TestLBBatch:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_jet_batch_matches_scalar_twin(self, family):
        if family == CHURNED_RING:
            maker = lambda: JETLoadBalancer(churned_ring(WORKING, HORIZON))
        else:
            maker = lambda: make_jet(family, WORKING, HORIZON)
        batched, scalar = _lb_pair(maker)
        assert_lb_batch_matches(batched, scalar, KEYS[:800])
        # Second batch re-reads the CT entries populated by the first.
        assert_lb_batch_matches(batched, scalar, KEYS[:800])
        assert batched.ct.stats == scalar.ct.stats

    def test_jet_batch_with_duplicate_keys(self):
        batched, scalar = _lb_pair(lambda: make_jet("hrw", WORKING, HORIZON))
        keys = np.concatenate([KEYS[:300], KEYS[:300], KEYS[100:200]])
        # Destinations, the CT mapping and the hit/insert totals must
        # agree even when a key repeats within one batch (the scalar twin
        # hits the CT on the repeat; the batch path credits it after).
        assert_lb_batch_matches(batched, scalar, keys)
        assert batched.ct.stats == scalar.ct.stats

    def test_jet_batch_after_backend_churn(self):
        batched, scalar = _lb_pair(lambda: make_jet("table", WORKING, HORIZON, rows=389))
        assert_lb_batch_matches(batched, scalar, KEYS[:500])
        for lb in (batched, scalar):
            lb.remove_working_server(WORKING[3])
            lb.add_working_server(HORIZON[0])
        assert_lb_batch_matches(batched, scalar, KEYS[:500])
        assert batched.ct.stats == scalar.ct.stats

    def test_jet_bounded_ct_falls_back_to_scalar(self):
        # Regrouping gets before puts would change who an LRU evicts.
        assert not LRUCT.batch_reorder_safe
        assert_idx_dispatch_refused(
            make_jet("hrw", WORKING, HORIZON, ct=LRUCT(capacity=32))
        )
        assert_idx_dispatch_refused(
            make_full_ct("table", WORKING, HORIZON, rows=389, ct=LRUCT(capacity=32))
        )

    def test_jet_lazy_cleanup_falls_back_to_scalar(self):
        """(Named for the configuration this one replaced.)  A removal
        cleans the CT actively, so only an entry synced in after it -- a
        late pool delta -- can point at the removed server, and pools
        dispatch scalar: the scalar tier's lazy check drops each such
        entry on its first read, after which the columnar tier matches a
        twin that never saw one."""
        keys = np.array(sample_keys(2000, seed=7), dtype=np.uint64)
        for cls in (JETLoadBalancer, FullCTLoadBalancer):
            lb, twin = _lb_pair(lambda: cls(build("hrw"), UnboundedCT()))
            assert_lb_batch_matches(lb, twin, keys)
            held = [k for k, d in lb.tracked_items().items() if d == "w3"]
            assert held
            for balancer in (lb, twin):
                balancer.remove_working_server("w3")
            for k in held:
                lb.put_tracked(k, "w3")
            assert "w3" not in {lb.get_destination(k) for k in keys.tolist()}
            assert "w3" not in lb.tracked_items().values()
            assert [lb.get_destination(k) for k in keys.tolist()] == [
                twin.get_destination(k) for k in keys.tolist()
            ]
            assert_lb_batch_matches(lb, twin, keys)

    @pytest.mark.parametrize("family", ["maglev", "table"])
    def test_full_ct_batch_matches_scalar_twin(self, family):
        kwargs = {"table_size": 251} if family == "maglev" else {"rows": 389}
        batched, scalar = _lb_pair(
            lambda: make_full_ct(family, WORKING, **kwargs)
        )
        assert_lb_batch_matches(batched, scalar, KEYS[:600])
        assert_lb_batch_matches(batched, scalar, KEYS[:600])
        assert batched.ct.stats == scalar.ct.stats

    def test_stateless_batch_matches_scalar_twin(self):
        batched, scalar = _lb_pair(lambda: StatelessLoadBalancer(build("table")))
        assert_lb_batch_matches(batched, scalar, KEYS[:600])

    def test_empty_batch(self):
        for lb in (
            make_full_ct("table", WORKING, HORIZON, rows=389),
            StatelessLoadBalancer(build("hrw")),
        ):
            out = lb.get_destinations_batch_idx(np.empty(0, dtype=np.uint64))
            assert out.dtype == np.int32 and len(out) == 0


IDX_FAMILIES = ["hrw", "table", "ring", "anchor", "maglev", "jump", "modulo",
                "concury"]
LB_MODES = ["jet", "full-ct", "stateless", "concury"]


def _skip_cell(family, mode):
    """Reason a (family, mode) composition is undefined, or None."""
    if family == "maglev" and mode in ("jet", "concury"):
        return "Maglev has no horizon: no JET/Concury composition"
    if family == "concury" and mode == "concury":
        return "Concury cannot be its own inner family"
    return None


def build_lb(family, mode):
    """One of the 8 families wrapped in one of the 4 LB modes.

    Maglev cannot be JET- or Concury-composed (no horizon); Concury
    cannot nest inside itself; callers skip those cells.
    """
    if mode == "concury":
        return make_lb("concury", family, WORKING, HORIZON, flowsets=512,
                       **_ch_kwargs(family))
    if family == "maglev":
        if mode == "full-ct":
            return make_full_ct("maglev", WORKING, table_size=251)
        return StatelessLoadBalancer(MaglevHash(WORKING, table_size=251))
    if mode == "jet":
        return make_jet(family, WORKING, HORIZON, **_ch_kwargs(family))
    if mode == "full-ct":
        return make_full_ct(family, WORKING, HORIZON, **_ch_kwargs(family))
    return StatelessLoadBalancer(build(family))


def build_idx(family):
    return MaglevHash(WORKING, table_size=251) if family == "maglev" else build(family)


class TestIndexKernels:
    """CH layer: ``backend_table()[lookup_batch_idx(keys)]`` must equal
    the ``lookup`` loop element for element, for every family (Maglev
    included: it has this entry point and no safety variant)."""

    @pytest.mark.parametrize("family", family_choices())
    def test_every_family_has_an_index_kernel(self, family):
        # The columnar tier calls the kernel unprobed, so every family's
        # class defines it: a horizon hash its safety kernel (the plain
        # ``lookup_batch_idx`` is that kernel's first column), Maglev the
        # plain one.
        cls = type(build_idx(family))
        kernel = (
            "lookup_with_safety_batch_idx"
            if issubclass(cls, HorizonConsistentHash)
            else "lookup_batch_idx"
        )
        assert callable(getattr(cls, kernel, None)), family
        assert callable(getattr(cls, "backend_table", None)), family

    @pytest.mark.parametrize("family", IDX_FAMILIES)
    def test_idx_matches_names(self, family):
        assert_idx_matches_scalar(build_idx(family), KEYS[:600])

    @pytest.mark.parametrize("family", IDX_FAMILIES)
    def test_idx_matches_names_after_churn(self, family):
        ch = build_idx(family)
        if family == "maglev":
            ch.remove(WORKING[0])
            ch.add("fresh")
            assert_idx_matches_scalar(ch, KEYS[:400])
            return
        victim = WORKING[-1]
        admit = victim if family == "jump" else HORIZON[0]
        ch.remove_working(victim)
        assert_idx_matches_scalar(ch, KEYS[:400])
        ch.add_working(admit)
        assert_idx_matches_scalar(ch, KEYS[:400])

    @pytest.mark.parametrize("family", IDX_FAMILIES)
    def test_backend_table_identity_contract(self, family):
        # Identity is the columnar translation-cache key: the table must
        # stay the same object while the backend is unchanged, and a
        # published table must never be mutated in place -- a position
        # remap requires a NEW array object (W <-> H moves that keep the
        # position->name mapping intact may keep the same table).
        ch = build_idx(family)
        ch.lookup_batch_idx(KEYS[:16])
        table = ch.backend_table()
        snapshot = table.copy()
        ch.lookup_batch_idx(KEYS[16:64])
        assert ch.backend_table() is table
        admitted = "brand-new"
        if family == "maglev":
            ch.remove(WORKING[0])
            ch.add(admitted)
        elif family == "jump":
            # Jump's membership is an ordered stack: the retired server is
            # the only admissible one, so churn without a new identity.
            admitted = WORKING[-1]
            ch.remove_working(admitted)
            ch.add_working(admitted)
        else:
            ch.remove_working(WORKING[-1])
            ch.add_horizon(admitted)
            ch.add_working(admitted)
        ch.lookup_batch_idx(KEYS[:64])
        fresh = ch.backend_table()
        if fresh is table:
            assert (fresh == snapshot).all(), "published table mutated in place"
        else:
            assert admitted in fresh.tolist()

    @pytest.mark.parametrize("family", IDX_FAMILIES)
    def test_empty_batch(self, family):
        out = build_idx(family).lookup_batch_idx(np.empty(0, dtype=np.uint64))
        assert out.dtype == np.int32 and len(out) == 0


class TestColumnarLB:
    """LB layer: index dispatch == scalar dispatch -- destinations AND
    post-run CT contents -- for 8 families x 4 modes."""

    @pytest.mark.parametrize("family", IDX_FAMILIES)
    @pytest.mark.parametrize("mode", LB_MODES)
    def test_idx_name_scalar_agree(self, family, mode):
        reason = _skip_cell(family, mode)
        if reason:
            pytest.skip(reason)
        idx_lb, scalar_lb = build_lb(family, mode), build_lb(family, mode)
        assert_lb_batch_matches(idx_lb, scalar_lb, KEYS[:800])
        # Second pass re-reads the CT entries the first one wrote.
        assert_lb_batch_matches(idx_lb, scalar_lb, KEYS[:800])

    @pytest.mark.parametrize("family", [f for f in IDX_FAMILIES if f != "maglev"])
    @pytest.mark.parametrize("mode", LB_MODES)
    def test_idx_path_survives_churn(self, family, mode):
        reason = _skip_cell(family, mode)
        if reason:
            pytest.skip(reason)
        idx_lb, scalar_lb = build_lb(family, mode), build_lb(family, mode)
        keys = KEYS[:500]
        assert _decode_idx_run(idx_lb, keys) == [
            scalar_lb.get_destination(int(k)) for k in keys.tolist()
        ]
        victim = WORKING[-1]  # Jump retires in LIFO order
        admit = victim if family == "jump" else HORIZON[0]
        for lb in (idx_lb, scalar_lb):
            lb.remove_working_server(victim)
            lb.add_working_server(admit)
        assert _decode_idx_run(idx_lb, keys) == [
            scalar_lb.get_destination(int(k)) for k in keys.tolist()
        ]
        assert _tracked(idx_lb) == _tracked(scalar_lb)

    def test_mixed_mode_single_balancer(self):
        # One balancer serving scalar and index-batch calls interleaved
        # must stay consistent with a scalar-only twin.
        mixed, twin = build_lb("table", "jet"), build_lb("table", "jet")
        k1, k2, k3 = KEYS[:200], KEYS[200:400], KEYS[100:300]
        for batch, scalar_leg in ((k1, k3), (k2, k1)):
            assert _decode_idx_run(mixed, batch) == [
                twin.get_destination(int(k)) for k in batch.tolist()
            ]
            assert [mixed.get_destination(int(k)) for k in scalar_leg.tolist()] == [
                twin.get_destination(int(k)) for k in scalar_leg.tolist()
            ]
        assert _tracked(mixed) == _tracked(twin)
        assert mixed.ct.stats == twin.ct.stats

    @pytest.mark.parametrize("mode", LB_MODES)
    def test_columnar_effective_probes(self, mode):
        assert build_lb("table", mode).columnar_effective
        # CT configs the columnar path cannot serve must report
        # not-effective.
        if mode == "jet":
            assert not make_jet(
                "hrw", WORKING, HORIZON, ct=LRUCT(capacity=32)
            ).columnar_effective
            assert not PowerOfTwoJET(build("hrw"), UnboundedCT()).columnar_effective
        elif mode == "full-ct":
            assert make_full_ct("maglev", WORKING, table_size=251).columnar_effective
            assert not make_full_ct(
                "table", WORKING, HORIZON, rows=389, ct=LRUCT(capacity=32)
            ).columnar_effective

    def test_idx_empty_batch(self):
        lb = build_lb("hrw", "jet")
        out = lb.get_destinations_batch_idx(np.empty(0, dtype=np.uint64))
        assert out.dtype == np.int32 and len(out) == 0


def _forbid_idx(balancer):
    def forbidden(keys):
        raise AssertionError("replay_batch assembled batches the probe ruled out")

    balancer.get_destinations_batch_idx = forbidden
    return balancer


class TestNeverSlowerRouting:
    """Stacks the ``columnar_effective`` probe rejects must route straight
    through the scalar loop, never through batch assembly."""

    def test_replay_batch_delegates_for_scalar_only_stack(self):
        makers = {
            "bounded-ct": lambda: make_jet(
                "hrw", WORKING, HORIZON, ct=LRUCT(capacity=32)
            ),
            "jet-p2c": lambda: PowerOfTwoJET(build("hrw"), UnboundedCT()),
            "full-ct-bounded": lambda: make_full_ct(
                "table", WORKING, HORIZON, rows=389, ct=LRUCT(capacity=32)
            ),
        }
        for label, maker in makers.items():
            batched_lb, scalar_lb = _forbid_idx(maker()), maker()
            batched = replay_batch(TRACE, batched_lb, churn_events())
            scalar = replay(TRACE, scalar_lb, churn_events())
            assert _replay_fields(batched) == _replay_fields(scalar), label
            # Recency order (and therefore who got evicted) included.
            assert list(batched_lb.tracked_items().items()) == list(
                scalar_lb.tracked_items().items()
            ), label
            assert batched_lb.ct.stats == scalar_lb.ct.stats, label


def _replay_fields(result):
    """The deterministic ReplayResult fields (rate/wall excluded)."""
    return (
        result.pcc_violations,
        result.inevitably_broken,
        result.tracked_connections,
        result.max_oversubscription,
        result.server_loads,
        result.n_flows,
        result.n_packets,
    )


class TestReplayBatch:
    TRACE = zipf_trace(skew=1.0, n_packets=20_000, population=4_000, seed=11)

    def test_matches_scalar_without_events(self):
        scalar = replay(self.TRACE, make_jet("table", WORKING, HORIZON, rows=389))
        batched = replay_batch(self.TRACE, make_jet("table", WORKING, HORIZON, rows=389))
        assert _replay_fields(batched) == _replay_fields(scalar)

    def test_matches_scalar_with_events(self):
        def events():
            return [
                (5_000, lambda lb: lb.remove_working_server(WORKING[2])),
                (12_000, lambda lb: lb.add_working_server(HORIZON[0])),
            ]

        scalar = replay(self.TRACE, make_jet("hrw", WORKING, HORIZON), events())
        batched = replay_batch(self.TRACE, make_jet("hrw", WORKING, HORIZON), events())
        assert _replay_fields(batched) == _replay_fields(scalar)

    @pytest.mark.parametrize("chunk_size", [1, 7, 100_000])
    def test_chunk_size_edges(self, chunk_size):
        scalar = replay(self.TRACE, StatelessLoadBalancer(build("hrw")))
        batched = replay_batch(
            self.TRACE, StatelessLoadBalancer(build("hrw")), chunk_size=chunk_size
        )
        assert _replay_fields(batched) == _replay_fields(scalar)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            replay_batch(self.TRACE, StatelessLoadBalancer(build("hrw")), chunk_size=0)


HORIZON_FAMILIES = [
    f for f in family_choices() if issubclass(FAMILIES[f], HorizonConsistentHash)
]


STACKS = {"jet": make_jet, "full": make_full_ct}


def _stack(mode, family):
    return STACKS[mode](family, WORKING, HORIZON, **_ch_kwargs(family))


def _jet(family):
    return _stack("jet", family)


def _unsafe_keys(family, count):
    """The first ``count`` keys of KEYS that JET tracks on sight."""
    ch = _jet(family).ch
    return [k for k in KEYS.tolist() if ch.lookup_with_safety(k)[1]][:count]


def _hot_unsafe_trace(family):
    """Three packets in four belong to one flow JET tracks: its CT turns
    hit-heavy, so the dispatch turns to the CT-first order."""
    [hot] = _unsafe_keys(family, 1)
    keys = [hot] + [k for k in KEYS.tolist()[:1000] if k != hot]
    rng = np.random.default_rng(5)
    packets = np.where(rng.random(6_000) < 0.75, 0, rng.integers(1, len(keys), 6_000))
    return Trace("hot-unsafe", np.array(keys, dtype=np.uint64), packets)


def _crossing_trace(family):
    """Hot on four flows both stacks track, a flood of 3 000 fresh flows,
    hot again: the cumulative CT hit ratio falls below 1/2 in the flood
    (packet ~2 000) and climbs back over it in the second hot phase
    (~6 000), for JET and full CT alike."""
    hot = _unsafe_keys(family, 4)
    keys = np.array(hot + sample_keys(3_000, seed=9), dtype=np.uint64)
    rng = np.random.default_rng(3)
    packets = np.concatenate(
        [rng.integers(0, 4, 1_000), np.arange(4, len(keys)), rng.integers(0, 4, 5_000)]
    )
    return Trace("crossing", keys, packets)


TRACE_6K = zipf_trace(skew=1.0, n_packets=6_000, population=1_500, seed=21)
#: Remove / re-add the last working server (Jump's LIFO order allows no
#: other), at packet indices no chunk size above 1 divides.
CHURN = [
    (1_234, lambda lb: lb.remove_working_server(WORKING[-1])),
    (2_999, lambda lb: lb.add_working_server(WORKING[-1])),
    (4_097, lambda lb: lb.remove_working_server(WORKING[-1])),
    (5_555, lambda lb: lb.add_working_server(WORKING[-1])),
]
#: Chunk cuts (no-op events) at the crossing run's phase boundaries and
#: past its upward crossing: every chunk size reads the regime there.
CUTS = [(at, lambda lb: None) for at in (1_000, 4_000, 7_000)]
#: Every working server leaves, last first; the packet at DRAINED has none.
DRAINED = 2_000 + 150 * (len(WORKING) - 1)
DRAIN = [
    (2_000 + 150 * i, lambda lb, name=name: lb.remove_working_server(name))
    for i, name in enumerate(reversed(WORKING))
]
RUNS = {
    "hot-unsafe": (_hot_unsafe_trace, ()),
    "churn": (lambda family: TRACE_6K, CHURN),
    "crossing": (_crossing_trace, CUTS),
    "drain": (lambda family: TRACE_6K, DRAIN),
    "steady": (lambda family: TRACE_6K, ()),
}
CHUNKS = [1, 7, 4_096, DEFAULT_CHUNK]
REPLAYED = ["hot-unsafe", "churn", "crossing"]


@lru_cache(maxsize=None)
def _scalar_run(mode, family, run):
    """The scalar spec's replay, and its balancer, once per stack and run."""
    make_trace, events = RUNS[run]
    lb = _stack(mode, family)
    return replay(make_trace(family), lb, events), lb


class TestColumnarJETEqualsScalar:
    """The columnar Algorithm 1 asks the CH or the CT first, as the CT's
    regime says: the CT must still end up as the scalar loop leaves it,
    counters included, for JET and full CT over every horizon family and
    chunk size."""

    @pytest.mark.parametrize("chunk_size", CHUNKS)
    @pytest.mark.parametrize("run", REPLAYED)
    @pytest.mark.parametrize("family", HORIZON_FAMILIES)
    def test_replay_down_to_the_ct(self, family, run, chunk_size, monkeypatch):
        self.assert_replay_down_to_the_ct("jet", family, run, chunk_size, monkeypatch)

    @pytest.mark.parametrize("chunk_size", CHUNKS)
    @pytest.mark.parametrize("run", REPLAYED)
    @pytest.mark.parametrize("family", HORIZON_FAMILIES)
    def test_full_ct_replay_down_to_the_ct(self, family, run, chunk_size, monkeypatch):
        self.assert_replay_down_to_the_ct("full", family, run, chunk_size, monkeypatch)

    @staticmethod
    def assert_replay_down_to_the_ct(mode, family, run, chunk_size, monkeypatch):
        scalar, scalar_lb = _scalar_run(mode, family, run)
        make_trace, events = RUNS[run]
        lb = _stack(mode, family)
        regimes = []  # per probe: did it start hit-heavy (the full search)?
        orders = []  # per dispatch: the CT's probe, i.e. which came first
        probe = UnboundedCT._probe

        def spied(ct, keys):
            regimes.append(2 * ct.stats.hits >= ct.stats.lookups > 0)
            return probe(ct, keys)

        monkeypatch.setattr(UnboundedCT, "_probe", spied)
        for name in ("get_batch_idx", "get_hits_idx"):
            entry = getattr(UnboundedCT, name)

            def recorded(ct, keys, _entry=entry, _name=name):
                orders.append(_name)
                return _entry(ct, keys)

            monkeypatch.setattr(UnboundedCT, name, recorded)
        batched = replay_batch(make_trace(family), lb, events, chunk_size=chunk_size)
        assert _replay_fields(batched) == _replay_fields(scalar)
        assert lb.ct.stats == scalar_lb.ct.stats
        assert lb.tracked_items() == scalar_lb.tracked_items()
        if run == "hot-unsafe" and chunk_size < DEFAULT_CHUNK:
            assert any(regimes)
        # A never-probed table counts as miss-heavy: the first chunk asks
        # the CH first and the empty CT for its hits alone.
        assert orders[0] == "get_hits_idx", orders[:3]
        if run == "crossing":
            # CH first into the empty table, CT first while hit-heavy, CH
            # first in the flood, CT first again once the hot flows have
            # won the ratio back.
            switches = [a for a, b in zip(orders, orders[1:]) if a != b]
            assert switches[-2:] == ["get_batch_idx", "get_hits_idx"], switches

    @pytest.mark.parametrize("chunk_size", CHUNKS)
    @pytest.mark.parametrize("family", HORIZON_FAMILIES)
    def test_drained_working_set_raises_from_the_first_chunk_after(
        self, family, chunk_size
    ):
        # With active cleanup the drain leaves no live CT entry: every key
        # of the next chunk misses, so a CT-first dispatch would raise from
        # the CH on that call too, and no earlier call may.
        lb = _jet(family)
        dispatched = []
        dispatch = lb.get_destinations_batch_idx

        def spied(keys):
            dispatched.append((len(keys), len(lb.working)))
            return dispatch(keys)

        lb.get_destinations_batch_idx = spied
        with pytest.raises(BackendError):
            replay_batch(TRACE_6K, lb, DRAIN, chunk_size=chunk_size)
        assert len(lb.ct) == 0
        *served, (_, working) = dispatched
        assert working == 0 and all(alive for _, alive in served)
        assert sum(n for n, _ in served) == DRAINED
        with pytest.raises(BackendError):
            _scalar_run("jet", family, "drain")


#: Each backend-change entry point, with a name it accepts on a fresh stack.
CHANGES = {
    "add_working_server": HORIZON[0],
    "remove_working_server": WORKING[-1],
    "add_horizon_server": "fresh",
    "remove_horizon_server": HORIZON[-1],
    "force_add_working_server": "fresh",
}
#: Modulo's conservative rule calls almost every key unsafe under a
#: horizon, which leaves the sparse probe no key to skip.
SPARSE_FAMILIES = [f for f in HORIZON_FAMILIES if f != "modulo"]


class TestUnsafeOnlyProbe:
    """Until a backend change, every key JET's CT holds is one the CH
    calls unsafe, so the CH-first dispatch asks the CT for those keys
    alone.  After a change, or a CT write JET did not make, the next such
    chunk re-checks the CT's keys, and until the next change the probe
    also takes the keys whose CH answer is that of a key the CT holds and
    the CH now calls safe."""

    @staticmethod
    def spy(monkeypatch):
        """The key arrays ``UnboundedCT.get_hits_idx`` receives."""
        probed = []
        entry = UnboundedCT.get_hits_idx

        def recorded(ct, keys):
            probed.append(np.array(keys))
            return entry(ct, keys)

        monkeypatch.setattr(UnboundedCT, "get_hits_idx", recorded)
        return probed

    @staticmethod
    def dispatch(lb, scalar_lb, keys):
        """One chunk through ``lb`` and packet by packet through
        ``scalar_lb``: names, CT contents and counters must agree."""
        ids = lb.get_destinations_batch_idx(keys)
        names = lb.dispatch_names()[ids].tolist()
        assert names == [scalar_lb.get_destination(k) for k in keys.tolist()]
        assert lb.tracked_items() == scalar_lb.tracked_items()
        assert lb.ct.stats == scalar_lb.ct.stats
        return names

    @pytest.mark.parametrize("chunk_size", [1_000, DEFAULT_CHUNK])
    @pytest.mark.parametrize("family", HORIZON_FAMILIES)
    def test_event_free_replay_probes_the_unsafe_keys(
        self, family, chunk_size, monkeypatch
    ):
        scalar, scalar_lb = _scalar_run("jet", family, "steady")
        lb = _jet(family)
        probed = self.spy(monkeypatch)
        sparse = []  # per chunk: its keys, and what get_hits_idx received
        dispatch = lb.get_destinations_batch_idx

        def spied(keys):
            calls = len(probed)
            ids = dispatch(keys)
            sparse.append((keys, probed[calls:]))
            return ids

        lb.get_destinations_batch_idx = spied
        batched = replay_batch(TRACE_6K, lb, chunk_size=chunk_size)
        assert _replay_fields(batched) == _replay_fields(scalar)
        assert lb.ct.stats == scalar_lb.ct.stats
        assert lb.tracked_items() == scalar_lb.tracked_items()
        # Every CH-first chunk (the first at least; a CT-first one makes
        # no sparse probe) asks for exactly its unsafe keys.
        assert sparse[0][1]
        for chunk, calls in sparse:
            _, unsafe = lb.ch.lookup_with_safety_batch_idx(chunk)
            assert [got.tolist() for got in calls] in ([], [chunk[unsafe].tolist()])

    @pytest.mark.parametrize("change", sorted(CHANGES))
    @pytest.mark.parametrize("family", SPARSE_FAMILIES)
    def test_a_backend_change_probes_every_key_until_the_ct_empties(
        self, family, change, monkeypatch
    ):
        """(Named for the rule this one replaced.)  After each of the five
        changes, made while the CT holds entries, every probe receives
        exactly the keys the CH calls unsafe or whose answer is marked:
        the answer of a key the CT holds that the CH now calls safe."""
        if (family, change) == ("jump", "force_add_working_server"):
            pytest.skip("Jump cannot force-add while a horizon exists")
        lb, scalar_lb = _jet(family), _jet(family)
        chunks = np.array_split(KEYS, 5)
        probed = self.spy(monkeypatch)
        self.dispatch(lb, scalar_lb, chunks[0])
        assert len(probed[-1]) < len(chunks[0]) and len(lb.ct)
        for balancer in (lb, scalar_lb):
            getattr(balancer, change)(CHANGES[change])
        assert len(lb.ct)
        marked = set()
        for key in scalar_lb.tracked_items():
            answer, unsafe = scalar_lb.ch.lookup_with_safety(key)
            if not unsafe:
                marked.add(answer)
        for chunk in chunks[1:]:
            calls = len(probed)
            self.dispatch(lb, scalar_lb, chunk)
            expected = []
            for key in chunk.tolist():
                answer, unsafe = scalar_lb.ch.lookup_with_safety(key)
                if unsafe or answer in marked:
                    expected.append(key)
            assert len(probed) == calls + 1
            assert probed[-1].tolist() == expected
            assert len(expected) < len(chunk)

    @pytest.mark.parametrize(
        "chunk_first", [pytest.param(False, id="names"), pytest.param(True, id="ids")]
    )
    @pytest.mark.parametrize("family", SPARSE_FAMILIES)
    def test_a_foreign_put_of_a_safe_key_hits(self, family, chunk_first):
        lb, scalar_lb = _jet(family), _jet(family)
        if chunk_first:
            self.dispatch(lb, scalar_lb, KEYS[:500])
        rest = KEYS[500:900]
        safe = next(k for k in rest.tolist() if not lb.ch.lookup_with_safety(k)[1])
        peer = next(w for w in WORKING if w != lb.ch.lookup(safe))
        for balancer in (lb, scalar_lb):  # as LBPool syncs
            balancer.put_tracked(safe, peer)
        keys = np.concatenate([np.array([safe], dtype=np.uint64), rest])
        assert self.dispatch(lb, scalar_lb, keys)[0] == peer


class TestBackendIndexerIdsAt:
    """``ids_at`` is the fancy-indexed translation, gathered cheaply."""

    def assert_ids_at(self, indexer, table, positions):
        got = indexer.ids_at(table, positions)
        assert got.dtype == np.int32
        assert got.tolist() == indexer.translate(table)[positions].tolist()
        return got

    def test_identity_hands_back_the_positions(self):
        ch = TableHRWHash(WORKING, HORIZON, rows=389)
        indexer = BackendIndexer()
        positions = ch.lookup_batch_idx(KEYS[:300])
        assert self.assert_ids_at(indexer, ch.backend_table(), positions) is positions

    def test_identity_ends_with_a_retired_slot(self):
        ch = TableHRWHash(WORKING, HORIZON, rows=389)
        indexer = BackendIndexer()
        self.assert_ids_at(indexer, ch.backend_table(), ch.lookup_batch_idx(KEYS[:50]))
        ch.remove_working(WORKING[2])
        ch.remove_horizon(WORKING[2])
        ch.add_horizon("fresh")
        ch.add_working("fresh")
        table = ch.backend_table()
        assert None in table.tolist()
        retired = table.tolist().index(None)
        assert indexer.translate(table)[retired] == -1
        positions = np.append(ch.lookup_batch_idx(KEYS[:300]), np.int32(retired))
        got = self.assert_ids_at(indexer, table, positions)
        assert got is not positions and got[-1] == -1
        assert got[:-1].tolist() == [
            indexer.get_id(ch.lookup(k)) for k in KEYS[:300].tolist()
        ]

    @pytest.mark.parametrize("family", ["anchor", "ring"])
    def test_other_orders_are_gathered(self, family):
        ch = build(family)
        indexer = BackendIndexer()
        indexer.get_id(HORIZON[-1])  # registered before the table is seen
        positions = ch.lookup_batch_idx(KEYS[:300])
        got = self.assert_ids_at(indexer, ch.backend_table(), positions)
        assert got is not positions
        assert [indexer.names[i] for i in got.tolist()] == [ch.lookup(k) for k in KEYS[:300].tolist()]


def test_samples_stop_at_duration():
    """_on_sample must not re-push sample events past the horizon of the
    run; every recorded sample time stays within duration_s."""
    result = run_simulation(
        SimulationConfig(
            duration_s=5.0,
            connection_rate=50.0,
            n_servers=4,
            horizon_size=1,
            update_rate_per_min=0.0,
            sample_interval=1.0,
            seed=1,
        )
    )
    assert result.sample_times == [1.0, 2.0, 3.0, 4.0, 5.0]
