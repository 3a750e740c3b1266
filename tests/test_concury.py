"""ConcuryHash / ConcuryLoadBalancer contracts beyond the shared matrices.

The registry-driven suites (test_batch_differential, test_batch_hypothesis,
test_replay_columnar, test_shard_replay) already hold Concury to the
idx == scalar and merge == single contracts.  This file pins the
family-specific properties: flowset granularity, control-plane patching
with atomic version flips, connection-count-independent memory, the
horizon-safety semantics at flowset level, and the JET-over-Concury
composition.
"""

import numpy as np
import pytest

from repro.ch import BackendError, ConcuryHash
from repro.ch.properties import sample_keys
from repro.core.concury import ConcuryLoadBalancer
from repro.core.factories import make_jet, make_lb
from repro.hashing.othello import Othello
from repro.hashing.vector import _TILE_KEYS

WORKING = [f"s{i}" for i in range(10)]
HORIZON = [f"h{i}" for i in range(3)]
KEYS = np.array(sample_keys(4000, seed=19), dtype=np.uint64)


def build(**kwargs):
    kwargs.setdefault("inner", "table")
    kwargs.setdefault("flowsets", 512)
    kwargs.setdefault("rows", 389)
    return ConcuryHash(WORKING, HORIZON, **kwargs)


def batch_names(ch, keys):
    """``(names, unsafe)`` of the index kernel, decoded at the edge."""
    idx, unsafe = ch.lookup_with_safety_batch_idx(keys)
    return ch.backend_table()[idx], unsafe


class TestFlowsetGranularity:
    def test_same_flowset_same_backend(self):
        ch = build()
        fs = np.array([ch.flowset_of(int(k)) for k in KEYS.tolist()])
        names, _ = batch_names(ch, KEYS)
        by_fs = {}
        for s, name in zip(fs.tolist(), names.tolist()):
            assert by_fs.setdefault(s, name) == name

    def test_lookup_agrees_with_inner_on_flowset_key(self):
        # New-flow assignment stays CH-driven: a flowset lands where the
        # inner CH sends its pseudo-key.
        ch = build()
        for k in KEYS[:200].tolist():
            s = ch.flowset_of(k)
            assert ch.lookup(k) == ch._inner.lookup(int(ch._fs_keys[s]))

    def test_flowsets_must_be_pow2(self):
        with pytest.raises(BackendError, match="power of two"):
            build(flowsets=500)

    def test_unknown_inner_rejected(self):
        with pytest.raises(BackendError, match="inner"):
            build(inner="maglev")
        with pytest.raises(BackendError, match="inner"):
            build(inner="concury")

    @pytest.mark.parametrize("inner", ["hrw", "ring", "anchor", "modulo"])
    def test_other_inner_families(self, inner):
        kwargs = {"inner": inner, "flowsets": 256}
        if inner == "anchor":
            kwargs["capacity"] = 4 * (len(WORKING) + len(HORIZON))
        ch = ConcuryHash(WORKING, HORIZON, **kwargs)
        names, unsafe = batch_names(ch, KEYS[:500])
        expected = [ch.lookup_with_safety(int(k)) for k in KEYS[:500]]
        assert list(names) == [d for d, _ in expected]
        assert unsafe.tolist() == [u for _, u in expected]
        assert set(names.tolist()) <= set(WORKING)


class TestSafetySemantics:
    def test_safe_flowsets_never_move_on_horizon_admission(self):
        ch = build()
        names, unsafe = batch_names(ch, KEYS)
        for h in HORIZON:
            ch.add_working(h)
        after, _ = batch_names(ch, KEYS)
        moved_safe = [
            (b, a)
            for b, a, u in zip(names.tolist(), after.tolist(), unsafe.tolist())
            if not u and b != a
        ]
        assert moved_safe == []

    def test_unsafe_fraction_scales_with_horizon(self):
        small = ConcuryHash(WORKING, HORIZON[:1], flowsets=1024, rows=389)
        large = ConcuryHash(WORKING, HORIZON + [f"hx{i}" for i in range(9)],
                            flowsets=1024, rows=389)
        _, u_small = batch_names(small, KEYS)
        _, u_large = batch_names(large, KEYS)
        assert u_small.mean() < u_large.mean()


class TestControlPlanePatching:
    def test_membership_change_patches_not_rebuilds(self):
        ch = build()
        assert ch.rebuilds == 1 and ch.patches == 0  # initial build
        ch.remove_working(WORKING[-1])
        assert ch.patches == 1 and ch.rebuilds == 1
        # Roughly 1/|W| of flowsets move; far fewer than the rebuild
        # threshold, and each touches O(log S) Othello cells.
        assert 0 < ch.last_refresh_changed <= ch.flowsets // 2
        assert ch.last_refresh_touched >= ch.last_refresh_changed

    def test_atomic_version_flip(self):
        ch = build()
        old_map = ch._map
        ch.remove_working(WORKING[0])
        assert ch._map is not old_map  # readers saw old or new, never mixed

    def test_mass_change_falls_back_to_rebuild(self):
        ch = ConcuryHash(WORKING, HORIZON, inner="modulo", flowsets=256)
        # mod-N renumbers nearly everything on removal: the patch path
        # would touch more cells than a bulk build, so refresh rebuilds.
        ch.remove_working(WORKING[0])
        assert ch.rebuilds == 2

    def test_backend_table_identity_per_version(self):
        ch = build()
        t1 = ch.backend_table()
        assert ch.backend_table() is t1
        ch.add_horizon("brand-new")
        t2 = ch.backend_table()
        assert t2 is not t1
        assert "brand-new" in ch._slot_index

    def test_empty_working_set(self):
        ch = ConcuryHash(["a"], [], flowsets=64)
        ch.remove_working("a")
        with pytest.raises(BackendError):
            ch.lookup(1)
        with pytest.raises(BackendError):
            ch.lookup_with_safety_batch_idx(KEYS[:4])
        ch.add_working("a")
        assert ch.lookup(1) == "a"


class TestMemoryModel:
    def test_memory_independent_of_connection_count(self):
        ch = build()
        before = ch.memory_bytes
        ch.lookup_batch_idx(KEYS)  # 4k distinct connections
        ch.lookup_batch_idx(np.array(sample_keys(4000, seed=77), dtype=np.uint64))
        assert ch.memory_bytes == before

    def test_memory_scales_with_flowsets(self):
        small = build(flowsets=256)
        large = build(flowsets=4096)
        assert large.memory_bytes > small.memory_bytes
        # Othello A+B at 16-bit cells: a few bytes per flowset.
        assert large.memory_bytes < 64 * 4096


class TestLoadBalancer:
    def test_factory_and_registry(self):
        lb = make_lb("concury", "table", WORKING, HORIZON, flowsets=512, rows=389)
        assert isinstance(lb, ConcuryLoadBalancer)
        with pytest.raises(TypeError):
            ConcuryLoadBalancer(build()._inner)

    def test_no_tracked_state(self):
        lb = make_lb("concury", "table", WORKING, HORIZON, flowsets=512, rows=389)
        lb.get_destinations_batch_idx(KEYS)
        assert lb.tracked_connections == 0
        assert lb.columnar_effective

    def test_update_stats_surface(self):
        lb = make_lb("concury", "table", WORKING, HORIZON, flowsets=512, rows=389)
        lb.remove_working_server(WORKING[0])
        stats = lb.update_stats
        assert stats["patches"] == 1 and stats["rebuilds"] == 1
        # flowsets_changed accumulates the initial bulk build too;
        # the patch event itself is the last_* pair.
        assert stats["last_touched"] >= stats["last_changed"] > 0
        assert stats["flowsets_changed"] >= stats["last_changed"]
        assert lb.map_memory_bytes == lb.ch.memory_bytes

    def test_jet_over_concury_tracks_flowset_unsafe_only(self):
        # Bonus composition: JET at flowset granularity.  Tracked entries
        # are exactly the packets whose flowset is horizon-unsafe.
        jet = make_jet("concury", WORKING, HORIZON, flowsets=512, rows=389)
        jet.get_destinations_batch_idx(KEYS)
        _, unsafe = batch_names(jet.ch, KEYS)
        assert jet.tracked_connections == len(
            {int(k) for k, u in zip(KEYS.tolist(), unsafe.tolist()) if u}
        )


class TestTiledKernel:
    """The columnar kernel runs in ``_TILE_KEYS`` tiles on reused scratch;
    every tile boundary must agree with the scalar dataplane."""

    @pytest.mark.parametrize(
        "n", [0, 1, _TILE_KEYS - 1, _TILE_KEYS, _TILE_KEYS + 1, 3 * _TILE_KEYS + 5]
    )
    def test_equals_scalar_at_tile_edges(self, n):
        ch = build()
        keys = np.random.default_rng(n).integers(0, 2**64, size=n, dtype=np.uint64)
        copy = keys.copy()
        idx, unsafe = ch.lookup_with_safety_batch_idx(keys)
        assert idx.dtype == np.int32 and unsafe.dtype == bool
        assert idx.shape == unsafe.shape == (n,)
        expected = [ch.lookup_with_safety(k) for k in keys.tolist()]
        assert ch.backend_table()[idx].tolist() == [d for d, _ in expected]
        assert unsafe.tolist() == [u for _, u in expected]
        assert np.array_equal(keys, copy)

    def test_read_only_input(self):
        ch = build()
        keys = KEYS.copy()
        keys.setflags(write=False)
        names, unsafe = batch_names(ch, keys)
        expected = [ch.lookup_with_safety(int(k)) for k in KEYS.tolist()]
        assert names.tolist() == [d for d, _ in expected]
        assert unsafe.tolist() == [u for _, u in expected]


class TestOthelloValueWidth:
    def test_slot_space_fits_value_bits(self):
        # The Othello map stores 16-bit slot ids; the family must keep
        # working until the append-only slot space approaches that bound.
        ch = build(flowsets=256)
        for i in range(40):
            ch.add_horizon(f"extra{i}")
        assert isinstance(ch._map, Othello)
        assert len(ch._slots) == len(WORKING) + len(HORIZON) + 40
        names, _ = batch_names(ch, KEYS[:200])
        assert set(names.tolist()) <= set(WORKING)

    @pytest.mark.parametrize(
        "admit", ["add_horizon_server", "force_add_working_server"]
    )
    def test_full_slot_space_refuses_before_anything_changes(self, admit):
        # Retired names keep their slot, so a long-lived balancer can use
        # up all 65 536 ids.  The refusal must come before the inner CH
        # admits the server (it used to surface as Othello's ValueError,
        # after), and must name the limit.
        lb = make_lb("concury", "table", WORKING, HORIZON, flowsets=512, rows=389)
        ch = lb.ch
        for i in range(len(ch._slots), 1 << 16):
            ch._slot_index[f"retired{i}"] = i
            ch._slots.append(f"retired{i}")
        before = lb.get_destinations_batch_idx(KEYS).copy()
        state = (lb.working, ch.working, ch.horizon, ch._map, ch.patches)
        with pytest.raises(BackendError, match="65536"):
            getattr(lb, admit)("one-too-many")
        assert (lb.working, ch.working, ch.horizon, ch._map, ch.patches) == state
        assert ch._inner.working == ch.working and len(ch._slots) == 1 << 16
        assert np.array_equal(lb.get_destinations_batch_idx(KEYS), before)
        assert batch_names(ch, KEYS)[0].tolist() == [ch.lookup(int(k)) for k in KEYS]
        # A name that has a slot already is still welcome.
        lb.add_working_server(HORIZON[0])
        assert HORIZON[0] in lb.working
