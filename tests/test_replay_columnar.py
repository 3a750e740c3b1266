"""The columnar replay loop: integer-index dispatch end to end.

Three contracts:

1. **Metric equivalence** -- for every (family, LB mode) combination whose
   ``columnar_effective`` probe answers True, ``replay_batch`` (which takes
   the columnar loop) must reproduce the scalar ``replay`` metrics exactly,
   with and without injected churn events.
2. **Zero objects on the hot path** -- once warmed, a churn-free columnar
   replay allocates no object-dtype arrays anywhere except the single
   name-resolution call at the result edge (asserted by instrumenting the
   numpy allocators).
3. **Bigger-than-RAM traces** -- a chunk-streamed trace at least twice a
   stated RAM-equivalent budget, loaded via memmap, replays with metrics
   identical to an in-memory load of the same file.
"""

import numpy as np
import pytest

from repro.core import StatelessLoadBalancer, make_ch, make_full_ct, make_jet
from repro.core.factories import make_lb
from repro.core.interfaces import LoadBalancer
from repro.hashing.mix import splitmix64
from repro.obs import Registry, metrics as M
from repro.traces import (
    Trace,
    load_trace,
    replay,
    replay_batch,
    zipf_trace,
    zipf_trace_stream,
)
from repro.traces.replay import DEFAULT_CHUNK

WORKING = [f"s{i}" for i in range(16)]
HORIZON = [f"h{i}" for i in range(4)]

TRACE = zipf_trace(skew=1.0, n_packets=15_000, population=3_000, seed=21)

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


def _ch_kwargs(family):
    if family == "table":
        return {"rows": 389}
    if family == "anchor":
        return {"capacity": 4 * (len(WORKING) + len(HORIZON))}
    if family == "ring":
        return {"virtual_nodes": 20}
    if family == "maglev":
        return {"table_size": 251}
    if family == "concury":
        return {"flowsets": 512, "rows": 389}
    return {}


def build_lb(family, mode):
    kwargs = _ch_kwargs(family)
    if mode == "concury":
        return make_lb("concury", family, WORKING, HORIZON, flowsets=512, **kwargs)
    if family == "maglev":
        if mode == "full-ct":
            return make_full_ct("maglev", WORKING, table_size=251)
        return StatelessLoadBalancer(make_ch("maglev", WORKING, table_size=251))
    if mode == "jet":
        return make_jet(family, WORKING, HORIZON, **kwargs)
    if mode == "full-ct":
        return make_full_ct(family, WORKING, HORIZON, **kwargs)
    return StatelessLoadBalancer(make_ch(family, WORKING, HORIZON, **kwargs))


def _fields(result):
    return (
        result.pcc_violations,
        result.inevitably_broken,
        result.tracked_connections,
        result.max_oversubscription,
        result.server_loads,
        result.n_flows,
        result.n_packets,
    )


class TestColumnarEquivalence:
    @pytest.mark.parametrize("family", IDX_FAMILIES)
    @pytest.mark.parametrize("mode", LB_MODES)
    def test_matches_scalar(self, family, mode):
        reason = _skip_cell(family, mode)
        if reason:
            pytest.skip(reason)
        columnar_lb = build_lb(family, mode)
        assert columnar_lb.columnar_effective, (family, mode)
        columnar = replay_batch(TRACE, columnar_lb)
        scalar = replay(TRACE, build_lb(family, mode))
        assert _fields(columnar) == _fields(scalar), (family, mode)

    @pytest.mark.parametrize("family", ["hrw", "table", "anchor", "jump"])
    @pytest.mark.parametrize("mode", ["jet", "full-ct", "concury"])
    def test_matches_scalar_with_events(self, family, mode):
        victim = WORKING[-1]  # Jump retires in LIFO order
        admit = victim if family == "jump" else HORIZON[0]

        def events():
            return [
                (4_000, lambda lb: lb.remove_working_server(victim)),
                (10_000, lambda lb: lb.add_working_server(admit)),
            ]

        columnar = replay_batch(TRACE, build_lb(family, mode), events())
        scalar = replay(TRACE, build_lb(family, mode), events())
        assert _fields(columnar) == _fields(scalar), (family, mode)

    def test_publishes_columnar_dispatch_path(self):
        registry = Registry()
        replay_batch(TRACE, build_lb("table", "jet"), metrics=registry)
        registry.collect()
        assert registry.value(M.DISPATCH_PACKETS, path="columnar") == TRACE.n_packets

    def test_columnar_run_never_touches_name_batch(self):
        # No per-packet name path may run beside the idx loop.
        lb = build_lb("table", "jet")

        def forbidden(key):
            raise AssertionError("columnar replay fell back to per-packet dispatch")

        lb.get_destination = forbidden
        result = replay_batch(TRACE, lb)
        assert result.n_packets == TRACE.n_packets

    @pytest.mark.parametrize("chunk_size", [1, 7, 100_000])
    def test_chunk_size_edges(self, chunk_size):
        scalar = replay(TRACE, build_lb("table", "jet"))
        columnar = replay_batch(TRACE, build_lb("table", "jet"), chunk_size=chunk_size)
        assert _fields(columnar) == _fields(scalar)


class TestOneChunkHoldsAFlowsWholeStory:
    """240 packets over 40 flows, each flow six times, with a removal at
    packet 50 and an addition at packet 130: any chunk of 4 096 or
    more would hold a flow's first packet, its repeats and its moved
    packet at once, and both event indices fall inside it (inside a
    7-packet chunk too), so the split at events is what keeps the
    accounting right."""

    STORY = Trace(
        "story",
        np.array([splitmix64(i) for i in range(1, 41)], dtype=np.uint64),
        np.concatenate(
            [np.random.default_rng(5).permutation(40) for _ in range(6)]
        ),
    )

    @staticmethod
    def events():
        return [
            (50, lambda lb: lb.remove_working_server(WORKING[6])),
            (130, lambda lb: lb.add_working_server(HORIZON[0])),
        ]

    @pytest.mark.parametrize("chunk_size", [1, 7, 4_096, DEFAULT_CHUNK])
    @pytest.mark.parametrize("mode", ["jet", "full-ct", "stateless"])
    def test_matches_scalar_down_to_the_ct_stats(self, mode, chunk_size):
        scalar_lb, columnar_lb = build_lb("table", mode), build_lb("table", mode)
        scalar = replay(self.STORY, scalar_lb, self.events())
        columnar = replay_batch(
            self.STORY, columnar_lb, self.events(), chunk_size=chunk_size
        )
        assert _fields(columnar) == _fields(scalar)
        assert scalar.inevitably_broken > 0
        if mode == "stateless":
            # The addition takes flows from servers that are still working.
            assert scalar.pcc_violations > 0
        else:
            assert vars(columnar_lb.ct.stats) == vars(scalar_lb.ct.stats)
            assert columnar_lb.tracked_items() == scalar_lb.tracked_items()


class TestZeroObjectHotPath:
    #: numpy constructors this codebase builds object arrays with.
    ALLOCATORS = ("empty", "zeros", "full", "array")

    def test_no_object_arrays_outside_the_edge(self, monkeypatch):
        lb = build_lb("table", "jet")
        # Warm everything that legitimately allocates once: index-mode
        # engagement, the backend-table translation, the CT mirror.
        replay_batch(TRACE, lb)

        in_edge = {"on": False}
        stray = []
        for name in self.ALLOCATORS:
            original = getattr(np, name)

            def wrapped(*args, _original=original, _name=name, **kwargs):
                out = _original(*args, **kwargs)
                if getattr(out, "dtype", None) == object and not in_edge["on"]:
                    stray.append(_name)
                return out

            monkeypatch.setattr(np, name, wrapped)

        edge = lb.dispatch_names

        def flagged_edge():
            in_edge["on"] = True
            try:
                return edge()
            finally:
                in_edge["on"] = False

        monkeypatch.setattr(lb, "dispatch_names", flagged_edge)
        result = replay_batch(TRACE, lb)
        assert result.n_packets == TRACE.n_packets
        assert stray == [], f"object arrays allocated on the hot path via {stray}"


class TestBiggerThanRamTrace:
    #: The RAM-equivalent budget this test simulates.  The streamed trace
    #: below is >= 2x this size on disk; nothing in the mmap replay path
    #: may materialize it wholesale (the in-memory twin load is the
    #: explicitly-paid comparison point).
    RAM_BUDGET_BYTES = 4 * 1024 * 1024

    def test_mmap_replay_matches_in_memory_replay(self, tmp_path):
        path = zipf_trace_stream(
            tmp_path / "big", skew=1.0, n_packets=1_200_000, population=40_000,
            seed=5, chunk=200_000,
        )
        assert path.stat().st_size >= 2 * self.RAM_BUDGET_BYTES
        mapped = load_trace(path, mmap=True)
        assert isinstance(mapped.packets, np.memmap)
        in_memory = load_trace(path)
        assert not isinstance(in_memory.packets, np.memmap)
        from_map = replay_batch(mapped, build_lb("table", "jet"))
        from_mem = replay_batch(in_memory, build_lb("table", "jet"))
        assert _fields(from_map) == _fields(from_mem)

    def test_streamed_trace_columnar_matches_scalar_at_small_scale(self, tmp_path):
        path = zipf_trace_stream(
            tmp_path / "small", skew=1.0, n_packets=30_000, population=6_000,
            seed=5, chunk=7_000,
        )
        trace = load_trace(path, mmap=True)
        scalar = replay(trace, build_lb("table", "jet"))
        columnar = replay_batch(trace, build_lb("table", "jet"))
        assert _fields(columnar) == _fields(scalar)


class _Growing(LoadBalancer):
    """A columnar stub whose fleet only grows: key ``k`` goes to server
    ``k mod n`` of the first ``n``, and ``grow(n)`` moves the fleet to
    ``n`` servers.  The id space passes 32 768 servers without building a
    CH over them; ids are registered by the dispatch call, as a real
    balancer's are."""

    columnar_effective = True

    def __init__(self, n):
        self.n = n
        self.names = []
        self._working = frozenset()
        self.grow(n)

    def grow(self, n):
        self.n = n
        self._working = frozenset(f"b{i}" for i in range(n))

    def get_destination(self, key_hash):
        return f"b{key_hash % self.n}"

    def get_destinations_batch_idx(self, keys):
        self.names.extend(f"b{i}" for i in range(len(self.names), self.n))
        return (keys % np.uint64(self.n)).astype(np.int32)

    def dispatch_names(self):
        names = np.empty(len(self.names), dtype=object)
        names[:] = self.names
        return names

    def dispatch_working_mask(self):
        return np.arange(len(self.names)) < self.n

    @property
    def working(self):
        return self._working

    @property
    def tracked_connections(self):
        return 0

    def add_working_server(self, name):
        raise NotImplementedError

    def remove_working_server(self, name):
        raise NotImplementedError


class TestFirstColumnWidth:
    """The per-flow first-destination column starts at int8 and widens,
    before it stores, as the balancer's id space outgrows its type: each
    crossing must leave the metrics the scalar loop's."""

    WIDTH_TRACE = zipf_trace(skew=1.0, n_packets=4_000, population=1_500, seed=8)

    @staticmethod
    def replay_both(make, events, chunk_size, monkeypatch):
        """(scalar, columnar) results, and the widths ``first`` took."""
        import importlib

        replay_module = importlib.import_module("repro.traces.replay")
        widths = []
        widened = replay_module._widened

        def spied(first, n_ids):
            out = widened(first, n_ids)
            widths.append((n_ids, out.dtype))
            return out

        monkeypatch.setattr(replay_module, "_widened", spied)
        trace = TestFirstColumnWidth.WIDTH_TRACE
        scalar = replay(trace, make(), events())
        columnar = replay_batch(trace, make(), events(), chunk_size=chunk_size)
        assert _fields(columnar) == _fields(scalar)
        return scalar, widths

    @pytest.mark.parametrize("chunk_size", [1, 7, DEFAULT_CHUNK])
    @pytest.mark.parametrize("mode", ["jet", "stateless"])
    def test_crossing_128_through_announced_servers(
        self, mode, chunk_size, monkeypatch
    ):
        fresh = [f"n{i}" for i in range(120)]

        def events():
            # 120 servers announced at packet 1 000, admitted at 2 500:
            # their ids are registered at the first dispatch after each.
            return [
                (1_000, lambda lb: [lb.add_horizon_server(n) for n in fresh]),
                (2_500, lambda lb: [lb.add_working_server(n) for n in fresh]),
            ]

        scalar, widths = self.replay_both(
            lambda: build_lb("table", mode), events, chunk_size, monkeypatch
        )
        assert [dtype for _, dtype in widths] == [np.int16]
        assert 128 < widths[0][0] <= len(WORKING) + len(HORIZON) + len(fresh)
        assert scalar.pcc_violations > 0  # moved flows, counted at int16

    @pytest.mark.parametrize("chunk_size", [1, 7, DEFAULT_CHUNK])
    def test_crossing_32768_through_a_stub(self, chunk_size, monkeypatch):
        def events():
            return [
                (1_000, lambda lb: lb.grow(200)),
                (2_000, lambda lb: lb.grow(40_000)),
            ]

        scalar, widths = self.replay_both(
            lambda: _Growing(100), events, chunk_size, monkeypatch
        )
        assert widths == [(200, np.int16), (40_000, np.int32)]
        assert scalar.pcc_violations > 0
        assert max(int(name[1:]) for name in scalar.server_loads) > 32_767

    @pytest.mark.parametrize("chunk_size", [1, 7, DEFAULT_CHUNK])
    @pytest.mark.parametrize("mode", ["jet", "full-ct"])
    def test_first_chunk_over_127_widens_before_it_stores(
        self, mode, chunk_size, monkeypatch
    ):
        working = [f"s{i}" for i in range(150)]

        def make():
            if mode == "jet":
                return make_jet("table", working, HORIZON, rows=1_031)
            return make_full_ct("table", working, HORIZON, rows=1_031)

        scalar, widths = self.replay_both(make, lambda: [], chunk_size, monkeypatch)
        assert [dtype for _, dtype in widths] == [np.int16]
        assert max(int(name[1:]) for name in scalar.server_loads) > 127
