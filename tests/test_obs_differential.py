"""Observability must be read-only: metrics off / live runs make
identical decisions.

The contract the whole obs layer rests on: ``replay(metrics=None)``
(off) and ``replay(metrics=Registry())`` (live telemetry) produce
byte-identical routing decisions, PCC accounting, and post-run CT state
-- across every balancer stack, through both scalar and batched replay,
in the event-driven engine, and (via hypothesis) under arbitrary
injected churn schedules.
"""

import collections
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ch import rows_for
from repro.core import StatelessLoadBalancer, make_ch, make_full_ct, make_jet
from repro.obs import Registry, metrics as M
from repro.sim import SimulationConfig, run_simulation
from repro.traces import replay, replay_batch, zipf_trace

WORKING = [f"s{i}" for i in range(20)]
HORIZON = [f"h{i}" for i in range(4)]

OBS_DIR = os.path.dirname(M.__file__) + os.sep

TRACE = zipf_trace(skew=1.0, n_packets=12_000, population=2_500, seed=11)


def _builders():
    table_rows = rows_for(len(WORKING))
    return {
        "jet-hrw": lambda: make_jet("hrw", WORKING, HORIZON),
        "jet-table": lambda: make_jet("table", WORKING, HORIZON, rows=table_rows),
        "jet-anchor": lambda: make_jet(
            "anchor", WORKING, HORIZON, capacity=4 * (len(WORKING) + len(HORIZON))
        ),
        "full-maglev": lambda: make_full_ct("maglev", WORKING, table_size=251),
        "stateless-table": lambda: StatelessLoadBalancer(
            make_ch("table", WORKING, HORIZON, rows=table_rows)
        ),
    }


def _fingerprint(balancer, result):
    """Everything a run decided: per-flow loads, accounting, CT contents.

    CT contents go through ``tracked_items`` where available: it decodes
    the stored backend ids back to names, so scalar and columnar runs
    fingerprint identically.
    """
    ct = getattr(balancer, "ct", None)
    if hasattr(balancer, "tracked_items"):
        ct_entries = balancer.tracked_items()
    else:
        ct_entries = dict(ct.items()) if ct is not None else None
    return {
        "server_loads": result.server_loads,
        "pcc_violations": result.pcc_violations,
        "inevitably_broken": result.inevitably_broken,
        "tracked_connections": result.tracked_connections,
        "ct_peak_size": result.ct_peak_size,
        "ct_entries": ct_entries,
    }


REGISTRY_VARIANTS = {
    "off": lambda: None,
    "live": Registry,
}


@pytest.fixture(params=sorted(_builders()))
def stack(request):
    return request.param


class TestReplayDifferential:
    def test_scalar_replay_identical_across_registries(self, stack):
        build = _builders()[stack]
        base = None
        for variant, registry_factory in REGISTRY_VARIANTS.items():
            balancer = build()
            result = replay(TRACE, balancer, metrics=registry_factory())
            fingerprint = _fingerprint(balancer, result)
            if base is None:
                base = fingerprint
            else:
                assert fingerprint == base, f"{stack}: {variant} diverged"

    def test_batch_replay_identical_across_registries(self, stack):
        build = _builders()[stack]
        base = None
        for variant, registry_factory in REGISTRY_VARIANTS.items():
            balancer = build()
            result = replay_batch(TRACE, balancer, metrics=registry_factory())
            fingerprint = _fingerprint(balancer, result)
            if base is None:
                base = fingerprint
            else:
                assert fingerprint == base, f"{stack}: batch {variant} diverged"

    def test_live_registry_sees_the_run(self):
        registry = Registry()
        balancer = _builders()["jet-hrw"]()
        result = replay(TRACE, balancer, metrics=registry)
        registry.collect()
        dispatched = sum(result.server_loads.values())
        assert registry.value(M.FLOWS) == dispatched
        assert registry.value(M.DISPATCH_PACKETS, path="scalar") == TRACE.n_packets
        assert registry.value(M.CT_OCCUPANCY_PEAK) == result.ct_peak_size
        assert registry.value(M.CH_LOOKUPS, family="hrw") == balancer.ct.stats.misses


def _events_from_schedule(schedule):
    """(packet_index, op) pairs -> replay TraceEvents over WORKING/HORIZON."""
    events = []
    removed = []
    for packet_index, op in schedule:
        if op == "remove" and len(removed) < len(WORKING) - 2:
            victim = WORKING[len(removed)]
            removed.append(victim)
            events.append(
                (packet_index, lambda lb, v=victim: lb.remove_working_server(v))
            )
        elif op == "readmit" and removed:
            server = removed.pop()
            events.append(
                (packet_index, lambda lb, s=server: lb.add_working_server(s))
            )
    return events


churn_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=TRACE.n_packets - 1),
        st.sampled_from(["remove", "readmit"]),
    ),
    max_size=6,
)


class TestChurnHypothesis:
    @settings(max_examples=25, deadline=None)
    @given(schedule=churn_schedules)
    def test_jet_replay_identical_under_random_churn(self, schedule):
        events = _events_from_schedule(sorted(schedule))
        base = None
        for registry_factory in REGISTRY_VARIANTS.values():
            balancer = make_jet("hrw", WORKING, HORIZON)
            result = replay(TRACE, balancer, events=events, metrics=registry_factory())
            fingerprint = _fingerprint(balancer, result)
            if base is None:
                base = fingerprint
            else:
                assert fingerprint == base

    @settings(max_examples=10, deadline=None)
    @given(schedule=churn_schedules)
    def test_batch_replay_matches_scalar_under_churn_with_metrics(self, schedule):
        events = _events_from_schedule(sorted(schedule))
        scalar_lb = make_jet("hrw", WORKING, HORIZON)
        scalar = replay(TRACE, scalar_lb, events=events, metrics=Registry())
        batch_lb = make_jet("hrw", WORKING, HORIZON)
        batch = replay_batch(TRACE, batch_lb, events=events, metrics=Registry())
        assert _fingerprint(batch_lb, batch) == _fingerprint(scalar_lb, scalar)


def count_obs_calls(run):
    """Every Python call into ``repro/obs/`` while ``run()`` executes."""
    calls = collections.Counter()

    def profiler(frame, event, arg):
        code = frame.f_code
        if event == "call" and OBS_DIR in code.co_filename:
            calls[os.path.basename(code.co_filename), code.co_name] += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


class TestFreeWhenOff:
    """"Free when off" as a count, not a stopwatch: what the replay
    drivers ask of ``repro.obs`` does not grow with the trace, so none of
    it sits in the per-packet loop -- and an off run (``metrics=None``)
    makes no call into the registry at all."""

    @staticmethod
    def _obs_calls(driver, n_packets, registry):
        """Every Python call into ``repro/obs/`` during one replay."""
        trace = zipf_trace(skew=1.0, n_packets=n_packets, population=2_500, seed=11)
        balancer = _builders()["jet-table"]()
        return count_obs_calls(lambda: driver(trace, balancer, metrics=registry))

    @pytest.mark.parametrize("driver", [replay, replay_batch])
    def test_live_registry_calls_do_not_grow_with_the_trace(self, driver):
        small = self._obs_calls(driver, 5_000, Registry())
        large = self._obs_calls(driver, 20_000, Registry())
        assert small == large
        assert small["registry.py", "inc"] > 0  # the recorder does see calls

    @pytest.mark.parametrize("driver", [replay, replay_batch])
    def test_null_registry_hands_out_no_instrument(self, driver):
        for n_packets in (5_000, 20_000):
            calls = self._obs_calls(driver, n_packets, None)
            in_registry = {name for (module, name) in calls if module == "registry.py"}
            assert in_registry == set()


class TestEngineDifferential:
    CONFIG = dict(
        duration_s=20.0,
        connection_rate=300.0,
        n_servers=50,
        horizon_size=5,
        update_rate_per_min=10.0,
        mode="jet",
        ch_family="anchor",
        seed=3,
    )

    @staticmethod
    def _stable_fields(result):
        fields = vars(result).copy()
        fields.pop("wall_seconds")
        return fields

    def test_simulation_identical_with_and_without_registry(self):
        plain = run_simulation(SimulationConfig(**self.CONFIG))
        live = run_simulation(SimulationConfig(**self.CONFIG, registry=Registry()))
        assert self._stable_fields(live) == self._stable_fields(plain)

    def test_chaos_simulation_identical_with_registry(self):
        from repro.faults import chaos_mix

        def config(registry):
            return SimulationConfig(
                **{**self.CONFIG, "ch_family": "table",
                   "ch_kwargs": {"rows": rows_for(50)}},
                fault_schedule=chaos_mix(20.0, 20.0, seed=5),
                registry=registry,
            )

        plain = run_simulation(config(None))
        live = run_simulation(config(Registry()))
        assert self._stable_fields(live) == self._stable_fields(plain)
