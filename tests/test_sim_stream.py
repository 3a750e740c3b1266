"""The simulator's packet stream: windows, runs and the two consumers.

Packets and flow ends are not heap events.  Before each event the engine
pre-draws the flows arriving before it, merges their packet / end times
with the carried-over ones and consumes the run due before the event --
through ``_on_packet`` / ``_on_flow_end`` in time order (the spec) or, where
``columnar_effective``, through ``get_destinations_batch_idx`` with per-flow
accounting on arrays.  Four contracts:

(a) the two consumers agree on every field of the result, over a seeded
    sweep of family x mode x update rate x chaos x {exogenous, closed loop};
(b) nothing per flow or per packet is scheduled: the number of ``sim.at``
    calls (and of calls into ``repro.obs``) does not grow with the load;
(c) simultaneous things run in the documented order;
(d) the generator draws the same flows however the run is cut into windows
    (``test_sim_draws.py`` has how those draws are made).
"""

import collections
import functools
import random

import numpy as np
import pytest

import repro.sim.scenario as sim_scenario
from repro.faults import (
    CRASH,
    FLAP,
    GROUP,
    UNANNOUNCED_ADD,
    FaultEvent,
    FaultSchedule,
)
from repro.obs import Registry
from repro.obs import metrics as M
from repro.scenarios.run import fingerprint
from repro.sim import (
    BoundedPareto,
    Constant,
    Exponential,
    LogNormal,
    SimulationConfig,
    WorkloadGenerator,
    run_simulation,
)
from repro.sim.engine import EventDrivenSimulation
from repro.sim.workload import Arrivals, RateProfile
from tests.test_obs_differential import count_obs_calls
from tests.test_sim_draws import _exponential, _pareto, described, todays_draws


class ScalarOnly:
    """A balancer that answers the engine's one probe with "no"."""

    columnar_effective = False

    def __init__(self, balancer):
        self._balancer = balancer

    def __getattr__(self, name):
        return getattr(self._balancer, name)

    @property
    def __class__(self):  # isinstance(..., JETLoadBalancer) still answers
        return type(self._balancer)


def run_scalar_only(config, monkeypatch):
    """``run_simulation(config)`` with the built balancer wrapped."""
    build = sim_scenario.build_balancer

    def wrapped(config):
        balancer, working, standby = build(config)
        assert balancer.columnar_effective, "nothing to compare: already scalar"
        return ScalarOnly(balancer), working, standby

    with monkeypatch.context() as patch:
        patch.setattr(sim_scenario, "build_balancer", wrapped)
        return run_simulation(config)


# ------------------------------------------------------- (a) differential
CHAOS = {
    "none": None,
    "flap-crash": FaultSchedule.at(
        FaultEvent(1.5, FLAP, flap_count=3, flap_interval=0.4),
        FaultEvent(4.0, CRASH, downtime=1.5),
    ),
    "group-unannounced": FaultSchedule.at(
        FaultEvent(2.0, GROUP, group_size=3),
        FaultEvent(3.0, UNANNOUNCED_ADD),
        FaultEvent(5.0, CRASH),
    ),
}
WEIGHTS = {0: 2.0, 1: 3.0, 13: 2.0}


def sweep_config(seed: int) -> SimulationConfig:
    """One point of the sweep, drawn from the seed."""
    rng = random.Random(seed)
    family, weighted = rng.choice(
        [("table", False), ("anchor", False), ("ring", False), ("hrw", False), ("ring", True)]
    )
    closed_loop = rng.random() < 0.4
    mode = rng.choice(["jet", "full", "stateless", "concury"])
    weighted = weighted and mode != "concury"  # Concury takes no weights
    return SimulationConfig(
        duration_s=8.0,
        connection_rate=rng.choice([60.0, 150.0, 300.0]),
        n_servers=12,
        horizon_size=rng.choice([1, 3]),
        update_rate_per_min=rng.choice([0.0, 20.0, 90.0]),
        mode=mode,
        ch_family=family,
        server_weights=WEIGHTS if weighted else None,
        seed=seed,
        duration_dist=Exponential(rng.choice([0.5, 2.0])),
        size_dist=rng.choice([Constant(1), Constant(6), BoundedPareto(1.2, 1, 80)]),
        downtime_dist=LogNormal(median=1.0, sigma=0.5),
        fault_window_s=rng.choice([0.5, 10.0]),
        sample_interval=rng.choice([0.25, 1.0, 20.0]),
        fault_schedule=CHAOS[rng.choice(sorted(CHAOS))],
        control=closed_loop,
        control_interval_s=0.5,
        scale_lead_time_s=2.0,
        forecast_precision=0.6,
        forecast_recall=0.7,
        probe_loss_probability=0.1 if closed_loop else 0.0,
        rate_profile=(
            RateProfile.flash_crowd(start=2.0, ramp_s=1.0, magnitude=2.5, hold_s=2.0)
            if closed_loop
            else None
        ),
    )


@functools.lru_cache(maxsize=None)
def batch_result(seed: int):
    return run_simulation(sweep_config(seed))


class TestConsumersAgree:
    @pytest.mark.parametrize("seed", range(40))
    def test_batch_consumer_equals_the_scalar_spec(self, seed, monkeypatch):
        config = sweep_config(seed)
        batch = batch_result(seed)
        scalar = run_scalar_only(config, monkeypatch)
        assert fingerprint(batch) == fingerprint(scalar), config
        assert batch.packets_processed >= batch.flows_started > 0

    def test_the_sweep_reaches_what_it_is_there_for(self):
        results = [(sweep_config(seed), batch_result(seed)) for seed in range(40)]
        assert {c.mode for c, _ in results} == {"jet", "full", "stateless", "concury"}
        assert len({(c.ch_family, c.server_weights is not None) for c, _ in results}) == 5
        assert sum(r.pcc_violations > 0 for _, r in results) >= 5
        assert sum(0 < r.violations_under_fault < r.pcc_violations for _, r in results) >= 1
        assert sum(r.inevitably_broken > 0 for _, r in results) >= 20
        assert sum(r.blackholed_flows > 0 for _, r in results) >= 3
        assert sum(r.unannounced_additions > 0 for _, r in results) >= 3
        assert sum(r.mean_expected_tracked_fraction is not None for _, r in results) >= 5

    @pytest.mark.parametrize(
        "changes, path",
        [
            ({}, "columnar"),
            ({"mode": "concury"}, "columnar"),
            ({"ct_capacity": 50}, "scalar"),
            ({"ct_policy": "ttl", "ct_ttl": 1.0}, "scalar"),
            ({"mode": "jet-p2c"}, "scalar"),
        ],
    )
    def test_the_dispatch_counter_names_the_consumer_that_ran(self, changes, path):
        registry = Registry()
        config = SimulationConfig(
            duration_s=4.0, connection_rate=100.0, n_servers=10, horizon_size=2,
            ch_family="table", duration_dist=Exponential(1.0), registry=registry,
        ).with_(**changes)
        result = run_simulation(config)
        other = {"columnar": "scalar", "scalar": "columnar"}[path]
        assert registry.value(M.DISPATCH_PACKETS, path=path) == result.packets_processed
        assert registry.value(M.DISPATCH_PACKETS, path=other) is None


# --------------------------------------------------------- (b) count gates
GATED = SimulationConfig(
    duration_s=10.0, connection_rate=100.0, n_servers=16, horizon_size=3,
    update_rate_per_min=60.0, ch_family="table", seed=4,
    duration_dist=Exponential(1.0), size_dist=Constant(5),
    downtime_dist=LogNormal(median=1.0, sigma=0.5),
    fault_schedule=CHAOS["flap-crash"],
)


@pytest.mark.parametrize("stack", [{}, {"ct_capacity": 64}], ids=["columnar", "scalar"])
class TestNothingPerFlowIsScheduled:
    def test_doubling_the_load_schedules_no_more_events(self, stack, monkeypatch):
        calls = []
        at = EventDrivenSimulation.at

        def counting(self, when, handler, *args):
            calls.append(handler.__name__)
            at(self, when, handler, *args)

        monkeypatch.setattr(EventDrivenSimulation, "at", counting)
        counts = {}
        for rate in (100.0, 200.0):
            calls.clear()
            result = run_simulation(GATED.with_(connection_rate=rate, **stack))
            counts[rate] = collections.Counter(calls), result.packets_processed
        assert counts[100.0][0] == counts[200.0][0]
        assert counts[200.0][1] > 1.7 * counts[100.0][1]
        assert counts[100.0][0]["_on_sample"] == 10 and counts[100.0][0]["_on_recovery"] > 5

    def test_doubling_the_load_asks_no_more_of_obs(self, stack):
        def obs_calls(rate):
            config = GATED.with_(connection_rate=rate, registry=Registry(), **stack)
            return count_obs_calls(lambda: run_simulation(config))

        small, large = obs_calls(100.0), obs_calls(200.0)
        assert small == large
        assert small["registry.py", "set_total"] > 0


# -------------------------------------------------------------- (c) ties
class OnTheBeat:
    """A flow every 0.5 s, lasting exactly 1 s, with packets at +0, +0.5
    and +1.0: arrivals and second packets fall on the 0.5 s sample beat
    (and on other flows' packets), third packets on the flow's own end."""

    packets = (0.0, 0.5, 1.0)
    duration = 1.0

    def __init__(self, flows: int = 40):
        start = 0.5 * np.arange(1, flows + 1)
        self._ahead = Arrivals(
            0, start, np.full(flows, len(self.packets)), np.full(flows, self.duration),
            (start[:, None] + self.packets).ravel(),
            key=1_000_003 * np.arange(1, flows + 1),
        )

    def arrivals_before(self, until: float) -> Arrivals:
        window, self._ahead = self._ahead.before(until)
        return window


class EndsAsItArrives(OnTheBeat):
    """Two packets and the end, all at the arrival instant."""

    packets = (0.0, 0.0)
    duration = 0.0


class TestTies:
    @staticmethod
    def run(balancer_wrap=lambda balancer: balancer, workload=OnTheBeat):
        config = SimulationConfig(n_servers=8, horizon_size=2, mode="full", ch_family="table")
        balancer, working, standby = sim_scenario.build_balancer(config)
        return EventDrivenSimulation(
            balancer=balancer_wrap(balancer), workload=workload(),
            working_servers=working, standby_servers=standby, duration_s=3.0,
            update_rate_per_min=0.0, downtime_dist=Constant(1.0), sample_interval=0.5,
        ).run()

    @pytest.mark.parametrize("wrap", [lambda b: b, ScalarOnly], ids=["columnar", "scalar"])
    def test_the_documented_order(self, wrap):
        result = self.run(wrap)
        # The end of the run is inclusive: the arrival at 3.0 counts.
        assert result.flows_started == 6
        # A packet on its flow's own end is never dispatched: 2 of 3 go
        # out, and of the last two flows only what falls inside the run.
        assert result.packets_processed == 4 * 2 + 2 + 1
        assert result.flows_completed == 4
        assert result.pcc_violations == result.inevitably_broken == 0
        # An event runs before a packet at the same instant: the sample at
        # t sees the flows that arrived before t, not the one arriving at t
        # (full CT tracks every flow from its first packet on).
        assert result.sample_times == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        assert result.tracked_series == [0, 1, 2, 3, 4, 5]
        assert result.final_tracked == 6

    def test_both_consumers_agree_on_it(self):
        assert fingerprint(self.run()) == fingerprint(self.run(ScalarOnly))

    @pytest.mark.parametrize("wrap", [lambda b: b, ScalarOnly], ids=["columnar", "scalar"])
    def test_the_first_packet_is_the_arrival(self, wrap):
        # It goes out even when the flow ends at the same instant; the
        # second packet, like any later one at or after the end, does not.
        result = self.run(wrap, EndsAsItArrives)
        assert result.flows_started == result.flows_completed == 6
        assert result.packets_processed == 6
        assert result.tracked_series == [0, 1, 2, 3, 4, 5]

    def test_no_golden_run_contains_a_tie(self, monkeypatch):
        """The heap broke ties by push order; the stream by the rule above.
        The two can only differ where an event coincides with a packet or
        an end, or two flows' items coincide -- which the committed
        digests' runs never do (continuous arrival and packet times)."""
        from tests.test_sim_engine import CHURNED, _closed_loop, _exogenous_chaos

        events, items = [], []
        at = EventDrivenSimulation.at
        consume = EventDrivenSimulation._consume_columnar

        def recording_at(self, when, handler, *args):
            events.append(when)
            at(self, when, handler, *args)

        def recording_consume(self, times, flows, index):
            items.extend(zip(times.tolist(), flows.tolist()))
            consume(self, times, flows, index)

        monkeypatch.setattr(EventDrivenSimulation, "at", recording_at)
        monkeypatch.setattr(EventDrivenSimulation, "_consume_columnar", recording_consume)
        for run in (_exogenous_chaos, _closed_loop, lambda: run_simulation(CHURNED)):
            events.clear(), items.clear()
            result = run()
            assert len(items) > result.packets_processed  # the patch took
            by_time = collections.defaultdict(set)
            for when, flow in items:
                by_time[when].add(flow)
            assert not set(events) & set(by_time)
            assert all(len(flows) == 1 for flows in by_time.values())


# ----------------------------------------------------------- (d) windows
PROFILES = {
    "homogeneous": lambda: None,
    "flash-crowd": lambda: RateProfile.flash_crowd(start=3.0, ramp_s=2.0, magnitude=3.0, hold_s=2.0),
    "diurnal": lambda: RateProfile.diurnal(period_s=5.0, amplitude=0.8),
}


@pytest.mark.parametrize("profile", sorted(PROFILES))
class TestWindows:
    def generator(self, profile):
        return WorkloadGenerator(
            120.0, BoundedPareto(1.2, 1, 40), Exponential(2.0), seed=9,
            rate_profile=PROFILES[profile](),
        )

    def test_one_window_equals_the_per_arrival_draws(self, profile):
        expected = todays_draws(
            120.0, _pareto(1.2, 1, 40)[1], _exponential(2.0)[1], 9, PROFILES[profile](), 12.0
        )
        assert len(expected) > 1000
        assert described([self.generator(profile).arrivals_before(12.0)]) == expected

    def test_any_cut_into_windows_draws_the_same_flows(self, profile):
        whole = self.generator(profile).arrivals_before(12.0)
        rng = random.Random(3)
        cuts = sorted(rng.uniform(0.0, 12.0) for _ in range(200))
        # Cuts exactly on an arrival (it belongs to the *next* window),
        # repeated cuts and an empty first window.
        cuts += [whole.start[10], whole.start[500], whole.start[500], 0.0, 12.0]
        windowed = self.generator(profile)
        pieces = [windowed.arrivals_before(until) for until in sorted(cuts)]
        assert described(pieces) == described([whole])
        assert all((piece.start < until).all() for piece, until in zip(pieces, sorted(cuts)))
        assert windowed.flows_created == len(whole)
