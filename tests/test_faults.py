"""Fault-injection subsystem tests: schedules, probation, perfect CT
sync, and chaos runs through the event-driven engine."""

import pytest

from repro.ch import HRWHash
from repro.core import FullCTLoadBalancer
from repro.core.lb_pool import LBPool
from repro.experiments import scales
from repro.faults import (
    CRASH,
    FLAP,
    GROUP,
    UNANNOUNCED_ADD,
    FaultEvent,
    FaultSchedule,
    HealthMonitor,
    chaos_mix,
)
from repro.faults.health import PROBATION_CAP_S
from repro.sim.scenario import run_simulation

CHAOS_BASE = scales.base_config("smoke").with_(
    duration_s=12.0,
    connection_rate=150.0,
    n_servers=30,
    horizon_size=3,
    update_rate_per_min=0.0,
)


class TestFaultSchedule:
    def test_generate_is_deterministic(self):
        kwargs = dict(
            seed=9, crash_rate_per_min=20, flap_rate_per_min=10,
            group_rate_per_min=5, unannounced_rate_per_min=5,
        )
        a = FaultSchedule.generate(120.0, **kwargs)
        b = FaultSchedule.generate(120.0, **kwargs)
        assert a.events == b.events
        assert len(a) > 0

    def test_different_seeds_differ(self):
        a = FaultSchedule.generate(300.0, seed=1, crash_rate_per_min=10)
        b = FaultSchedule.generate(300.0, seed=2, crash_rate_per_min=10)
        assert a.events != b.events

    def test_events_sorted_by_time(self):
        schedule = chaos_mix(300.0, 20.0, seed=4)
        times = [e.time for e in schedule]
        assert times == sorted(times)

    def test_until_and_merged_and_count(self):
        schedule = FaultSchedule.at(
            FaultEvent(1.0, CRASH), FaultEvent(5.0, GROUP, group_size=2)
        )
        assert len(schedule.until(2.0)) == 1
        merged = schedule.merged(FaultSchedule.at(FaultEvent(3.0, CRASH)))
        assert [e.time for e in merged] == [1.0, 3.0, 5.0]
        assert merged.count(CRASH) == 2

    def test_invalid_events_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "meteor")
        with pytest.raises(ValueError):
            FaultEvent(-1.0, CRASH)

    def test_chaos_mix_covers_all_kinds(self):
        schedule = chaos_mix(600.0, 40.0, seed=0)
        for kind in (CRASH, FLAP, GROUP, UNANNOUNCED_ADD):
            assert schedule.count(kind) > 0
        # Crashes dominate the mix by construction (1/2 of the rate).
        assert schedule.count(CRASH) > schedule.count(GROUP)

    def test_zero_rate_is_empty(self):
        assert not chaos_mix(100.0, 0.0)


class TestHealthMonitor:
    def test_backoff_schedule(self):
        monitor = HealthMonitor(base_s=2.0)
        assert monitor.delay_for(1) == 0.0
        assert monitor.delay_for(2) == 2.0
        assert monitor.delay_for(3) == 4.0
        assert monitor.delay_for(10) == PROBATION_CAP_S == 60.0  # capped

    def test_escalation_and_probation_flag(self):
        monitor = HealthMonitor(base_s=1.0)
        assert monitor.record_failure("s1", now=0.0) == 0.0
        assert monitor.record_failure("s1", now=5.0) == 1.0
        assert monitor.record_failure("s1", now=10.0) == 2.0
        assert monitor.in_probation("s1")
        monitor.note_recovered("s1", now=12.0)
        assert not monitor.in_probation("s1")
        assert monitor.failures("s1") == 3

    def test_stable_period_forgives_history(self):
        monitor = HealthMonitor(base_s=1.0)
        monitor.record_failure("s1", now=0.0)
        monitor.record_failure("s1", now=1.0)
        # A failure long after the last one restarts the schedule.
        assert monitor.record_failure("s1", now=100.0) == 0.0

    def test_flap_exactly_at_decay_boundary_still_escalates(self):
        # The forgiveness test is strictly `now - last > 30 s`: a
        # server that flaps *exactly* every 30 seconds never earns
        # the reset, so its backoff keeps climbing.
        monitor = HealthMonitor(base_s=1.0)
        assert monitor.record_failure("s1", now=0.0) == 0.0
        assert monitor.record_failure("s1", now=30.0) == 1.0
        assert monitor.record_failure("s1", now=60.0) == 2.0
        # One tick past the boundary and history is forgiven.
        assert monitor.record_failure("s1", now=90.0 + 1e-9) == 0.0

    def test_probation_histories_are_per_server(self):
        # Two servers failing in the same tick escalate independently;
        # one recovering does not clear the other's probation.
        monitor = HealthMonitor(base_s=1.0)
        assert monitor.record_failure("s1", now=0.0) == 0.0
        assert monitor.record_failure("s2", now=0.0) == 0.0
        assert monitor.record_failure("s1", now=5.0) == 1.0
        assert monitor.failures("s2") == 1
        monitor.note_recovered("s2", now=6.0)
        assert not monitor.in_probation("s2")
        assert monitor.in_probation("s1")
        assert monitor.total_probation_s == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HealthMonitor(base_s=PROBATION_CAP_S + 1.0)


class TestSyncChannel:
    """Perfect CT sync is the LB pool's own push (fallible sync is
    ``repro.control.gossip``, tested in ``test_control_gossip.py``)."""

    def test_perfect_channel_is_instantaneous(self):
        pool = LBPool(
            lambda: FullCTLoadBalancer(HRWHash(["s1", "s2", "s3"])), size=3, sync=True
        )
        destination = pool.get_destination(1)
        # Every peer holds the entry the moment the origin inserted it.
        assert all(member.ct.peek(1) == destination for member in pool.members)
        assert pool.sync_stats.offered == pool.sync_stats.delivered == 2
        assert pool.gossip is None
        assert not pool.degraded


class TestChaosRuns:
    def test_chaos_run_is_deterministic(self):
        cfg = CHAOS_BASE.with_(
            fault_schedule=chaos_mix(CHAOS_BASE.duration_s, 30.0, seed=5), seed=5
        )
        a, b = run_simulation(cfg), run_simulation(cfg)
        for field in (
            "flows_started", "pcc_violations", "fault_events", "crashes",
            "flaps", "correlated_failures", "unannounced_additions",
            "probation_readmissions", "violations_under_fault",
        ):
            assert getattr(a, field) == getattr(b, field), field
        assert a.fault_events > 0

    def test_scripted_crashes_are_counted(self):
        schedule = FaultSchedule.at(
            FaultEvent(2.0, CRASH), FaultEvent(4.0, CRASH),
            FaultEvent(6.0, GROUP, group_size=3),
        )
        result = run_simulation(CHAOS_BASE.with_(fault_schedule=schedule))
        # crashes counts servers lost: 2 singles + 3 group members.
        assert result.crashes == 5
        assert result.correlated_failures == 1
        assert result.fault_events == 3
        assert result.removals >= 5

    def test_unannounced_add_records_prediction(self):
        schedule = FaultSchedule.at(FaultEvent(8.0, UNANNOUNCED_ADD))
        result = run_simulation(CHAOS_BASE.with_(fault_schedule=schedule))
        assert result.unannounced_additions == 1
        assert result.additions >= 1
        # §2.3: each active flow re-steers with prob 1/(|W|+1).
        assert result.predicted_unannounced_breakage > 0

    def test_flaps_trigger_probation(self):
        schedule = FaultSchedule.at(
            FaultEvent(2.0, FLAP, flap_count=4, flap_interval=0.5)
        )
        result = run_simulation(
            CHAOS_BASE.with_(fault_schedule=schedule, probation_base_s=0.5)
        )
        assert result.flaps >= 1
        # Repeat failures inside the decay window must pass through
        # probation before readmission.
        assert result.probation_readmissions >= 1

    def test_empty_schedule_matches_no_injector(self):
        plain = run_simulation(CHAOS_BASE)
        empty = run_simulation(CHAOS_BASE.with_(fault_schedule=FaultSchedule()))
        assert plain.flows_started == empty.flows_started
        assert plain.pcc_violations == empty.pcc_violations
        assert plain.packets_processed == empty.packets_processed
        assert empty.fault_events == 0
