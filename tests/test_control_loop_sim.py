"""End-to-end closed-loop simulation: the capped, standby-less
HorizonManager against real JET balancers, and full runs through
repro.sim with the control plane driving the horizon (repro.control.loop)."""

import pytest

from repro.analysis import tracked_fraction_band
from repro.core.factories import make_jet
from repro.faults import (
    PROBE_LOSS,
    CRASH,
    STALE_AUTOSCALER,
    FaultEvent,
    FaultSchedule,
)
from repro.sim.backend import HorizonManager
from repro.sim.distributions import Constant, Exponential
from repro.sim.scenario import SimulationConfig, run_simulation
from repro.sim.workload import RateProfile

W = list(range(8))


def make_membership(horizon_cap=4, n_lbs=1):
    balancers = [make_jet("ring", W, []) for _ in range(n_lbs)]
    return HorizonManager(balancers, cap=horizon_cap), balancers


class TestControlledMembership:
    """The closed-loop configuration of the one manager (the class this
    name refers to was merged into ``sim.backend.HorizonManager``)."""

    def test_announce_then_realize_is_proper(self):
        membership, (lb,) = make_membership()
        membership.announce("auto1")
        assert "auto1" in membership.members
        assert membership.horizon_occupancy == 1
        assert membership.realize("auto1") is True
        assert membership.proper_additions == 1
        assert membership.surprise_additions == 0
        assert membership.horizon_occupancy == 0
        assert "auto1" in lb.ch.working

    def test_unannounced_realize_is_surprise(self):
        membership, (lb,) = make_membership()
        assert membership.realize("auto1") is False
        assert membership.surprise_additions == 1
        assert membership.scorecard.missed == 1
        assert "auto1" in lb.ch.working

    def test_cap_overflow_revokes_oldest_announcement(self):
        membership, (lb,) = make_membership(horizon_cap=2)
        membership.announce("a")
        membership.announce("b")
        membership.announce("c")  # overflows: "a" is revoked
        assert membership.revoked_announcements == 1
        assert membership.members == frozenset({"b", "c"})
        # The revoked launch later lands as a surprise.
        assert membership.realize("a") is False
        assert membership.surprise_additions == 1

    def test_phantom_expiry_scores_against_precision(self):
        membership, _ = make_membership()
        membership.announce("ghost")
        membership.expire("ghost")
        assert membership.phantom_announcements == 1
        assert membership.scorecard.phantom == 1
        assert membership.horizon_occupancy == 0

    def test_evict_then_recover_is_proper(self):
        membership, (lb,) = make_membership()
        membership.remove_server(3)
        assert 3 in membership.down_servers
        assert 3 not in lb.ch.working
        # The eviction auto-announced the server's return into H.
        assert 3 in membership.members
        assert membership.recover_server(3) is True
        assert membership.proper_additions == 1
        assert 3 in lb.ch.working

    def test_retire_revokes_the_horizon_slot(self):
        membership, (lb,) = make_membership()
        membership.retire(5)
        assert membership.retirements == 1
        assert 5 not in lb.ch.working
        assert 5 not in membership.members
        # Retired identity is fully gone: re-adding is a surprise, and
        # the CH accepts it as a brand-new working server.
        assert membership.realize(5) is False
        assert 5 in lb.ch.working

    def test_fans_out_to_all_balancers(self):
        membership, balancers = make_membership(n_lbs=3)
        membership.announce("auto1")
        membership.realize("auto1")
        membership.remove_server(0)
        for lb in balancers:
            assert "auto1" in lb.ch.working
            assert 0 not in lb.ch.working


def control_config(**overrides):
    """A fast closed-loop config: short run, flash crowd, perfect forecast."""
    base = dict(
        duration_s=24.0,
        connection_rate=200.0,
        n_servers=12,
        horizon_size=8,
        update_rate_per_min=0.0,
        mode="jet",
        seed=0,
        duration_dist=Exponential(2.0),
        size_dist=Constant(8),
        control=True,
        control_interval_s=0.5,
        scale_lead_time_s=6.0,
        autoscale_max=8,
        rate_profile=RateProfile.flash_crowd(
            start=6.0, ramp_s=3.0, magnitude=2.0, hold_s=8.0
        ),
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestClosedLoopRuns:
    def test_perfect_forecast_scales_out_with_no_surprises(self):
        result = run_simulation(control_config())
        assert result.control_ticks > 0
        assert result.scale_outs >= 1
        assert result.additions >= 1
        assert result.surprise_additions == 0
        assert result.horizon_precision == pytest.approx(1.0)
        assert result.horizon_recall == pytest.approx(1.0)
        assert result.phantom_announcements == 0

    def test_tracked_fraction_matches_dynamic_expectation(self):
        result = run_simulation(control_config())
        assert result.observed_tracked_fraction is not None
        assert result.mean_expected_tracked_fraction is not None
        # Theorem 4.2 with a time-varying H: flow-weighted expectation.
        expected = result.mean_expected_tracked_fraction
        assert abs(result.observed_tracked_fraction - expected) <= tracked_fraction_band(
            result.flows_started, expected
        )

    def test_closed_loop_is_deterministic(self):
        cfg = control_config(seed=5)
        a, b = run_simulation(cfg), run_simulation(cfg)
        assert a.pcc_violations == b.pcc_violations
        assert a.flows_started == b.flows_started
        assert a.scale_outs == b.scale_outs
        assert a.probe_evictions == b.probe_evictions
        assert a.horizon_precision == b.horizon_precision
        assert a.tracked_series == b.tracked_series

    def test_degraded_recall_produces_surprises(self):
        result = run_simulation(control_config(forecast_recall=0.0))
        assert result.scale_outs >= 1
        assert result.surprise_additions >= 1
        assert result.horizon_recall == pytest.approx(0.0)

    def test_degraded_precision_produces_phantoms(self):
        result = run_simulation(
            control_config(forecast_precision=0.5, seed=2)
        )
        assert result.phantom_announcements >= 1
        assert result.horizon_precision is not None
        assert result.horizon_precision < 1.0

    def test_crash_is_detected_by_probes_not_fiat(self):
        schedule = FaultSchedule.at(
            FaultEvent(6.0, CRASH), FaultEvent(10.0, CRASH)
        )
        result = run_simulation(
            control_config(fault_schedule=schedule, rate_profile=None)
        )
        assert result.crashes == 2
        # Detection lag: fail_threshold consecutive probe misses.
        assert result.probe_evictions >= 1
        assert result.probes_sent > 0
        # Flows dispatched into the detection window are accounted.
        assert result.blackholed_flows >= 0

    def test_probe_loss_chaos_runs_clean(self):
        schedule = FaultSchedule.at(
            FaultEvent(4.0, PROBE_LOSS, duration=8.0, intensity=0.6)
        )
        result = run_simulation(
            control_config(
                fault_schedule=schedule,
                rate_profile=None,
                probe_loss_probability=0.1,
                seed=3,
            )
        )
        assert result.fault_events == 1
        assert result.flows_started > 0
        # False evictions (if any) must be followed by readmissions.
        if result.probe_false_evictions:
            assert result.probe_readmissions >= 1

    def test_stale_autoscaler_freezes_the_signal(self):
        # Freeze the load signal across the entire flash-crowd ramp: the
        # scaler plans on stale data, so it scales out later/less than
        # the live-signal run during the ramp.
        schedule = FaultSchedule.at(
            FaultEvent(2.0, STALE_AUTOSCALER, duration=16.0)
        )
        stale = run_simulation(control_config(fault_schedule=schedule))
        live = run_simulation(control_config())
        assert stale.fault_events == 1
        assert stale.scale_outs <= live.scale_outs

    def test_scale_in_retires_what_was_launched(self):
        # A full diurnal cycle: load rises then falls back, and the loop
        # must retire on the way down.
        result = run_simulation(
            control_config(
                duration_s=40.0,
                rate_profile=RateProfile.diurnal(
                    period_s=40.0, amplitude=0.6
                ),
            )
        )
        assert result.scale_outs >= 1
        assert result.scale_ins >= 1
