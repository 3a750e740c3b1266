"""Event-driven simulator integration tests (Section 5.1 semantics)."""

import hashlib

import pytest

from repro.faults import (
    CRASH,
    FLAP,
    GROUP,
    PROBE_LOSS,
    UNANNOUNCED_ADD,
    FaultEvent,
    FaultSchedule,
)
from repro.scenarios import load_scenario
from repro.scenarios.run import fingerprint, run_scenario
from repro.sim import (
    BoundedPareto,
    Constant,
    Exponential,
    LogNormal,
    SimulationConfig,
    run_paired,
    run_simulation,
)
from repro.sim.scenario import build_balancer
from repro.sim.workload import RateProfile

BASE = SimulationConfig(
    duration_s=20.0,
    connection_rate=300.0,
    n_servers=40,
    horizon_size=4,
    update_rate_per_min=12.0,
    downtime_dist=LogNormal(median=4.0, sigma=0.6),
    seed=7,
)


class TestAccounting:
    def test_flow_conservation(self):
        result = run_simulation(BASE)
        finished = (
            result.flows_completed + result.pcc_violations + result.inevitably_broken
        )
        assert finished <= result.flows_started
        assert result.packets_processed > result.flows_started  # multi-packet flows

    def test_removals_and_additions_counted(self):
        result = run_simulation(BASE)
        assert result.removals > 0
        assert result.additions > 0
        assert result.additions <= result.removals

    def test_sampling_series_lengths_match(self):
        result = run_simulation(BASE)
        assert len(result.tracked_series) == len(result.sample_times)
        assert result.sample_times == sorted(result.sample_times)


class TestPCCBehaviour:
    def test_unbounded_jet_with_ample_horizon_no_violations(self):
        cfg = BASE.with_(horizon_size=10, ct_capacity=None, mode="jet", seed=3)
        result = run_simulation(cfg)
        assert result.surprise_additions == 0
        assert result.pcc_violations == 0

    def test_stateless_lb_breaks_unsafe_flows(self):
        # Enough churn that several additions land mid-flow.
        cfg = BASE.with_(duration_s=40.0, connection_rate=600.0, update_rate_per_min=45.0)
        jet = run_simulation(cfg.with_(mode="jet"))
        stateless = run_simulation(cfg.with_(mode="stateless"))
        assert stateless.pcc_violations > 0
        assert stateless.pcc_violations >= jet.pcc_violations

    def test_tiny_full_ct_worse_than_tiny_jet_ct(self):
        # The Fig. 3 relation, at test scale: with an undersized table,
        # full CT breaks (far) more connections than JET.
        cfg = BASE.with_(duration_s=30, update_rate_per_min=30, ct_capacity=40, seed=11)
        full = run_simulation(cfg.with_(mode="full"))
        jet = run_simulation(cfg.with_(mode="jet"))
        assert full.pcc_violations >= jet.pcc_violations

    def test_inevitably_broken_excluded_from_violations(self):
        result = run_simulation(BASE)
        assert result.inevitably_broken > 0  # removals did break flows
        # Violations counted separately from inevitable breakage.
        assert result.pcc_violations + result.inevitably_broken < result.flows_started


class TestDeterminismAndPairing:
    def test_same_seed_same_outcome(self):
        a = run_simulation(BASE)
        b = run_simulation(BASE)
        assert a.pcc_violations == b.pcc_violations
        assert a.flows_started == b.flows_started
        assert a.tracked_series == b.tracked_series

    def test_different_seed_different_workload(self):
        a = run_simulation(BASE)
        b = run_simulation(BASE.with_(seed=8))
        assert a.flows_started != b.flows_started

    def test_prop41_paired_balance_identical(self):
        results = run_paired(BASE.with_(ct_capacity=None))
        assert (
            results["jet"].oversubscription_series
            == results["full"].oversubscription_series
        )
        assert results["jet"].max_oversubscription == pytest.approx(
            results["full"].max_oversubscription
        )

    def test_jet_tracks_fraction_of_full(self):
        results = run_paired(BASE.with_(ct_capacity=None))
        assert results["jet"].peak_tracked < 0.45 * results["full"].peak_tracked


class TestWarmup:
    def test_warmup_excludes_startup_transient(self):
        no_warmup = run_simulation(BASE.with_(warmup_s=0.0))
        warmed = run_simulation(BASE.with_(warmup_s=10.0))
        assert warmed.max_oversubscription <= no_warmup.max_oversubscription


class TestModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_simulation(BASE.with_(mode="quantum"))

    @pytest.mark.parametrize("family", ["hrw", "ring", "table", "anchor"])
    def test_all_ch_families_run(self, family):
        cfg = BASE.with_(
            duration_s=6.0,
            connection_rate=120.0,
            n_servers=20,
            horizon_size=2,
            ch_family=family,
        )
        result = run_simulation(cfg)
        assert result.flows_started > 0
        assert result.pcc_violations == 0

    def test_p2c_mode_runs_and_tracks_more_than_jet(self):
        cfg = BASE.with_(duration_s=10.0, update_rate_per_min=0.0)
        p2c = run_simulation(cfg.with_(mode="p2c"))
        jet = run_simulation(cfg.with_(mode="jet"))
        assert p2c.pcc_violations == 0
        assert p2c.peak_tracked > jet.peak_tracked


class TestWeightedExpectation:
    WEIGHTED = BASE.with_(
        duration_s=6.0,
        connection_rate=120.0,
        n_servers=12,
        horizon_size=2,
        ch_family="hrw",
        server_weights={0: 2.0, 1: 2.0},
    )

    def test_weighted_run_publishes_the_weighted_expectation(self):
        result = run_simulation(self.WEIGHTED)
        assert result.mean_expected_tracked_fraction is not None
        assert result.balance_cv_series


def _exogenous_chaos():
    """Background churn under a 3-slot horizon plus one of each scripted
    chaos kind: revoked announcements, probation, an unannounced add."""
    return run_simulation(
        SimulationConfig(
            duration_s=16.0, connection_rate=200.0, n_servers=24, horizon_size=3,
            update_rate_per_min=15.0, ch_family="table", mode="jet", seed=5,
            duration_dist=Exponential(2.0), size_dist=Constant(8),
            fault_schedule=FaultSchedule.at(
                FaultEvent(2.0, CRASH),
                FaultEvent(4.0, FLAP, flap_count=3, flap_interval=0.5),
                FaultEvent(7.0, GROUP, group_size=4),
                FaultEvent(9.0, UNANNOUNCED_ADD),
                FaultEvent(11.0, CRASH, downtime=1.0),
            ),
        )
    )


def _closed_loop():
    """A flash crowd under a lossy, imprecise control plane: phantoms,
    surprises, silent crashes, false evictions, scale-out and scale-in."""
    return run_simulation(
        SimulationConfig(
            duration_s=24.0, connection_rate=200.0, n_servers=12, horizon_size=3,
            update_rate_per_min=0.0, mode="jet", seed=2,
            duration_dist=Exponential(2.0), size_dist=Constant(8),
            control=True, control_interval_s=0.5, scale_lead_time_s=4.0,
            autoscale_max=8, forecast_precision=0.5, forecast_recall=0.7,
            probe_loss_probability=0.1,
            rate_profile=RateProfile.flash_crowd(
                start=5.0, ramp_s=3.0, magnitude=2.5, hold_s=6.0
            ),
            fault_schedule=FaultSchedule.at(
                FaultEvent(3.0, PROBE_LOSS, duration=6.0, intensity=0.6),
                FaultEvent(6.0, CRASH, downtime=5.0),
                FaultEvent(12.0, CRASH),
            ),
        )
    )


def _sharded_library():
    """A shipped scenario through the two-shard driver, cut to 30 s."""
    return run_scenario(load_scenario("multi-region-failover"), duration_s=30.0).result


class TestGoldenDigests:
    """sha1 of ``scenarios.fingerprint`` for three small runs, recorded at
    the commit before the engine became ``at(when, handler, *args)`` plus
    plug-ins.  A refactor of ``sim/``, ``faults/`` or ``control/`` that is
    meant to change nothing must leave these alone; a change that is meant
    to move a result re-records the digest and says which field moved.

    Re-recorded twice since.  First by deletion only: ``SimResult`` lost
    ``sync_failures``, ``unreplicated_entries`` and ``sync_staleness``
    (no simulator stack is an LB pool, so all three were always 0).  The
    fingerprint with those three re-inserted as 0 hashes to the earlier
    digests.  Then by projection, when ``SimResult``'s five ratio fields
    became properties over counts: drop the eight count fields
    (``ct_lookups``, ``ct_hits``, ``first_dispatches``, ``first_tracked``,
    ``expected_tracked_sum``, ``expected_dispatches``, ``horizon_matched``,
    ``horizon_wasted``), re-insert the five ratios as read, and the two
    unsharded runs hash to the earlier digests.  The sharded run does
    not: one field moved, ``mean_expected_tracked_fraction``, by one ulp
    (0.08183038900529878 -> ...879), because the merge now divides the
    summed expectation by the summed dispatches instead of taking the
    flows-weighted mean of the two shards' quotients."""

    GOLDEN = {
        _exogenous_chaos: "5752be13a30c0a6881583228d0cebfce0eb9b4fc",
        _closed_loop: "d399777e63745d47e396dbde8fa7283d365d380c",
        _sharded_library: "140c55f9094621e3d909010fcab96077a85fa25d",
    }

    @pytest.mark.parametrize("run", list(GOLDEN), ids=lambda run: run.__name__.strip("_"))
    def test_fingerprint_is_unchanged(self, run):
        result = run()
        digest = hashlib.sha1(fingerprint(result).encode()).hexdigest()
        assert digest == self.GOLDEN[run], result.summary()

    def test_the_runs_reach_what_they_are_there_for(self):
        chaos, loop = _exogenous_chaos(), _closed_loop()
        assert chaos.flaps and chaos.correlated_failures and chaos.unannounced_additions
        assert chaos.probation_readmissions and chaos.horizon_precision < 1.0
        assert loop.scale_outs and loop.scale_ins and loop.phantom_announcements
        assert loop.surprise_additions and loop.probe_false_evictions
        assert loop.blackholed_flows and loop.probe_readmissions


CHURNED = SimulationConfig(
    duration_s=16.0, connection_rate=300.0, n_servers=16, horizon_size=3,
    update_rate_per_min=40.0, ch_family="table", mode="jet", seed=11,
    duration_dist=Exponential(2.0), size_dist=BoundedPareto(1.2, 1, 60),
    downtime_dist=LogNormal(median=1.5, sigma=0.5), fault_window_s=1.0,
    fault_schedule=FaultSchedule.at(
        FaultEvent(3.0, FLAP, flap_count=2, flap_interval=0.5),
        FaultEvent(7.0, CRASH, downtime=2.0),
    ),
)
_WEIGHTS = {0: 2.0, 1: 3.0, 17: 2.0}


class TestGoldenStacks:
    """The same churned run (Poisson removals overflowing a 3-slot horizon,
    a scripted flap and a crash) under every kind of stack the engine's two
    consumers have to serve, digests recorded at the commit *before* packets
    left the heap.  Stacks whose ``columnar_effective`` is False (bounded /
    TTL tables, the SYN-gated placement) pin the scalar consumer --
    per-packet clock, ``note_flow_start/end`` order, eviction order; the
    others pin the batch consumer against the per-packet loop that
    recorded them.  Re-recorded twice, like :class:`TestGoldenDigests`:
    by deletion when the three always-zero sync fields left
    ``SimResult``, then by projection when its ratios became properties
    over counts -- with the count fields dropped and the five ratios
    re-inserted as read, all ten hash to the earlier digests.  The two
    weighted stacks were re-recorded once more when weights became a
    mapping the CH keeps: server 17 (weight 2) leaves the horizon and
    re-enters it twice, and the weighted families it replaced re-admitted
    it at weight 1.  Their old code with only that re-admission fixed
    hashes to the digests below."""

    GOLDEN = {
        "bounded_lru": (dict(ct_capacity=80), "12c1b7434095e1f2e2877f67afe39ffe654e7061"),
        "bounded_random": (
            dict(ct_capacity=80, ct_policy="random"),
            "84374f336c36f79586495c7802acaefff0bfafb0",
        ),
        "ttl": (dict(ct_policy="ttl", ct_ttl=0.4), "b590e6630a5f61f851d561d2167ca107bac97060"),
        "jet_p2c": (dict(mode="jet-p2c"), "00c98be36ece2286c7efce4b493548c49caa7766"),
        "full": (dict(mode="full"), "5cad36cb55ddd8fe14eda34461db6a699587793f"),
        "concury": (dict(mode="concury"), "cbba6ccaf7df11758e9c027309a41744614bc371"),
        "stateless": (dict(mode="stateless"), "f273b668709672e137d153ff76804099d4267086"),
        "weighted_hrw": (
            dict(ch_family="hrw", server_weights=_WEIGHTS),
            "a9b68936d8849a3f84c5266961736f8922c7a761",
        ),
        "weighted_ring": (
            dict(ch_family="ring", server_weights=_WEIGHTS),
            "e564c9c99090e0ea65e75d4c79e3bfeefb003838",
        ),
        "anchor": (dict(ch_family="anchor"), "70e0cb9d6b67348032f87fb6cd41f9bf727c78c5"),
    }
    #: The consumer each stack takes, as the dispatch counter labels it.
    SCALAR = {"bounded_lru", "bounded_random", "ttl", "jet_p2c"}

    @pytest.mark.parametrize("stack", list(GOLDEN))
    def test_fingerprint_is_unchanged(self, stack):
        changes, golden = self.GOLDEN[stack]
        result = run_simulation(CHURNED.with_(**changes))
        digest = hashlib.sha1(fingerprint(result).encode()).hexdigest()
        assert digest == golden, result.summary()

    @pytest.mark.parametrize("stack", list(GOLDEN))
    def test_the_stack_takes_its_consumer(self, stack):
        balancer, _, _ = build_balancer(CHURNED.with_(**self.GOLDEN[stack][0]))
        assert balancer.columnar_effective == (stack not in self.SCALAR)

    def test_the_runs_reach_what_they_are_there_for(self):
        results = {
            stack: run_simulation(CHURNED.with_(**changes))
            for stack, (changes, _) in self.GOLDEN.items()
        }
        for stack, result in results.items():
            assert result.inevitably_broken and result.surprise_additions, stack
            assert result.probation_readmissions, stack
        for stack in ("bounded_lru", "bounded_random", "ttl", "concury", "stateless"):
            broke, under_fault = results[stack].pcc_violations, results[stack].violations_under_fault
            assert 0 < under_fault < broke, stack
        assert results["bounded_lru"].ct_evictions and results["bounded_random"].ct_evictions
        assert results["full"].pcc_violations == 0
        assert results["ttl"].peak_tracked < results["anchor"].peak_tracked
        for stack in ("anchor", "weighted_ring", "weighted_hrw"):
            assert results[stack].ct_peak_size, stack
            assert results[stack].mean_expected_tracked_fraction, stack
