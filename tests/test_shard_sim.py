"""Sharded event-driven simulation: the merge fold and the driver.

``merge_sim_results`` is checked as algebra (sums, maxima, series
folding, associativity; ratios are read off the summed counts);
``simulate_sharded`` as a driver (flow conservation, replicated
membership schedule, worker-count determinism up to timing).
"""

import multiprocessing

import pytest

from repro.shard import simulate_sharded
from repro.sim import SimulationConfig, merge_sim_results, run_simulation
from repro.sim.metrics import SimResult


def small_config(**overrides):
    defaults = dict(
        duration_s=20.0,
        connection_rate=200.0,
        n_servers=20,
        horizon_size=2,
        update_rate_per_min=6.0,
        seed=3,
        sample_interval=1.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestMergeFold:
    def test_sums_and_maxima(self):
        a = SimResult(
            pcc_violations=2, flows_started=100, packets_processed=1_000,
            removals=3, additions=3, max_oversubscription=1.5,
            wall_seconds=2.0, ct_peak_size=10,
        )
        b = SimResult(
            pcc_violations=1, flows_started=50, packets_processed=500,
            removals=3, additions=3, max_oversubscription=2.5,
            wall_seconds=1.0, ct_peak_size=7,
        )
        merged = merge_sim_results([a, b])
        assert merged.pcc_violations == 3
        assert merged.flows_started == 150
        assert merged.packets_processed == 1_500
        assert merged.ct_peak_size == 17
        # The one shared membership schedule fans out to every shard:
        # summing would multiply-count it.
        assert merged.removals == 3 and merged.additions == 3
        assert merged.max_oversubscription == 2.5
        assert merged.wall_seconds == 2.0

    def test_weighted_ratios(self):
        a = SimResult(
            flows_started=100, packets_processed=1_000, ct_hits=800, ct_lookups=1_000,
            first_tracked=10, first_dispatches=100,
        )
        b = SimResult(
            flows_started=300, packets_processed=3_000, ct_hits=1_200, ct_lookups=3_000,
            first_tracked=60, first_dispatches=300,
        )
        merged = merge_sim_results([a, b])
        assert merged.ct_hit_rate == pytest.approx(0.5)
        assert merged.observed_tracked_fraction == pytest.approx(0.175)

    def test_tracked_fraction_pools_first_dispatches(self):
        # Flows that arrived but were never dispatched count in
        # ``flows_started`` only; the fraction is over dispatches.
        a = SimResult(flows_started=120, first_dispatches=100, first_tracked=9)
        b = SimResult(flows_started=40, first_dispatches=30, first_tracked=7)
        merged = merge_sim_results([a, b])
        assert merged.observed_tracked_fraction == (9 + 7) / (100 + 30)

    def test_horizon_ratios_pool_the_scorecards(self):
        a = SimResult(horizon_matched=13, surprise_additions=3)
        b = SimResult(horizon_matched=15, surprise_additions=1, horizon_wasted=2)
        merged = merge_sim_results([a, b])
        assert merged.horizon_recall == 28 / 32
        assert merged.horizon_precision == 28 / 30

    def test_none_ratios_stay_none(self):
        merged = merge_sim_results([SimResult(), SimResult()])
        assert merged.observed_tracked_fraction is None
        assert merged.horizon_precision is None

    def test_series_fold(self):
        a = SimResult(
            sample_times=[1.0, 2.0, 3.0], tracked_series=[5, 6, 7],
            oversubscription_series=[1.1, 1.2, 1.3],
        )
        b = SimResult(
            sample_times=[1.0, 2.0], tracked_series=[10, 20],
            oversubscription_series=[2.0, 1.0],
        )
        merged = merge_sim_results([a, b])
        assert merged.sample_times == [1.0, 2.0, 3.0]
        assert merged.tracked_series == [15, 26, 7]
        assert merged.oversubscription_series == [2.0, 1.2, 1.3]

    def test_associative(self):
        shards = [
            SimResult(flows_started=10 * (i + 1), packets_processed=100 * (i + 1),
                      ct_hits=10 * (i + 1) ** 2, ct_lookups=100 * (i + 1),
                      pcc_violations=i)
            for i in range(4)
        ]
        nested = merge_sim_results(
            [merge_sim_results(shards[:2]), merge_sim_results(shards[2:])]
        )
        flat = merge_sim_results(shards)
        assert nested.flows_started == flat.flows_started
        assert nested.pcc_violations == flat.pcc_violations
        assert nested.ct_hit_rate == pytest.approx(flat.ct_hit_rate)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_sim_results([])


class TestSimulateSharded:
    def test_flow_conservation_and_replicated_schedule(self):
        config = small_config()
        single = run_simulation(config)
        merged = simulate_sharded(config, n_workers=1, n_shards=2)
        # Shards split the arrival rate: flow volume is conserved within
        # Poisson noise, not byte-equal (independent per-shard streams).
        assert merged.flows_started == pytest.approx(single.flows_started, rel=0.25)
        # The membership schedule replicates (engine seed = master seed),
        # so the merged event counts are one schedule's worth, not N.
        assert merged.removals == single.removals
        assert merged.additions == single.additions

    def test_worker_count_is_immaterial(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        config = small_config(seed=7)
        serial = simulate_sharded(config, n_workers=1, n_shards=2)
        forked = simulate_sharded(config, n_workers=2, n_shards=2)
        for field in serial.__dataclass_fields__:
            if field == "wall_seconds":
                continue
            assert getattr(forked, field) == getattr(serial, field), field

    def test_merged_registry(self):
        from repro.obs import Registry
        from repro.obs import metrics as m

        registry = Registry()
        config = small_config(registry=registry)
        merged = simulate_sharded(config, n_workers=1, n_shards=2)
        assert registry.value(m.FLOWS) == merged.flows_started

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            simulate_sharded(small_config(), n_workers=0)
