"""Closed-loop control plane: does JET's horizon contract survive when
``H`` is *produced* by an autoscaler instead of handed down by fiat?

The paper treats the horizon as given ("servers about to be added").
This experiment closes the loop: a seeded autoscaler watches the live
load signal, announces its pending launches into ``H`` with a lead time,
and a health prober evicts/readmits backends on probe evidence.  Four
measurements, all bit-reproducible for a fixed ``--seed``:

1. **Flash crowd, perfect forecast** -- the acceptance run.  Tracked
   fraction must stay inside the invariant check's binomial band around
   the *flow-weighted* mean ``|H|/(|W|+|H|)`` (Theorems 4.2/4.3 with a
   time-varying horizon), and
   PCC breakage must not exceed an exogenous-H baseline running the same
   workload with the same membership-event rate through the paper's own
   §5 churn model.
2. **Forecast-quality sweep** -- degrade announcement recall (launches
   arrive unannounced -> surprise additions) and precision (phantom
   announcements squat horizon slots), and quantify the PCC breakage
   each costs.  The scorecard's precision/recall must match the
   configured forecast quality.
3. **Diurnal load** -- a full scale-out *and* scale-in cycle: the loop
   must retire what it launched and keep |H| honest on the way down.
4. **Gossip convergence** -- an LB pool replicating CT entries by
   fanout-k gossip: partition a member (staleness grows), heal it
   (anti-entropy drains the missed suffix to zero), crash one (its
   unreplicated deltas land in ``stats.lost``, never silently).  The run
   raises unless the pool has converged after its last drain.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.report import Experiment, format_table, run_module
from repro.experiments.scales import scale_name
from repro.obs import Registry, check
from repro.scenarios.spec import EnvelopeSpec
from repro.sim.distributions import Constant, Exponential
from repro.sim.scenario import SimulationConfig, run_simulation
from repro.sim.workload import RateProfile

#: Control-loop presets.  Flows are short (exponential, a few seconds) so
#: concurrency answers the rate profile fast enough for a forecaster to
#: see the ramp; the paper's 20 s Hadoop flows would smear a flash crowd
#: over most of a smoke-scale run.
CONTROL_SCALES: Dict[str, dict] = {
    # horizon_size doubles as the announcement cap, so it must cover the
    # autoscaler's outstanding-launch budget (autoscale_max=8) or genuine
    # announcements get revoked by overflow and realize as surprises.
    "smoke": dict(
        duration_s=60.0, connection_rate=300.0, n_servers=20, horizon_size=8,
        flow_mean_s=3.0,
    ),
    "default": dict(
        duration_s=120.0, connection_rate=900.0, n_servers=60, horizon_size=8,
        flow_mean_s=4.0,
    ),
    "paper": dict(
        duration_s=600.0, connection_rate=10_000.0, n_servers=234, horizon_size=24,
        flow_mean_s=5.0,
    ),
}

#: (recall, precision) grid for the forecast-quality sweep.
FORECAST_GRID = ((1.0, 1.0), (0.7, 1.0), (0.3, 1.0), (0.0, 1.0), (1.0, 0.5))


def control_base(scale: Optional[str] = None, seed: int = 0) -> SimulationConfig:
    params = dict(CONTROL_SCALES[scale_name(scale)])
    flow_mean = params.pop("flow_mean_s")
    duration = params["duration_s"]
    return SimulationConfig(
        **params,
        update_rate_per_min=0.0,
        mode="jet",
        seed=seed,
        duration_dist=Exponential(flow_mean),
        size_dist=Constant(8),
        control=True,
        control_interval_s=0.5,
        # An addition only breaks flows older than its announcement, so
        # lead time is the closed loop's protection window: 3x the mean
        # flow age leaves ~e^-3 of re-steered flows unprotected -- the
        # same coverage an exogenous FIFO gets from announcing a server
        # for its entire downtime.
        scale_lead_time_s=3.0 * flow_mean,
        rate_profile=RateProfile.flash_crowd(
            start=duration / 4, ramp_s=duration / 8,
            magnitude=2.0, hold_s=duration / 4,
        ),
    )


def _control_row(result) -> Dict:
    return {
        "flows_started": result.flows_started,
        "pcc_violations": result.pcc_violations,
        "inevitably_broken": result.inevitably_broken,
        "blackholed_flows": result.blackholed_flows,
        "scale_outs": result.scale_outs,
        "scale_ins": result.scale_ins,
        "surprise_additions": result.surprise_additions,
        "phantom_announcements": result.phantom_announcements,
        "probe_evictions": result.probe_evictions,
        "probe_false_evictions": result.probe_false_evictions,
        "horizon_precision": result.horizon_precision,
        "horizon_recall": result.horizon_recall,
        "observed_tracked_fraction": result.observed_tracked_fraction,
        "mean_expected_tracked_fraction": result.mean_expected_tracked_fraction,
        "peak_tracked": result.peak_tracked,
    }


def run_flash_crowd(
    scale: Optional[str] = None, seed: int = 0, registry=None
) -> Dict:
    """Perfect forecast under a flash crowd, vs an exogenous-H baseline.

    The baseline runs the identical workload with ``control=False`` and
    the §5 update churn dialed to the closed-loop run's *realized*
    membership-event rate, so both runs disturb the backend equally often
    -- the comparison isolates *how* H is produced, not how much churn
    there is.  The tracked fraction's verdict is
    :func:`repro.obs.check`'s over the closed-loop run (on a private
    registry when none is given)."""
    cfg = control_base(scale, seed)
    registry = Registry() if registry is None else registry
    closed = run_simulation(cfg.with_(registry=registry))
    events = closed.scale_outs + closed.scale_ins + closed.removals
    baseline_rate = 60.0 * events / cfg.duration_s
    baseline = run_simulation(
        cfg.with_(control=False, update_rate_per_min=baseline_rate, registry=None)
    )
    (tracked,) = [r for r in check(registry) if r.name == "tracked_fraction"]
    return {
        "closed_loop": _control_row(closed),
        "baseline_update_rate_per_min": baseline_rate,
        "baseline_pcc_violations": baseline.pcc_violations,
        "baseline_observed_tracked_fraction": baseline.observed_tracked_fraction,
        "tracked_fraction": tracked.to_json(),
        "breakage_ok": closed.pcc_violations <= baseline.pcc_violations,
    }


def run_forecast_sweep(scale: Optional[str] = None, seed: int = 0) -> List[Dict]:
    """PCC breakage as forecast quality degrades (recall, then precision)."""
    cfg = control_base(scale, seed)
    rows: List[Dict] = []
    for recall, precision in FORECAST_GRID:
        result = run_simulation(
            cfg.with_(forecast_recall=recall, forecast_precision=precision)
        )
        row = _control_row(result)
        row["forecast_recall"] = recall
        row["forecast_precision"] = precision
        rows.append(row)
    return rows


def run_diurnal(scale: Optional[str] = None, seed: int = 0) -> Dict:
    """One diurnal cycle: the loop must scale out at the peak and retire
    its own launches in the trough (|H| stays the pending-change set)."""
    cfg = control_base(scale, seed)
    cfg = cfg.with_(
        rate_profile=RateProfile.diurnal(period_s=cfg.duration_s, amplitude=0.6),
    )
    result = run_simulation(cfg)
    row = _control_row(result)
    row["cycle_closed"] = result.scale_ins > 0
    return row


def run_gossip_convergence(
    scale: Optional[str] = None, seed: int = 0, registry=None
) -> Dict:
    """Partition -> heal -> crash on a gossip-synced LB pool."""
    from repro.control import GossipSync
    from repro.core.factories import make_jet
    from repro.core.lb_pool import LBPool

    params = CONTROL_SCALES[scale_name(scale)]
    n = params["n_servers"]
    lookups = 50 * n

    def factory():
        return make_jet(
            "ring", list(range(n)), [f"h{i}" for i in range(params["horizon_size"])]
        )

    channel = GossipSync(fanout=2, round_lookups=16, loss_probability=0.1, seed=seed)
    pool = LBPool(factory, size=4, sync=channel, registry=registry)
    if registry is not None:
        from repro.obs.collectors import instrument_balancer

        instrument_balancer(registry, pool)

    def traffic(start: int, count: int) -> None:
        for i in range(start, start + count):
            pool.get_destination((i * 0x9E3779B97F4A7C15 + seed) & (2**64 - 1))

    traffic(0, lookups)
    channel.drain()
    pool.partition_lb(1)
    traffic(lookups, lookups)
    channel.drain()
    staleness_partitioned = channel.staleness()
    pool.heal_lb(1)
    heal_rounds = channel.drain()
    staleness_healed = channel.staleness()
    # Crash a member that is partitioned when it dies: the CT inserts its
    # ECMP slice kept making could never disseminate, so they are genuine
    # state loss -- and must land in ``stats.lost``, never vanish silently.
    pool.partition_lb(2)
    traffic(2 * lookups, lookups)
    lost_before_crash = channel.stats.lost
    pool.crash_lb(2)
    channel.drain()
    # The sync-staleness bound: once drained, no live member still misses
    # a delta (what was truly lost is in ``stats.lost``).
    if not channel.converged:
        raise AssertionError(
            f"gossip did not converge: staleness {channel.staleness()} after the last drain"
        )
    return {
        "members": pool.size,
        "deliveries": channel.stats.delivered,
        "lost_pushes": channel.stats.lost_pushes,
        "mean_lag_rounds": channel.stats.mean_lag_rounds,
        "staleness_during_partition": staleness_partitioned,
        "rounds_to_heal": heal_rounds,
        "staleness_after_heal": staleness_healed,
        "anti_entropy_repairs": channel.stats.anti_entropy,
        "crash_lost_accounted": channel.stats.lost - lost_before_crash,
        "final_staleness": channel.staleness(),
        "converged": channel.converged,
    }


def build_payload(
    scale: Optional[str] = None, seed: int = 0, registry=None
) -> Dict:
    resolved = scale_name(scale)
    return {
        "experiment": "control_loop",
        "scale": resolved,
        "seed": seed,
        "flash_crowd": run_flash_crowd(resolved, seed=seed, registry=registry),
        "forecast_sweep": run_forecast_sweep(resolved, seed=seed),
        "diurnal": run_diurnal(resolved, seed=seed),
        "gossip": run_gossip_convergence(resolved, seed=seed, registry=registry),
    }


def _tables(payload: Dict) -> str:
    flash = payload["flash_crowd"]
    closed = flash["closed_loop"]
    tracked = flash["tracked_fraction"]
    diurnal = payload["diurnal"]
    gossip = payload["gossip"]
    return "\n".join([
        f"flash crowd (perfect forecast): observed tracked vs flow-weighted "
        f"|H|/(|W|+|H|) {tracked['detail']} {'OK' if tracked['ok'] else 'FAIL'}",
        f"PCC breakage: closed loop {closed['pcc_violations']} vs exogenous-H "
        f"baseline {flash['baseline_pcc_violations']} at matched churn "
        f"({flash['baseline_update_rate_per_min']:.1f} events/min) "
        f"{'OK' if flash['breakage_ok'] else 'FAIL'}",
        "\nforecast-quality sweep:",
        format_table(
            [
                "recall", "precision", "violations", "blackholed", "surprise",
                "phantoms", "scorecard P", "scorecard R",
            ],
            [
                [
                    r["forecast_recall"], r["forecast_precision"],
                    r["pcc_violations"], r["blackholed_flows"],
                    r["surprise_additions"], r["phantom_announcements"],
                    "n/a" if r["horizon_precision"] is None
                    else f"{r['horizon_precision']:.2f}",
                    "n/a" if r["horizon_recall"] is None
                    else f"{r['horizon_recall']:.2f}",
                ]
                for r in payload["forecast_sweep"]
            ],
        ),
        f"\ndiurnal cycle: scale-outs {diurnal['scale_outs']}, "
        f"scale-ins {diurnal['scale_ins']} "
        f"({'cycle closed' if diurnal['cycle_closed'] else 'no scale-in fired'})",
        f"gossip: staleness {gossip['staleness_during_partition']} during "
        f"partition -> {gossip['staleness_after_heal']} after heal "
        f"({gossip['rounds_to_heal']} rounds, "
        f"{gossip['anti_entropy_repairs']} anti-entropy repairs); "
        f"crash accounted {gossip['crash_lost_accounted']} lost deltas; "
        f"mean lag {gossip['mean_lag_rounds']:.2f} rounds",
    ])


CONTROL_LOOP = Experiment(
    name="control-loop", stem="control_loop",
    title="Closed-loop control plane [scale={scale} seed={seed}]",
    run=build_payload, tables=_tables, payload=lambda payload: payload,
    # The instrumented run had a perfect forecast, so gate on it: both
    # scores must sit at 1.0 (tolerance via floor) or the loop is broken.
    envelope=EnvelopeSpec(min_horizon_precision=0.99, min_horizon_recall=0.99),
)


if __name__ == "__main__":
    raise SystemExit(run_module(__spec__.name))
