"""Sharded-dataplane experiment: per-shard CT cost, JET vs full CT.

Why is sharding cheap for JET specifically?  Each shard replicates the
membership machine but tracks only its own unsafe flows, so per-shard CT
state and cross-LB sync traffic (one delta per insert) stay
``|H|/(|W|+|H|)`` of the shard's flows (Theorem 4.2) while a full-CT
dataplane pays the whole flow table per shard.  The sweep grows
``|W|/|H|`` at fixed horizon and records measured JET-vs-full per-shard
entries, bytes, and sync deltas against the ``(|W|+|H|)/|H|`` theory
ratio -- counts, deterministic per seed, recorded under the
``"sharding"`` key of ``BENCH_dataplane.json`` and gated for equality by
:mod:`repro.experiments.counted`.

What sharding does to packets per second is ``python3 -m bench
--workload replay-sharded``, measured end to end.
"""

from __future__ import annotations

from typing import Dict, List

from repro.shard import BalancerSpec, replay_sharded
from repro.traces import zipf_trace

#: Per-scale sizing of the cost sweep.
SCALES: Dict[str, dict] = {
    "smoke": dict(
        packets=120_000, population=30_000,
        horizon=4, ratios=(4, 10, 25, 50), shards=4,
    ),
    "default": dict(
        packets=500_000, population=120_000,
        horizon=5, ratios=(4, 10, 25, 50, 100), shards=4,
    ),
    "paper": dict(
        packets=2_000_000, population=500_000,
        horizon=47, ratios=(4, 10, 25, 50, 100), shards=8,
    ),
}


def run_ct_cost(scale: str, seed: int) -> dict:
    """JET vs full-CT per-shard state and sync cost as |W|/|H| grows."""
    params = SCALES[scale]
    horizon = params["horizon"]
    n_shards = params["shards"]
    trace = zipf_trace(
        skew=1.0,
        n_packets=params["packets"],
        population=params["population"],
        seed=seed + 1,
    )
    rows: List[dict] = []
    for ratio in params["ratios"]:
        working = ratio * horizon
        per_mode: Dict[str, dict] = {}
        for mode in ("jet", "full"):
            spec = BalancerSpec.fleet(
                mode=mode, family="table",
                n_servers=working, horizon_size=horizon, seed=seed,
            )
            outcomes = replay_sharded(
                trace, spec, n_workers=1, n_shards=n_shards
            ).outcomes
            entries = [o.result.tracked_connections for o in outcomes]
            mean_entries = sum(entries) / n_shards
            per_mode[mode] = {
                "entries_per_shard": mean_entries,
                "max_entries_per_shard": max(entries),
                "ct_bytes_per_shard": sum(o.ct_bytes for o in outcomes) / n_shards,
                # Churn-free unbounded CT: every insert is one tracked
                # entry and one cross-LB sync delta, so entries double as
                # the gossip-sync traffic figure.
                "sync_deltas_per_shard": mean_entries,
            }
        jet_entries = per_mode["jet"]["entries_per_shard"]
        rows.append(
            {
                "working": working,
                "horizon": horizon,
                "w_over_h": ratio,
                "jet": per_mode["jet"],
                "full": per_mode["full"],
                "full_over_jet_entries": (
                    per_mode["full"]["entries_per_shard"] / jet_entries
                    if jet_entries
                    else 0.0
                ),
                "theory_full_over_jet": (working + horizon) / horizon,
            }
        )
    return {
        "family": "table",
        "n_shards": n_shards,
        "trace_packets": trace.n_packets,
        "trace_population": trace.n_flows,
        "rows": rows,
    }


def format_report(cost: dict) -> str:
    lines = [
        f"per-shard CT cost, {cost['n_shards']} shards, "
        f"{cost['trace_packets']:,} packets:",
        f"{'|W|/|H|':>8} {'jet entries':>12} {'full entries':>13} "
        f"{'full/jet':>9} {'theory':>7} {'jet B':>10} {'full B':>10}",
    ]
    for row in cost["rows"]:
        lines.append(
            f"{row['w_over_h']:>8} {row['jet']['entries_per_shard']:>12,.0f} "
            f"{row['full']['entries_per_shard']:>13,.0f} "
            f"{row['full_over_jet_entries']:>8.1f}x "
            f"{row['theory_full_over_jet']:>6.1f}x "
            f"{row['jet']['ct_bytes_per_shard']:>10,.0f} "
            f"{row['full']['ct_bytes_per_shard']:>10,.0f}"
        )
    return "\n".join(lines)
