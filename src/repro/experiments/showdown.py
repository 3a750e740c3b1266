"""Three-way production showdown: JET vs full-CT vs Concury.

One trace, one membership schedule, three points on the
stateful/stateless spectrum (all over the same table-HRW control plane):

- **jet-table** -- horizon tracking: a CT entry per *unsafe* flow;
- **full-ct-table** -- classic stateful: a CT entry per flow;
- **concury-table** -- Concury-style stateless: an Othello perfect
  mapping over fixed flowsets, zero per-connection state.

Four metric groups, merged into ``BENCH_dataplane.json`` under the
``"showdown"`` key:

- **memory**: bytes of dataplane state after a replay, per flow and per
  backend, plus an explicit connection-independence check (the same
  stack replayed at twice the flow population must not grow for
  Concury -- asserted, not just recorded);
- **lookup**: keys/s at both dispatch tiers -- scalar loop, columnar
  integer-index kernel -- plus the end-to-end columnar replay
  pps and the sharded per-shard critical-path pps (merged result
  asserted byte-equal to the single-process replay first);
- **update_cost**: control-plane seconds per membership event
  (remove + re-add cycles), with Concury's patch-vs-rebuild counters and
  Othello cells touched per event riding along;
- **pcc_churn**: PCC violations, inevitable breaks, tracked state, and
  oversubscription under an identical mid-trace remove/add schedule --
  the consistency price each design pays.

CI gates: ``--min-concury-ratio X`` fails when Concury's columnar
replay pps drops below ``X`` times jet-table's in the same run
(machine-relative, so it holds on any runner); ``--check-against`` runs
:func:`repro.experiments.throughput.check_against`, whose showdown
section fails a fresh Concury columnar rate below 0.9x the recorded one
(same scale only).
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.ch import rows_for
from repro.ch.properties import sample_keys
from repro.core.factories import make_concury, make_full_ct, make_jet
from repro.experiments.scales import scale_name
from repro.obs.timers import best_of
from repro.shard import BalancerSpec, replay_sharded
from repro.shard.worker import _ct_approx_bytes
from repro.traces import replay, replay_batch, zipf_trace

#: Per-scale sizing.  The lookup batch stays at the acceptance-criteria
#: 10k keys; traces and update-cycle counts scale.
SCALES: Dict[str, dict] = {
    "smoke": dict(
        n_servers=20, horizon=2, repeats=3, batch=10_000, shards=4,
        trace_packets=60_000, trace_population=12_000, update_cycles=30,
    ),
    "default": dict(
        n_servers=50, horizon=5, repeats=3, batch=10_000, shards=4,
        trace_packets=400_000, trace_population=80_000, update_cycles=50,
    ),
    "paper": dict(
        n_servers=468, horizon=47, repeats=5, batch=10_000, shards=8,
        trace_packets=4_000_000, trace_population=600_000, update_cycles=100,
    ),
}

#: The three contenders, keyed by report label.  ``spec_mode`` is the
#: :class:`~repro.shard.BalancerSpec` mode used for the sharded tier.
CONTENDERS = ("jet-table", "full-ct-table", "concury-table")
_SPEC_MODES = {"jet-table": "jet", "full-ct-table": "full", "concury-table": "concury"}

_TIMING_FIELDS = ("rate_pps", "wall_seconds")


def _builders(params: dict, seed: int) -> Dict[str, Callable]:
    n = params["n_servers"]
    working = [f"s{i}" for i in range(n)]
    horizon = [f"h{i}" for i in range(params["horizon"])]
    rows = rows_for(n)
    return {
        "jet-table": lambda: make_jet("table", working, horizon, rows=rows),
        "full-ct-table": lambda: make_full_ct("table", working, horizon, rows=rows),
        "concury-table": lambda: make_concury(
            "table", working, horizon, seed=seed, rows=rows
        ),
    }


def _state_bytes(balancer) -> int:
    """Dataplane state: the Othello map for Concury, the CT otherwise."""
    map_bytes = getattr(balancer, "map_memory_bytes", None)
    if map_bytes is not None:
        return int(map_bytes)
    return _ct_approx_bytes(balancer)


def run_memory(params: dict, seed: int) -> List[dict]:
    """State bytes after a replay, and whether they track connection count."""
    base = zipf_trace(
        skew=1.0, n_packets=params["trace_packets"],
        population=params["trace_population"], seed=seed,
    )
    double = zipf_trace(
        skew=1.0, n_packets=params["trace_packets"],
        population=2 * params["trace_population"], seed=seed + 1,
    )
    backends = params["n_servers"] + params["horizon"]
    rows = []
    for label, build in _builders(params, seed).items():
        lb = build()
        result = replay_batch(base, lb)
        state = _state_bytes(lb)
        lb2 = build()
        replay_batch(double, lb2)
        state2 = _state_bytes(lb2)
        independent = state2 == state
        if label == "concury-table" and not independent:
            raise AssertionError(
                f"concury state grew with connection count "
                f"({state} -> {state2} bytes at 2x population)"
            )
        rows.append(
            {
                "balancer": label,
                "flows": result.n_flows,
                "tracked_connections": result.tracked_connections,
                "state_bytes": state,
                "bytes_per_flow": state / result.n_flows if result.n_flows else 0.0,
                "bytes_per_backend": state / backends,
                "state_bytes_2x_population": state2,
                "connection_independent": independent,
            }
        )
    return rows


def run_lookup(params: dict, seed: int) -> dict:
    """Keys/s per dispatch tier: scalar, columnar, sharded."""
    batch = params["batch"]
    repeats = max(1, params["repeats"])
    keys = np.array(sample_keys(batch, seed=seed), dtype=np.uint64)
    key_list = keys.tolist()
    trace = zipf_trace(
        skew=1.0, n_packets=params["trace_packets"],
        population=params["trace_population"], seed=seed,
    )
    rows = []
    for label, build in _builders(params, seed).items():
        lb = build()
        # Differential gate before any timing: the integer-index kernel
        # and the scalar loop must agree key for key.
        probe = keys[:512]
        idx = lb.get_destinations_batch_idx(probe)
        table = lb.dispatch_names()
        for i, k in enumerate(probe.tolist()):
            if table[idx[i]] != lb.get_destination(k):
                raise AssertionError(f"{label}: dispatch tiers diverge at key {k}")
        lb.get_destinations_batch_idx(keys)  # warm the CT before steady-state timing
        scalar_s = best_of(
            repeats, lambda: [lb.get_destination(k) for k in key_list]
        )
        idx_s = best_of(repeats, lambda: lb.get_destinations_batch_idx(keys))

        replay_pps = 0.0
        for _ in range(repeats):
            # Fresh balancer per repeat: a warm CT would flatter reruns.
            replay_pps = max(replay_pps, replay_batch(trace, build()).rate_pps)

        spec = BalancerSpec.fleet(
            mode=_SPEC_MODES[label], family="table",
            n_servers=params["n_servers"], horizon_size=params["horizon"],
            seed=seed,
        )
        single = replay_batch(trace, spec.build(0))
        sharded = replay_sharded(
            trace, spec, n_workers=1, n_shards=params["shards"]
        )
        for field in single.__dataclass_fields__:
            if field in _TIMING_FIELDS:
                continue
            if getattr(sharded.result, field) != getattr(single, field):
                raise AssertionError(
                    f"{label}: sharded merge diverges from single ({field})"
                )
        rows.append(
            {
                "balancer": label,
                "batch_size": batch,
                "scalar_keys_per_s": batch / scalar_s,
                "columnar_kernel_keys_per_s": batch / idx_s,
                "columnar_replay_pps": replay_pps,
                "sharded_critical_path_pps": sharded.result.rate_pps,
            }
        )
    by_label = {row["balancer"]: row for row in rows}
    jet = by_label["jet-table"]["columnar_replay_pps"]
    concury = by_label["concury-table"]["columnar_replay_pps"]
    return {
        "batch_size": batch,
        "shards": params["shards"],
        "trace_packets": trace.n_packets,
        "rows": rows,
        "concury_vs_jet_columnar": concury / jet if jet else 0.0,
    }


def run_update_cost(params: dict, seed: int) -> List[dict]:
    """Control-plane seconds per membership event (remove + re-add cycles)."""
    trace = zipf_trace(
        skew=1.0, n_packets=params["trace_packets"] // 4,
        population=params["trace_population"] // 4, seed=seed,
    )
    victim = f"s{params['n_servers'] - 1}"
    cycles = params["update_cycles"]
    rows = []
    for label, build in _builders(params, seed).items():
        lb = build()
        replay_batch(trace, lb)  # a populated CT makes invalidation cost real
        start = perf_counter()
        for _ in range(cycles):
            lb.remove_working_server(victim)
            lb.add_working_server(victim)
        elapsed = perf_counter() - start
        row = {
            "balancer": label,
            "events": 2 * cycles,
            "seconds_per_event": elapsed / (2 * cycles),
        }
        stats = getattr(lb, "update_stats", None)
        if stats is not None:
            row["concury"] = {
                "rebuilds": stats["rebuilds"],
                "patches": stats["patches"],
                "flowsets_per_event": stats["flowsets_changed"] / (2 * cycles),
                "cells_per_event": stats["cells_touched"] / (2 * cycles),
            }
        rows.append(row)
    return rows


def run_pcc_churn(params: dict, seed: int) -> List[dict]:
    """PCC under an identical mid-trace remove/add schedule per contender."""
    packets = params["trace_packets"]
    trace = zipf_trace(
        skew=1.0, n_packets=packets,
        population=params["trace_population"], seed=seed + 2,
    )

    def events():
        return [
            (packets // 3, lambda lb: lb.remove_working_server("s0")),
            (2 * packets // 3, lambda lb: lb.add_working_server("h0")),
        ]

    rows = []
    for label, build in _builders(params, seed).items():
        result = replay_batch(trace, build(), events())
        rows.append(
            {
                "balancer": label,
                "pcc_violations": result.pcc_violations,
                "inevitably_broken": result.inevitably_broken,
                "violation_rate": result.pcc_violations / result.n_flows,
                "tracked_connections": result.tracked_connections,
                "max_oversubscription": result.max_oversubscription,
            }
        )
    return rows


def run_showdown(scale: Optional[str] = None, seed: int = 1) -> dict:
    name = scale_name(scale)
    params = SCALES[name]
    return {
        "experiment": "showdown",
        "scale": name,
        "seed": seed,
        "n_servers": params["n_servers"],
        "horizon": params["horizon"],
        "contenders": list(CONTENDERS),
        "memory": run_memory(params, seed),
        "lookup": run_lookup(params, seed),
        "update_cost": run_update_cost(params, seed),
        "pcc_churn": run_pcc_churn(params, seed),
    }


def concury_ratio(payload: dict) -> float:
    return payload["lookup"]["concury_vs_jet_columnar"]


def format_report(payload: dict) -> str:
    lines = [
        f"three-way showdown @ scale={payload['scale']} "
        f"(W={payload['n_servers']} H={payload['horizon']})",
        f"{'balancer':<15} {'tracked':>9} {'state B':>10} {'B/flow':>8} "
        f"{'B/backend':>10}  conn-independent",
    ]
    for row in payload["memory"]:
        lines.append(
            f"{row['balancer']:<15} {row['tracked_connections']:>9,} "
            f"{row['state_bytes']:>10,} {row['bytes_per_flow']:>8.1f} "
            f"{row['bytes_per_backend']:>10,.0f}  "
            f"{'yes' if row['connection_independent'] else 'no'}"
        )
    lookup = payload["lookup"]
    lines.append(
        f"{'balancer':<15} {'scalar k/s':>11} "
        f"{'idx k/s':>11} {'replay pps':>12} {'sharded pps':>12}"
    )
    for row in lookup["rows"]:
        lines.append(
            f"{row['balancer']:<15} {row['scalar_keys_per_s']:>11,.0f} "
            f"{row['columnar_kernel_keys_per_s']:>11,.0f} "
            f"{row['columnar_replay_pps']:>12,.0f} "
            f"{row['sharded_critical_path_pps']:>12,.0f}"
        )
    lines.append(
        f"concury/jet columnar replay ratio: {lookup['concury_vs_jet_columnar']:.2f}x"
    )
    lines.append(f"{'balancer':<15} {'s/event':>12}  control-plane detail")
    for row in payload["update_cost"]:
        detail = ""
        if "concury" in row:
            c = row["concury"]
            detail = (
                f"patches={c['patches']} rebuilds={c['rebuilds']} "
                f"{c['flowsets_per_event']:.0f} flowsets/event "
                f"{c['cells_per_event']:.0f} cells/event"
            )
        lines.append(f"{row['balancer']:<15} {row['seconds_per_event']:>12.6f}  {detail}")
    lines.append(
        f"{'balancer':<15} {'pcc viol':>9} {'inevitable':>11} {'rate':>9} "
        f"{'tracked':>9} {'oversub':>8}"
    )
    for row in payload["pcc_churn"]:
        lines.append(
            f"{row['balancer']:<15} {row['pcc_violations']:>9,} "
            f"{row['inevitably_broken']:>11,} {row['violation_rate']:>9.5f} "
            f"{row['tracked_connections']:>9,} {row['max_oversubscription']:>8.3f}"
        )
    return "\n".join(lines)


def merge_into_bench(payload: dict, path: str) -> None:
    """Record the payload under ``"showdown"`` in the bench JSON at ``path``.

    An existing file keeps its other sections (the throughput experiment
    owns the top level, sharding its own key); a missing or unreadable
    one is created fresh.
    """
    recorded: dict = {}
    try:
        with open(path) as fh:
            recorded = json.load(fh)
    except (OSError, ValueError):
        recorded = {}
    if not isinstance(recorded, dict):
        recorded = {}
    recorded["showdown"] = payload
    with open(path, "w") as fh:
        json.dump(recorded, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default=None, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--output", default="BENCH_dataplane.json",
                        help="bench JSON to merge the 'showdown' section into")
    parser.add_argument(
        "--min-concury-ratio", type=float, default=None, metavar="X",
        help="fail when Concury's columnar replay pps is below X times "
        "jet-table's in the same run (CI gate, machine-relative)",
    )
    parser.add_argument(
        "--check-against", default=None, metavar="PATH",
        help="committed BENCH_dataplane.json to gate against (CI); "
        "exits nonzero when the fresh Concury columnar rate regresses "
        "below 0.9x the recorded one",
    )
    args = parser.parse_args(argv)
    payload = run_showdown(scale=args.scale, seed=args.seed)
    print(format_report(payload))
    merge_into_bench(payload, args.output)
    print(f"recorded under 'showdown' in {args.output}")
    if args.min_concury_ratio is not None:
        ratio = concury_ratio(payload)
        if ratio < args.min_concury_ratio:
            raise SystemExit(
                f"REGRESSION: concury/jet columnar ratio {ratio:.2f} "
                f"< {args.min_concury_ratio}"
            )
        print(f"concury ratio gate (>= {args.min_concury_ratio}): ok ({ratio:.2f}x)")
    if args.check_against:
        from repro.experiments.throughput import check_against

        with open(args.check_against) as fh:
            recorded = json.load(fh)
        failures = check_against({"scale": payload["scale"], "showdown": payload},
                                 recorded)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            raise SystemExit(1)
        print(f"regression gate vs {args.check_against}: ok")


if __name__ == "__main__":
    main()
