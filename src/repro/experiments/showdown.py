"""Three-way production showdown: JET vs full-CT vs Concury, in counts.

One trace, one membership schedule, three points on the
stateful/stateless spectrum (all over the same table-HRW control plane):

- **jet-table** -- horizon tracking: a CT entry per *unsafe* flow;
- **full-ct-table** -- classic stateful: a CT entry per flow;
- **concury-table** -- Concury-style stateless: an Othello perfect
  mapping over fixed flowsets, zero per-connection state.

Three sections, all deterministic per seed, recorded under the
``"showdown"`` key of ``BENCH_dataplane.json`` and gated for equality by
:mod:`repro.experiments.counted`:

- **memory**: bytes of dataplane state after a replay, per flow and per
  backend, plus an explicit connection-independence check (the same
  stack replayed at twice the flow population must grow neither its
  tracked entries nor its bytes -- asserted for Concury, recorded for
  the other two);
- **concury_updates**: what a membership event costs Concury's control
  plane in patches, rebuilds, flowsets and Othello cells touched;
- **pcc_churn**: PCC violations, inevitable breaks, tracked state, and
  oversubscription under an identical mid-trace remove/add schedule --
  the consistency price each design pays.

How fast each contender moves packets is not measured here: that is
``python3 -m bench`` (``replay-steady`` / ``replay-churn``).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.ch import rows_for
from repro.core.factories import make_concury, make_full_ct, make_jet
from repro.traces import replay_batch, zipf_trace

#: Per-scale sizing: fleet, trace, and remove/re-add cycle count.
SCALES: Dict[str, dict] = {
    "smoke": dict(
        n_servers=20, horizon=2,
        trace_packets=60_000, trace_population=12_000, update_cycles=30,
    ),
    "default": dict(
        n_servers=50, horizon=5,
        trace_packets=400_000, trace_population=80_000, update_cycles=50,
    ),
    "paper": dict(
        n_servers=468, horizon=47,
        trace_packets=4_000_000, trace_population=600_000, update_cycles=100,
    ),
}


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
    return balancer.ct.nbytes


def run_memory(params: dict, seed: int) -> List[dict]:
    """State after a replay, and whether it tracks connection count."""
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
        tracked2 = replay_batch(double, lb2).tracked_connections
        state2 = _state_bytes(lb2)
        # Entries *and* bytes: UnboundedCT grows in power-of-two steps, so
        # bytes alone can sit still while the table fills.
        independent = (
            state2 == state and tracked2 == result.tracked_connections
        )
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
                "tracked_connections_2x_population": tracked2,
                "state_bytes_2x_population": state2,
                "connection_independent": independent,
            }
        )
    return rows


def run_concury_updates(params: dict, seed: int) -> dict:
    """Concury's control-plane work per membership event (remove + re-add)."""
    victim = f"s{params['n_servers'] - 1}"
    events = 2 * params["update_cycles"]
    lb = _builders(params, seed)["concury-table"]()
    for _ in range(params["update_cycles"]):
        lb.remove_working_server(victim)
        lb.add_working_server(victim)
    stats = lb.update_stats
    return {
        "events": events,
        "rebuilds": stats["rebuilds"],
        "patches": stats["patches"],
        "flowsets_per_event": stats["flowsets_changed"] / events,
        "cells_per_event": stats["cells_touched"] / events,
    }


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


def run_showdown(scale: str, seed: int) -> dict:
    params = SCALES[scale]
    return {
        "n_servers": params["n_servers"],
        "horizon": params["horizon"],
        "memory": run_memory(params, seed),
        "concury_updates": run_concury_updates(params, seed),
        "pcc_churn": run_pcc_churn(params, seed),
    }


def format_report(payload: dict) -> str:
    lines = [
        f"three-way showdown (W={payload['n_servers']} H={payload['horizon']})",
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
    c = payload["concury_updates"]
    lines.append(
        f"concury control plane over {c['events']} events: "
        f"patches={c['patches']} rebuilds={c['rebuilds']} "
        f"{c['flowsets_per_event']:.0f} flowsets/event "
        f"{c['cells_per_event']:.0f} cells/event"
    )
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
