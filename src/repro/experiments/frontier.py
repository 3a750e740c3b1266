"""The stateful <-> stateless frontier: per-flow state against broken flows.

Thirteen table-HRW stacks from ``BalancerSpec.fleet`` -- stateless,
Concury, JET at each |H| of ``JET_HORIZONS``, full CT bounded (LRU) and
unbounded -- replay one Zipf trace under six remove / re-add events; a
removed server joins H, so every re-addition is announced.  ``run_frontier``
raises unless JET breaks exactly the flows full CT breaks at every |H|
(Proposition 4.1 with Theorem 4.4; the other points keep the scale's
horizon, so their CH state machine is JET's), and no bounded full CT with
at most a JET point's peak entries breaks fewer flows than it (Fig. 4, on
its CT-size axis).  Bytes are reported, not compared.  Counts only, gated
by :mod:`repro.experiments.counted`; rates are ``python3 -m bench``'s.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.experiments.report import SEEDED, Experiment, format_table, run_module
from repro.shard import BalancerSpec, MembershipEvent
from repro.traces import replay_batch, zipf_trace

#: Per-scale fleet (|W| and the non-JET points' horizon) and trace.
SCALES: Dict[str, dict] = {
    "smoke": dict(n_servers=20, horizon=2, packets=60_000, population=12_000),
    "default": dict(n_servers=50, horizon=5, packets=400_000, population=80_000),
    "paper": dict(n_servers=468, horizon=47, packets=4_000_000, population=600_000),
}
JET_HORIZONS = (0, 1, 5, 10, 50)
BOUNDED_PERCENT = (2, 5, 10, 25, 50)  # LRU capacity, % of the trace's flows
SCHEDULE = [(op, name) for name in ("s1", "s2", "s3") for op in ("remove_working", "add_working")]


def _points(params: dict, n_flows: int) -> Iterator[Tuple[str, dict]]:
    """(point, ``BalancerSpec.fleet`` arguments) in table order."""
    own = params["horizon"]
    yield "stateless", dict(mode="stateless", horizon_size=own)
    yield "concury", dict(mode="concury", horizon_size=own)
    for horizon in JET_HORIZONS:
        yield "jet", dict(mode="jet", horizon_size=horizon)
    for percent in BOUNDED_PERCENT:
        yield "full-lru", dict(mode="full", horizon_size=own, ct_capacity=n_flows * percent // 100)
    yield "full", dict(mode="full", horizon_size=own)


def run_frontier(scale: str, seed: int) -> dict:
    params = SCALES[scale]
    trace = zipf_trace(1.0, params["packets"], params["population"], seed=seed)
    flows, gap = trace.n_flows, trace.n_packets // (len(SCHEDULE) + 1)
    events = [
        (index * gap, MembershipEvent(index * gap, op, name).apply)
        for index, (op, name) in enumerate(SCHEDULE, 1)
    ]
    rows: List[dict] = []
    for point, fleet in _points(params, flows):
        spec = BalancerSpec.fleet(
            family="table", n_servers=params["n_servers"], seed=seed, **fleet
        )
        balancer = spec.build(0)
        result = replay_batch(trace, balancer, events)
        ct = getattr(balancer, "ct", None)
        rows.append({
            "point": point,
            "horizon": len(spec.horizon),
            "ct_capacity": spec.ct_capacity,
            "peak_entries": result.ct_peak_size,
            "entries_per_flow": result.ct_peak_size / flows,
            "state_bytes": getattr(ct, "nbytes", getattr(balancer, "map_memory_bytes", 0)),
            "pcc_violations": result.pcc_violations,
            "violation_fraction": result.pcc_violations / flows,
            "inevitably_broken": result.inevitably_broken,
        })
        if point == "concury":
            stats = balancer.update_stats
            rows[-1].update(patches=stats["patches"], rebuilds=stats["rebuilds"],
                            flowsets_per_event=stats["flowsets_changed"] / len(events),
                            cells_per_event=stats["cells_touched"] / len(events))
    _check(rows)
    return {"n_servers": params["n_servers"], "packets": trace.n_packets, "flows": flows,
            "events": len(events), "rows": rows}


def _check(rows: List[dict]) -> None:
    (full,) = [row for row in rows if row["point"] == "full"]
    for jet in (row for row in rows if row["point"] == "jet"):
        broken = jet["pcc_violations"]
        if broken != full["pcc_violations"]:
            raise AssertionError(
                f"JET at |H|={jet['horizon']} breaks {broken} flows, unbounded full CT "
                f"{full['pcc_violations']} (Proposition 4.1, Theorem 4.4)"
            )
        for row in rows:
            capacity = row["ct_capacity"]
            if capacity and capacity <= jet["peak_entries"] and row["pcc_violations"] < broken:
                raise AssertionError(
                    f"full CT bounded at {capacity} entries breaks {row['pcc_violations']} flows, "
                    f"fewer than JET at |H|={jet['horizon']} with {jet['peak_entries']}"
                )


def _tables(payload: dict) -> str:
    table = format_table(
        ["point", "|H|", "CT cap", "peak entries", "entries/flow", "state B", "violations",
         "viol. frac", "inevitable"],
        [[row["point"], row["horizon"], row["ct_capacity"] or "-", row["peak_entries"],
          row["entries_per_flow"], row["state_bytes"], row["pcc_violations"],
          f"{row['violation_fraction']:.5f}", row["inevitably_broken"]]
         for row in payload["rows"]],
    )
    (concury,) = [row for row in payload["rows"] if row["point"] == "concury"]
    return (
        f"|W|={payload['n_servers']}, {payload['flows']} flows, {payload['packets']} packets, "
        f"{payload['events']} remove/re-add events\n{table}\n"
        f"concury control plane: patches={concury['patches']} rebuilds={concury['rebuilds']} "
        f"{concury['flowsets_per_event']:.0f} flowsets/event "
        f"{concury['cells_per_event']:.0f} cells/event"
    )


FRONTIER = Experiment(
    name="frontier", stem="frontier", takes=SEEDED,
    title="Stateful <-> stateless frontier [scale={scale} seed={seed}]",
    run=run_frontier,
    tables=_tables,
    payload=lambda payload: payload,
)


if __name__ == "__main__":
    raise SystemExit(run_module(__spec__.name))
