"""Section 6.2 experiment: PCC under LB-pool changes.

Replays a trace through an LB pool, grows the pool mid-trace (the §6.2
disruption: ECMP re-steers flows onto a CT-less instance), and measures:

- PCC violations without synchronization -- non-zero for both JET and
  full CT, confirming §6.2's caveat;
- PCC violations with CT synchronization -- zero for both;
- the synchronization cost -- JET replicates ~|H|/(|W|+|H|) as many
  entries as full CT ("JET's smaller CT size means that a smaller state
  needs to be synchronized").
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List

from repro.ch import AnchorHash
from repro.core.full_ct import FullCTLoadBalancer
from repro.core.jet import JETLoadBalancer
from repro.core.lb_pool import LBPool
from repro.experiments.report import Experiment, format_table, run_module
from repro.traces.replay import replay
from repro.traces.zipf import zipf_trace


@dataclass
class PoolRow:
    mode: str
    sync: bool
    pcc_violations: int
    synced_entries: int
    tracked_total: int

    def cells(self) -> List:
        return [
            self.mode,
            "yes" if self.sync else "no",
            self.pcc_violations,
            self.synced_entries,
            self.tracked_total,
        ]


def run_pool_experiment(
    n_servers: int = 50,
    horizon_size: int = 5,
    pool_size: int = 4,
    n_packets: int = 200_000,
    seed: int = 19,
) -> List[PoolRow]:
    trace = zipf_trace(0.9, n_packets=n_packets, population=n_packets // 4, seed=seed)
    working = [f"w{i}" for i in range(n_servers)]
    horizon = [f"h{i}" for i in range(horizon_size)]

    def jet_factory():
        return JETLoadBalancer(
            AnchorHash(working, horizon, capacity=2 * (n_servers + horizon_size))
        )

    def full_factory():
        return FullCTLoadBalancer(
            AnchorHash(working, horizon, capacity=2 * (n_servers + horizon_size))
        )

    rows: List[PoolRow] = []
    for mode, factory in (("jet", jet_factory), ("full", full_factory)):
        for sync in (False, True):
            pool = LBPool(factory, size=pool_size, sync=sync)
            # Mid-trace: a backend addition pins the unsafe connections to
            # CT entries that disagree with the current CH; the later pool
            # growth re-steers a slice of them onto a CT-less instance.
            events = [
                (n_packets // 4, lambda p: p.add_working_server(horizon[0])),
                (n_packets // 2, lambda p: p.add_lb()),
            ]
            outcome = replay(trace, pool, events=events)
            rows.append(
                PoolRow(
                    mode=mode,
                    sync=sync,
                    pcc_violations=outcome.pcc_violations,
                    synced_entries=pool.synced_entries,
                    tracked_total=pool.tracked_connections,
                )
            )
    return rows


def _tables(rows: List[PoolRow]) -> str:
    text = format_table(
        ["mode", "sync", "PCC violations", "synced entries", "tracked total"],
        [r.cells() for r in rows],
    )
    jet_sync = next(r for r in rows if r.mode == "jet" and r.sync)
    full_sync = next(r for r in rows if r.mode == "full" and r.sync)
    if full_sync.synced_entries:
        ratio = jet_sync.synced_entries / full_sync.synced_entries
        text += f"\nJET syncs {ratio:.1%} of full CT's state"
    return text


LBPOOL = Experiment(
    name="lbpool", stem="lb_pool", takes=(),
    title="Section 6.2 -- LB pool changes",
    run=run_pool_experiment,
    tables=_tables,
    payload=lambda rows: [asdict(row) for row in rows],
)


if __name__ == "__main__":
    raise SystemExit(run_module(__spec__.name))
