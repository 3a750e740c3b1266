"""Section 6 extensions.

- **Simultaneous additions and removals (6.1)**: JET preserves PCC through
  *batches* of concurrent backend changes, provided additions come from the
  horizon.  We replay a trace with injected batch events and count
  violations (expected: zero for horizon batches; non-zero once a batch
  bypasses the horizon).

- **Load awareness (6.3)**: two integrations.  Power-of-2-choices: JET
  keeps the CH pick as one candidate; the less-loaded of two candidates
  wins; tracking is needed when the connection is unsafe *or* the winner
  deviates from the CH pick -- expected ~50 % tracked (vs ~10 % for plain
  JET and 100 % for full CT) with near-perfect balance.  Bounded loads
  (Mirrokni et al., the paper's [25]): a hard per-server cap with ring
  cascade -- enforces the cap while tracking only unsafe + cascaded keys.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List

from repro.ch import AnchorHash, RingHash
from repro.core.full_ct import FullCTLoadBalancer
from repro.core.jet import JETLoadBalancer
from repro.core.load_aware import BoundedLoadJET, PowerOfTwoJET
from repro.experiments.report import Experiment, banner, format_table, run_module
from repro.traces.replay import replay
from repro.traces.zipf import zipf_trace


# ----------------------------------------------------- 6.1: batch changes
def simultaneous_changes(
    n_servers: int = 60,
    horizon_size: int = 8,
    batch: int = 4,
    n_packets: int = 200_000,
    seed: int = 7,
) -> Dict[str, int]:
    """Replay with a mid-trace batch removal and a batch horizon addition.

    Returns violation counts for the two phases: the batch *removal* must
    cause only inevitable breakage; the batch *addition from the horizon*
    must cause zero violations.
    """
    trace = zipf_trace(0.9, n_packets=n_packets, population=n_packets // 4, seed=seed)
    working = [f"w{i}" for i in range(n_servers)]
    horizon = [f"h{i}" for i in range(horizon_size)]
    ch = AnchorHash(working, horizon, capacity=2 * (n_servers + horizon_size))
    balancer = JETLoadBalancer(ch)

    removal_batch = working[:batch]
    addition_batch = horizon[:batch]

    def remove_all(lb):
        for name in removal_batch:
            lb.remove_working_server(name)

    def add_all(lb):
        for name in addition_batch:
            lb.add_working_server(name)

    events = [(n_packets // 3, remove_all), (2 * n_packets // 3, add_all)]
    outcome = replay(trace, balancer, events=events)
    return {
        "pcc_violations": outcome.pcc_violations,
        "inevitably_broken": outcome.inevitably_broken,
        "tracked": outcome.tracked_connections,
    }


# ------------------------------------------------------------- 6.3: P2C
@dataclass
class LoadAwareRow:
    mode: str
    tracked_fraction: float
    max_oversubscription: float


def load_aware_comparison(
    n_servers: int = 50,
    horizon_size: int = 5,
    n_packets: int = 150_000,
    seed: int = 11,
) -> List[LoadAwareRow]:
    """Full CT vs plain JET vs P2C-JET vs bounded-load JET on one trace."""
    trace = zipf_trace(0.8, n_packets=n_packets, population=n_packets // 3, seed=seed)
    working = [f"w{i}" for i in range(n_servers)]
    horizon = [f"h{i}" for i in range(horizon_size)]

    # One CH family (Ring) for every row so the load-awareness effect is
    # isolated from CH balance differences.
    def fresh_ch():
        return RingHash(working, horizon, virtual_nodes=100)

    rows: List[LoadAwareRow] = []
    for mode, build in (
        ("full", lambda: FullCTLoadBalancer(fresh_ch())),
        ("jet", lambda: JETLoadBalancer(fresh_ch())),
        ("jet-p2c", lambda: PowerOfTwoJET(fresh_ch())),
        ("jet-chbl", lambda: BoundedLoadJET(fresh_ch(), epsilon=0.10)),
    ):
        balancer = build()
        outcome = replay(trace, balancer)
        rows.append(
            LoadAwareRow(
                mode=mode,
                tracked_fraction=outcome.tracked_connections / outcome.n_flows,
                max_oversubscription=outcome.max_oversubscription,
            )
        )
    return rows


def _tables(result) -> str:
    batch, rows = result
    return "\n".join([
        f"batch removal+addition: violations={batch['pcc_violations']} "
        f"(expected 0), inevitable={batch['inevitably_broken']}, "
        f"tracked={batch['tracked']}",
        banner("Section 6.3 -- load-aware JET (P2C and bounded loads)"),
        format_table(
            ["mode", "tracked fraction", "max oversubscription"],
            [[r.mode, f"{r.tracked_fraction:.3f}", f"{r.max_oversubscription:.3f}"] for r in rows],
        ),
    ])


EXTENSIONS = Experiment(
    name="extensions", stem="extensions", takes=(),
    title="Section 6.1 -- simultaneous backend changes",
    run=lambda: (simultaneous_changes(), load_aware_comparison()),
    tables=_tables,
    payload=lambda result: {
        "simultaneous": result[0],
        "load_aware": [asdict(row) for row in result[1]],
    },
)


if __name__ == "__main__":
    raise SystemExit(run_module(__spec__.name))
