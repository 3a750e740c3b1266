"""Shared trace-evaluation harness behind Tables 1-2 and Fig. 7.

For a given trace and backend size it measures, per the paper's setup:

- **maximum oversubscription**, **tracked connections**, and **rate** for
  JET and full CT over table-based HRW and AnchorHash, and full CT over
  MaglevHash (which cannot host JET, Section 3.6);
- horizon = 10 % of the backend; CT unbounded ("no flows are evicted");
- each configuration repeated; mean ± std reported.  Repetitions vary the
  server naming (hence every hash placement), which is what spreads the
  paper's tracked/oversubscription error bars.

Replays go through :func:`~repro.traces.replay.replay_batch`, the path
``python3 -m bench`` measures (columnar where ``columnar_effective``,
scalar otherwise); every counted column is the same on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.stats import MeanStd, aggregate
from repro.ch import rows_for
from repro.core.factories import make_lb
from repro.traces.base import Trace
from repro.traces.replay import replay_batch

#: (family, mode) configurations of Tables 1-2, in paper column order.
PAPER_CONFIGS: Tuple[Tuple[str, str], ...] = (
    ("table", "full"),
    ("table", "jet"),
    ("anchor", "full"),
    ("anchor", "jet"),
    ("maglev", "full"),
)

MAGLEV_TABLE_SIZE = 65537  # prime, the order of Maglev's published sizing
TABLE_COPIES = 300         # paper: "table-based HRW (with 300 copies per server)"


@dataclass
class TraceEvalCell:
    """One table cell: the three metrics for a (family, mode, n) config."""

    family: str
    mode: str
    n_servers: int
    oversubscription: MeanStd
    tracked: MeanStd
    rate_pps: MeanStd

    def row(self) -> List:
        return [
            self.n_servers,
            self.family,
            self.mode,
            format(self.oversubscription, ".3f"),
            format(self.tracked, ".0f"),
            f"{self.rate_pps.mean / 1e6:.3f} ±{self.rate_pps.std / 1e6:.3f}",
        ]


def _build_balancer(family: str, mode: str, n_servers: int, horizon_size: int, rep: int):
    working = [f"r{rep}s{i}" for i in range(n_servers)]
    horizon = [f"r{rep}h{i}" for i in range(horizon_size)]
    ch_kwargs = {
        "table": {"rows": rows_for(n_servers, TABLE_COPIES)},
        "anchor": {"capacity": 2 * (n_servers + horizon_size)},
        "maglev": {"table_size": MAGLEV_TABLE_SIZE},
    }.get(family, {})
    return make_lb(mode, family, working, horizon, **ch_kwargs)


def evaluate_trace(
    trace: Trace,
    n_servers: int,
    repetitions: int = 3,
    horizon_fraction: float = 0.10,
    configs: Sequence[Tuple[str, str]] = PAPER_CONFIGS,
) -> List[TraceEvalCell]:
    """Measure every (family, mode) configuration over ``trace``."""
    horizon_size = max(1, round(n_servers * horizon_fraction))
    cells: List[TraceEvalCell] = []
    for family, mode in configs:
        oversubscription: List[float] = []
        tracked: List[float] = []
        rates: List[float] = []
        for rep in range(repetitions):
            balancer = _build_balancer(family, mode, n_servers, horizon_size, rep)
            outcome = replay_batch(trace, balancer)
            if outcome.pcc_violations:
                raise AssertionError(
                    f"static-backend replay must not violate PCC "
                    f"({family}/{mode}: {outcome.pcc_violations})"
                )
            oversubscription.append(outcome.max_oversubscription)
            tracked.append(outcome.tracked_connections)
            rates.append(outcome.rate_pps)
        cells.append(
            TraceEvalCell(
                family=family,
                mode=mode,
                n_servers=n_servers,
                oversubscription=aggregate(oversubscription),
                tracked=aggregate(tracked),
                rate_pps=aggregate(rates),
            )
        )
    return cells


def cells_to_payload(cells: Sequence[TraceEvalCell]) -> List[Dict]:
    return [
        {
            "n": c.n_servers,
            "family": c.family,
            "mode": c.mode,
            "oversubscription": [c.oversubscription.mean, c.oversubscription.std],
            "tracked": [c.tracked.mean, c.tracked.std],
            "rate_pps": [c.rate_pps.mean, c.rate_pps.std],
        }
        for c in cells
    ]
