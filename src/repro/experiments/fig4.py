"""Figure 4: PCC violations vs CT table size for different JET horizon
sizes, at a fixed backend update rate of 10 removals/min.

The paper sweeps horizons {5, 12, 24, 47} on 468 servers (1 %-10 %); we
keep the same backend *fractions* at the active scale.  Expected shape
(Fig. 4a/4b): every horizon ≥ the update-rate scale matches full CT at
large tables and needs far smaller tables to reach zero violations; a
horizon smaller than the concurrent-down-server count (5 at update rate
10) keeps violating even with a large table, because recovering servers
get evicted from the horizon and return unannounced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.fig3 import PAPER_CT_FRACTIONS
from repro.experiments.report import SCALED, Experiment, format_table, run_module
from repro.experiments.scales import base_config
from repro.sim.scenario import SimulationConfig, run_simulation

#: The paper's horizon sizes as fractions of the 468-server backend, plus
#: one deliberately undersized horizon (1/468) that makes the
#: "horizon too small for the update rate" violations of Fig. 4a visible
#: at reduced scales (down-times shrink with the run length, so fewer
#: servers are concurrently down than in the paper's configuration).
PAPER_HORIZON_FRACTIONS = (1 / 468, 5 / 468, 12 / 468, 24 / 468, 47 / 468)


@dataclass
class Fig4Result:
    ct_sizes: List[int]
    horizons: List[int]
    full_ct: List[int] = field(default_factory=list)
    jet: Dict[int, List[int]] = field(default_factory=dict)

    def to_rows(self) -> List[List]:
        rows = [["Full CT"] + self.full_ct]
        for horizon in self.horizons:
            rows.append([f"JET (H={horizon})"] + self.jet[horizon])
        return rows


def run_fig4(
    scale: str = None,
    horizon_fractions: Sequence[float] = PAPER_HORIZON_FRACTIONS,
    ct_fractions: Sequence[float] = PAPER_CT_FRACTIONS,
    update_rate: float = 10.0,
    base: SimulationConfig = None,
    seed: int = 2,
) -> Fig4Result:
    cfg = base if base is not None else base_config(scale)
    cfg = cfg.with_(update_rate_per_min=update_rate, seed=seed)
    ct_sizes = [max(64, int(cfg.connection_rate * f)) for f in ct_fractions]
    horizons = sorted({max(1, round(cfg.n_servers * f)) for f in horizon_fractions})
    result = Fig4Result(ct_sizes=ct_sizes, horizons=horizons)
    for ct_size in ct_sizes:
        result.full_ct.append(
            run_simulation(cfg.with_(mode="full", ct_capacity=ct_size)).pcc_violations
        )
    for horizon in horizons:
        result.jet[horizon] = []
        for ct_size in ct_sizes:
            run = run_simulation(
                cfg.with_(mode="jet", ct_capacity=ct_size, horizon_size=horizon)
            )
            result.jet[horizon].append(run.pcc_violations)
    return result


FIG4 = Experiment(
    name="fig4", stem="fig4", takes=SCALED,
    title="Figure 4 -- PCC violations vs CT size per horizon [scale={scale}]",
    run=run_fig4,
    tables=lambda result: format_table(
        ["series"] + [f"CT={s}" for s in result.ct_sizes], result.to_rows()
    ),
    payload=lambda result: {
        "ct_sizes": result.ct_sizes, "full_ct": result.full_ct, "jet": result.jet,
    },
)


if __name__ == "__main__":
    raise SystemExit(run_module(__spec__.name))
