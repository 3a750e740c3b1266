"""Figure 3: PCC violations vs CT table size for different backend update
rates -- full CT at update rates {1, 2, 5, 10, 20, 40}/min versus JET with a
10 % horizon.

The paper's CT sizes run from 10 % to 150 % of the connection rate
(10K-150K for rate 100K); we keep those fractions at the active scale.
The expected shape: full-CT violations grow with the update rate and fall
as the table grows, reaching zero once the table exceeds the active-flow
count (~150 % of the rate); JET stays at (near) zero everywhere except the
smallest table under the highest update rates -- and even there it is an
order of magnitude below full CT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.report import SCALED, Experiment, format_table, run_module
from repro.experiments.scales import base_config
from repro.sim.scenario import SimulationConfig, run_simulation

PAPER_UPDATE_RATES = (1, 2, 5, 10, 20, 40)
PAPER_CT_FRACTIONS = (0.10, 0.25, 0.50, 0.75, 1.00, 1.25, 1.50)


@dataclass
class Fig3Result:
    """Violations per (series, CT size); series are full-CT update rates
    plus one JET series per update rate."""

    ct_sizes: List[int]
    update_rates: Sequence[float]
    full_ct: Dict[float, List[int]] = field(default_factory=dict)
    jet: Dict[float, List[int]] = field(default_factory=dict)

    def to_rows(self) -> List[List]:
        rows = []
        for rate in self.update_rates:
            rows.append([f"Full CT (rate {rate:g})"] + self.full_ct[rate])
            rows.append([f"JET     (rate {rate:g})"] + self.jet[rate])
        return rows


def run_fig3(
    scale: str = None,
    update_rates: Sequence[float] = PAPER_UPDATE_RATES,
    ct_fractions: Sequence[float] = PAPER_CT_FRACTIONS,
    base: SimulationConfig = None,
    seed: int = 1,
) -> Fig3Result:
    """Run the Fig. 3 sweep and return the violation matrix."""
    cfg = base if base is not None else base_config(scale)
    ct_sizes = [max(64, int(cfg.connection_rate * f)) for f in ct_fractions]
    result = Fig3Result(ct_sizes=ct_sizes, update_rates=list(update_rates))
    for rate in update_rates:
        result.full_ct[rate] = []
        result.jet[rate] = []
        for ct_size in ct_sizes:
            common = cfg.with_(
                update_rate_per_min=rate, ct_capacity=ct_size, seed=seed
            )
            result.full_ct[rate].append(
                run_simulation(common.with_(mode="full")).pcc_violations
            )
            result.jet[rate].append(
                run_simulation(common.with_(mode="jet")).pcc_violations
            )
    return result


FIG3 = Experiment(
    name="fig3", stem="fig3", takes=SCALED,
    title="Figure 3 -- PCC violations vs CT table size [scale={scale}]",
    run=run_fig3,
    tables=lambda result: format_table(
        ["series"] + [f"CT={s}" for s in result.ct_sizes], result.to_rows()
    ),
    payload=lambda result: {
        "ct_sizes": result.ct_sizes, "full_ct": result.full_ct, "jet": result.jet,
    },
)


if __name__ == "__main__":
    raise SystemExit(run_module(__spec__.name))
