"""Figure 7: JET vs full CT over synthetic Zipf traces -- maximum
oversubscription, tracked connections, and rate, as functions of the skew
(0.6-1.4), for table-based HRW, AnchorHash, and MaglevHash (full CT only),
with backend sizes n ∈ {50, 500}.

Expected shapes (paper Section 5.3):

- oversubscription identical for JET and full CT; grows with skew
  (footnote 6 caveat aside, fewer distinct flows => noisier balance) and
  with backend size; AnchorHash/Maglev balance better than table-HRW;
- tracked connections: JET ≈ 10 % of full CT at every skew; the absolute
  number falls with skew as the distinct-flow count drops;
- rate rises with skew for every LB (more CT/table hits on hot rows) --
  in Python the effect comes from dict-hit locality rather than L1/L2.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.report import SCALED, Experiment, format_table, run_module
from repro.experiments.scales import repeats, scale_name, zipf_params
from repro.experiments.trace_eval import (
    PAPER_CONFIGS,
    TraceEvalCell,
    cells_to_payload,
    evaluate_trace,
)
from repro.traces.zipf import PAPER_SKEWS, zipf_trace

PAPER_BACKEND_SIZES = (50, 500)

Fig7Result = Dict[Tuple[float, int], List[TraceEvalCell]]


def run_fig7(
    scale: str = None,
    skews: Sequence[float] = PAPER_SKEWS,
    backend_sizes: Sequence[int] = PAPER_BACKEND_SIZES,
    repetitions: int = None,
    configs=PAPER_CONFIGS,
    seed: int = 0,
) -> Fig7Result:
    active = scale_name(scale)
    if repetitions is None:
        repetitions = max(2, repeats(active) - 1)  # fig7 is the widest sweep
    params = zipf_params(active)
    results: Fig7Result = {}
    for skew in skews:
        trace = zipf_trace(skew, seed=seed, **params)
        for n in backend_sizes:
            results[(skew, n)] = evaluate_trace(
                trace, n, repetitions=repetitions, configs=configs
            )
    return results


def _tables(results: Fig7Result) -> str:
    headers = ["skew", "n", "hash", "mode", "max oversub", "tracked", "rate [Mpps]"]
    rows = []
    for (skew, n) in sorted(results):
        for cell in results[(skew, n)]:
            rows.append([skew] + cell.row())
    return format_table(headers, rows)


FIG7 = Experiment(
    name="fig7", stem="fig7", takes=SCALED,
    title="Figure 7 -- JET vs full CT across Zipf skews [scale={scale}]",
    run=run_fig7,
    tables=_tables,
    payload=lambda results: {"cells": {
        f"skew={skew},n={n}": cells_to_payload(cells)
        for (skew, n), cells in results.items()
    }},
)


if __name__ == "__main__":
    raise SystemExit(run_module(__spec__.name))
