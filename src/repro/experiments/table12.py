"""Tables 1 and 2: evaluation over the UNI1 (IMC'10) and NY18 (CAIDA 2018)
traces -- here their calibrated synthetic stand-ins (see
``repro.traces.synthetic_dc`` and DESIGN.md for the substitution).

Per trace and backend size n ∈ {50, 500}: maximum oversubscription, tracked
connections, and packet rate for table-based HRW (full CT / JET), AnchorHash
(full CT / JET), and MaglevHash (full CT), with an unbounded CT and a 10 %
horizon.  Expected shapes:

- tracked(JET) ≈ 10 % of tracked(full CT) = 10 % of the flow count,
  insensitive to n and to the hash family;
- oversubscription identical between JET and full CT per family; better
  for AnchorHash/Maglev than table-HRW; worse at n=500 than n=50;
- rate: Python measures interpreter costs, not cache residency, so only
  the JET-vs-full *tracking* effects carry over (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.report import SCALED, Experiment, format_table, run_module
from repro.experiments.scales import repeats, scale_name, trace_scale
from repro.experiments.trace_eval import TraceEvalCell, cells_to_payload, evaluate_trace
from repro.traces.base import Trace
from repro.traces.synthetic_dc import ny18_like, uni1_like

PAPER_BACKEND_SIZES = (50, 500)


def run_table(
    which: str,
    scale: str = None,
    backend_sizes: Sequence[int] = PAPER_BACKEND_SIZES,
    repetitions: int = None,
    seed: int = 0,
) -> Tuple[Dict[int, List[TraceEvalCell]], Trace]:
    """Run Table 1 (``which="uni1"``) or Table 2 (``which="ny18"``):
    the cells per backend size, and the trace they were measured on."""
    active = scale_name(scale)
    if repetitions is None:
        repetitions = repeats(active)
    factory = {"uni1": uni1_like, "ny18": ny18_like}[which]
    trace = factory(scale=trace_scale(active), seed=seed)
    return {
        n: evaluate_trace(trace, n, repetitions=repetitions)
        for n in backend_sizes
    }, trace


def _entry(name: str, which: str, title: str) -> Experiment:
    headers = ["n", "hash", "mode", "max oversub", "tracked", "rate [Mpps]"]
    return Experiment(
        name=name, stem=f"table_{which}", takes=SCALED,
        title=f"{title} [scale={{scale}}]",
        run=lambda scale: run_table(which, scale=scale),
        tables=lambda ran: ran[1].describe() + "\n" + format_table(
            headers, [cell.row() for n in sorted(ran[0]) for cell in ran[0][n]]
        ),
        payload=lambda ran: {
            "trace": ran[1].describe(),
            "cells": {n: cells_to_payload(cells) for n, cells in ran[0].items()},
        },
    )


TABLE1 = _entry("table1", "uni1", "Table 1 -- UNI1-like trace evaluation")
TABLE2 = _entry("table2", "ny18", "Table 2 -- NY18-like trace evaluation")


if __name__ == "__main__":
    raise SystemExit(run_module(__spec__.name))
