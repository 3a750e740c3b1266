"""Figure 6: flow-size histograms (log-log).

(a) the two datacenter traces -- UNI1-like is more skewed than NY18-like:
fewer flows and larger heavy hitters; (b) synthetic Zipf traces for skews
0.6-1.4 -- higher skew concentrates packets on fewer, larger flows.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.stats import loglog_histogram
from repro.experiments.report import SCALED, Experiment, banner, format_table, run_module
from repro.experiments.scales import scale_name, trace_scale, zipf_params
from repro.traces.synthetic_dc import ny18_like, uni1_like
from repro.traces.zipf import PAPER_SKEWS, zipf_trace

Series = List[Tuple[float, int]]


def run_fig6a(scale: str = None, seed: int = 0) -> Dict[str, Series]:
    """Histogram series for the UNI1-like and NY18-like traces."""
    s = trace_scale(scale_name(scale))
    return {
        "UNI1": loglog_histogram(uni1_like(scale=s, seed=seed).size_histogram()),
        "NY18": loglog_histogram(ny18_like(scale=s, seed=seed).size_histogram()),
    }


def run_fig6b(
    scale: str = None, skews: Sequence[float] = PAPER_SKEWS, seed: int = 0
) -> Dict[float, Series]:
    """Histogram series for the Zipf traces across skews."""
    params = zipf_params(scale_name(scale))
    return {
        skew: loglog_histogram(
            zipf_trace(skew, seed=seed, **params).size_histogram()
        )
        for skew in skews
    }


def _tables(result) -> str:
    scale, a, b = result
    lines = []
    for name, series in a.items():
        lines.append(f"\n{name} (log-binned flow size -> #flows):")
        lines.append(format_table(["size bin", "flows"], [[f"{c:.1f}", n] for c, n in series]))
    lines.append(banner(f"Figure 6b -- Zipf flow sizes by skew [scale={scale}]"))
    for skew, series in b.items():
        tail = series[-1][0] if series else 0
        total = sum(count for _, count in series)
        lines.append(f"skew={skew}: {total:,} distinct flows, largest bin ~{tail:,.0f} pkts")
    return "\n".join(lines)


FIG6 = Experiment(
    name="fig6", stem="fig6", takes=SCALED,
    title="Figure 6a -- real-trace stand-in flow sizes [scale={scale}]",
    # Both panels; the scale rides along for panel (b)'s banner.
    run=lambda scale: (scale, run_fig6a(scale), run_fig6b(scale)),
    tables=_tables,
    payload=lambda result: {"fig6a": result[1], "fig6b": result[2]},
)


if __name__ == "__main__":
    raise SystemExit(run_module(__spec__.name))
