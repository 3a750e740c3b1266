"""Table 1 benchmark: the UNI1-like trace evaluation.

Regenerates the paper's table rows (max oversubscription / tracked
connections / rate for table-HRW, AnchorHash, Maglev x full CT / JET at
n in {50, 500}) and asserts the published relations:

- JET tracks ~10% of full CT, insensitive to hash family and to n;
- JET and full CT balance identically per family;
- AnchorHash/Maglev balance better than table-based HRW;
- balance is better at n=50 than at n=500.
"""

import pytest

from benchmarks.conftest import published


def check_paper_relations(results, trace):
    for n, cells in results.items():
        by = {(c.family, c.mode): c for c in cells}
        for family in ("table", "anchor"):
            full, jet = by[(family, "full")], by[(family, "jet")]
            assert full.tracked.mean == trace.n_flows
            assert 0.05 < jet.tracked.mean / full.tracked.mean < 0.2
            assert jet.oversubscription.mean == pytest.approx(
                full.oversubscription.mean, rel=1e-9
            )
        # Random-quality hashes balance no worse than the row-granular
        # table.  Only meaningful when there are enough flows per server
        # for the table's granularity (not sampling noise) to dominate.
        if trace.n_flows / n >= 100:
            assert (
                by[("anchor", "full")].oversubscription.mean
                <= by[("table", "full")].oversubscription.mean * 1.1
            )
            assert (
                by[("maglev", "full")].oversubscription.mean
                <= by[("table", "full")].oversubscription.mean * 1.1
            )
    if len(results) > 1:
        small, large = min(results), max(results)
        assert (
            results[small][2].oversubscription.mean
            < results[large][2].oversubscription.mean
        )


def test_table1_uni1_like():
    results, trace = published("table1")
    check_paper_relations(results, trace)
