"""Figure 7 benchmark: JET vs full CT across Zipf skews -- oversubscription,
tracked connections, and rate for table-based HRW, AnchorHash, and Maglev.

Shape assertions follow Section 5.3: identical balance for JET/full CT,
~10% tracking for JET at every skew, tracked counts falling as skew rises.
Rate orderings are *not* asserted (Python measures interpreter costs, not
the paper's cache effects -- see EXPERIMENTS.md).
"""

import pytest

from benchmarks.conftest import published


def test_fig7_zipf_sweep():
    results = published("fig7")

    by = {
        (skew, n, c.family, c.mode): c
        for (skew, n), cells in results.items()
        for c in cells
    }
    skews = sorted({skew for skew, _ in results})
    sizes = sorted({n for _, n in results})
    for skew in skews:
        for n in sizes:
            for family in ("table", "anchor"):
                full = by[(skew, n, family, "full")]
                jet = by[(skew, n, family, "jet")]
                # Balance identical (Prop 4.1), tracking ~10% of full CT.
                assert jet.oversubscription.mean == pytest.approx(
                    full.oversubscription.mean, rel=1e-9
                )
                ratio = jet.tracked.mean / full.tracked.mean
                assert 0.04 < ratio < 0.2
    # Tracked connections drop with skew (fewer distinct flows).
    for n in sizes:
        tracked = [by[(skew, n, "anchor", "jet")].tracked.mean for skew in skews]
        assert tracked[-1] < tracked[0]
