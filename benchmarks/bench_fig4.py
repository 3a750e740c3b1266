"""Figure 4 benchmark: PCC violations vs CT size for different horizons
(fixed update rate 10/min).

Checks the published conclusions: (a) any sufficiently large horizon
matches or beats full CT, and smaller horizons need *less* CT to reach
zero violations (Fig. 4b); (b) fine-tuning is unnecessary -- every
adequately sized horizon ends violation-free at large tables.
"""

from benchmarks.conftest import published


def test_fig4_pcc_violations_vs_horizon():
    result = published("fig4")

    adequate = [h for h in result.horizons if h >= max(result.horizons) // 2]
    for horizon in adequate:
        series = result.jet[horizon]
        # Adequate horizons: zero violations when the table is large.
        assert series[-1] == 0
        # ... and never worse than full CT at the same table size.
        assert all(j <= max(f, 1) for j, f in zip(series, result.full_ct))
