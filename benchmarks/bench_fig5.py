"""Figure 5 benchmark: maximum oversubscription vs connection rate per
backend update rate.

Checks the published shape -- balance improves (oversubscription falls)
with the connection rate; JET and full CT balance identically
(Proposition 4.1, single line per update rate).
"""

from benchmarks.conftest import published


def test_fig5_oversubscription():
    result = published("fig5")

    assert result.jet_equals_full
    for series in result.oversubscription.values():
        assert all(v >= 1.0 for v in series)
        # Balance improves with the connection rate (paper's main trend).
        assert series[-1] < series[0]
