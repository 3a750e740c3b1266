"""Figure 6 benchmark: flow-size histograms of the trace generators.

(a) UNI1-like vs NY18-like: UNI1 has fewer flows but larger heavy
hitters; (b) Zipf skews 0.6-1.4: higher skew packs the packets
into fewer flows.
"""

import pytest

from benchmarks.conftest import published


@pytest.fixture(scope="module")
def panels():
    _scale, fig6a, fig6b = published("fig6")
    return fig6a, fig6b


def test_fig6a_datacenter_histograms(panels):
    uni1, ny18 = panels[0]["UNI1"], panels[0]["NY18"]
    # UNI1 is the more skewed trace: fewer flows, larger heavy hitters.
    assert sum(c for _, c in uni1) < sum(c for _, c in ny18)
    assert max(center for center, _ in uni1) > max(center for center, _ in ny18)


def test_fig6b_zipf_histograms(panels):
    flows_by_skew = {skew: sum(c for _, c in series) for skew, series in panels[1].items()}
    skews = sorted(flows_by_skew)
    # Monotone: more skew => fewer distinct flows.
    for a, b in zip(skews, skews[1:]):
        assert flows_by_skew[b] <= flows_by_skew[a]
