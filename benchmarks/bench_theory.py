"""Section 4 benchmark: the theoretical guarantees, measured.

Theorem 4.2 (tracking probability), Theorem 4.3 (tail bound),
Theorem 4.4 / Property 1 (order invariance), Proposition 4.1 (identical
dispatching), and the Section 2.4 mod-N motivation.
"""

import pytest

from benchmarks.conftest import published
from benchmarks.reporting import record


@pytest.fixture(scope="module")
def section4():
    """(Thm 4.2 rows, Thm 4.3 result, Thm 4.4 outcome, Prop 4.1, Sec 2.4)."""
    return published("theory")


def test_theorem42_tracking_probability(section4):
    for _, _, measured, predicted in section4[0]:
        assert measured == pytest.approx(predicted, rel=0.3)


def test_theorem43_tail_bound(section4):
    result = section4[1]
    # The empirical tail must decay and stay within noise of the bound.
    tail = [e for _, e, _ in result.exceed_by_t]
    assert tail == sorted(tail, reverse=True)
    assert tail[-1] <= 0.02


def test_theorem44_order_invariance(section4):
    assert all(a and b for a, b in section4[2].values())


def test_proposition41_identical_dispatching(section4):
    _compared, disagreements = section4[3]
    assert disagreements == 0


def test_section24_modn_strawman(section4):
    measured, predicted = section4[4]
    assert measured == pytest.approx(predicted, abs=0.05)


def _model_vs_simulation():
    """Little's-law + Theorem 4.2 occupancy model vs a measured run."""
    from repro.analysis.model import CTOccupancyModel
    from repro.sim import Exponential, SimulationConfig, run_simulation

    duration_dist = Exponential(8.0)
    cfg = SimulationConfig(
        duration_s=80.0,
        connection_rate=1_000.0,
        n_servers=90,
        horizon_size=10,
        update_rate_per_min=0.0,
        duration_dist=duration_dist,
        ct_policy="ttl",
        ct_ttl=12.0,
        mode="jet",
        seed=13,
    )
    result = run_simulation(cfg)
    model = CTOccupancyModel(
        arrival_rate=cfg.connection_rate / duration_dist.mean(),
        mean_duration=duration_dist.mean(),
        n_working=cfg.n_servers,
        n_horizon=cfg.horizon_size,
        retention=cfg.ct_ttl,
    )
    steady = result.tracked_series[len(result.tracked_series) // 2 :]
    measured = sum(steady) / len(steady)
    return measured, model.expected_tracked, model.table_size_for(1e-3)


def test_analytical_occupancy_model():
    measured, predicted, sizing = _model_vs_simulation()
    record(
        "Analytical CT-occupancy model vs simulation",
        f"measured steady-state tracked={measured:.0f}  "
        f"model={predicted:.0f}  suggested table (p_overflow=1e-3)={sizing}",
    )
    assert measured == pytest.approx(predicted, rel=0.30)
