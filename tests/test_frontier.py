"""The stateful <-> stateless frontier (``repro experiment frontier``).

The smoke entry runs both of its checks; ``counted`` records exactly the
entry's payload; and each check raises when a replay is made to break
the flows it forbids (the replay is wrapped, the experiment has no knob).
"""

import json
from dataclasses import replace

import pytest

from repro.core import JETLoadBalancer
from repro.ct import UnboundedCT
from repro.experiments import counted, frontier, scenario_matrix, sharding
from repro.experiments.report import load

SCALE = "smoke"


@pytest.fixture(scope="module")
def payload():
    entry = load("frontier")
    return entry.payload(entry.run(SCALE, counted.SEED))


def _rigged(monkeypatch, violations):
    """Wrap the experiment's replay so it reports ``violations(balancer, n)``
    broken flows where it counted ``n``."""
    real = frontier.replay_batch

    def replay_batch(trace, balancer, events):
        result = real(trace, balancer, events)
        return replace(result, pcc_violations=violations(balancer, result.pcc_violations))

    monkeypatch.setattr(frontier, "replay_batch", replay_batch)


class TestSmokeEntry:
    def test_thirteen_points_in_order(self, payload):
        rows = payload["rows"]
        assert len(rows) == 13
        assert [row["point"] for row in rows] == (
            ["stateless", "concury"] + ["jet"] * 5 + ["full-lru"] * 5 + ["full"]
        )
        assert [row["horizon"] for row in rows if row["point"] == "jet"] == list(
            frontier.JET_HORIZONS
        )
        assert payload["events"] == len(frontier.SCHEDULE) == 6

    def test_state_follows_the_points(self, payload):
        rows = payload["rows"]
        stateless, concury = rows[0], rows[1]
        assert stateless["peak_entries"] == stateless["state_bytes"] == 0
        assert concury["peak_entries"] == 0 < concury["state_bytes"]
        assert concury["rebuilds"] >= 1 and concury["patches"] >= 1
        jets = [row["peak_entries"] for row in rows if row["point"] == "jet"]
        assert jets == sorted(jets) and jets[-1] < rows[-1]["peak_entries"]
        for row in rows:
            if row["point"] == "full-lru":
                assert row["peak_entries"] <= row["ct_capacity"]

    def test_counted_records_the_entry_payload(self, payload, monkeypatch):
        monkeypatch.setattr(scenario_matrix, "run_matrix", lambda *args, **kwargs: {})
        monkeypatch.setattr(scenario_matrix, "bench_section", lambda matrix: {})
        monkeypatch.setattr(sharding, "run_ct_cost", lambda *args: {})
        fresh, _ = counted.run_counted(SCALE)
        assert fresh["frontier"] == json.loads(json.dumps(payload))


class TestChecks:
    def test_one_extra_broken_flow_under_jet_raises(self, monkeypatch):
        _rigged(monkeypatch, lambda balancer, n: n + isinstance(balancer, JETLoadBalancer))
        with pytest.raises(AssertionError, match="unbounded full CT"):
            frontier.run_frontier(SCALE, counted.SEED)

    def test_bounded_full_ct_breaking_less_than_jet_raises(self, monkeypatch):
        # Every unbounded table breaks one more flow (JET still equals full
        # CT); every bounded one breaks none.
        def violations(balancer, n):
            ct = getattr(balancer, "ct", None)
            if ct is None:
                return n
            return n + 1 if isinstance(ct, UnboundedCT) else 0

        _rigged(monkeypatch, violations)
        with pytest.raises(AssertionError, match="fewer than JET"):
            frontier.run_frontier(SCALE, counted.SEED)
