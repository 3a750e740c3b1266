"""The control-loop experiment's gossip run judges its own convergence.

The sync-staleness bound is checked where the payload is made: after its
last drain the pool must have converged, or the experiment raises (and
``repro experiment control-loop`` exits non-zero).
"""

import pytest

import repro.control
from repro.control import GossipSync
from repro.experiments.control_loop import run_gossip_convergence


class _NeverDrains(GossipSync):
    def drain(self, max_rounds: int = 100_000) -> int:
        return 0


class TestGossipConvergence:
    def test_converges_and_accounts_the_crash(self):
        gossip = run_gossip_convergence("smoke", seed=1)
        assert gossip["converged"] and gossip["final_staleness"] == 0
        assert gossip["staleness_during_partition"] > 0
        assert gossip["crash_lost_accounted"] > 0

    def test_non_converging_channel_raises(self, monkeypatch):
        monkeypatch.setattr(repro.control, "GossipSync", _NeverDrains)
        with pytest.raises(AssertionError, match="gossip did not converge: staleness"):
            run_gossip_convergence("smoke", seed=1)
