"""Workload-generator and horizon-manager tests."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import make_full_ct, make_jet
from repro.sim.backend import HorizonManager
from repro.sim.distributions import Constant, Exponential
from repro.sim.workload import RateProfile, WorkloadGenerator

W = [f"w{i}" for i in range(12)]
STANDBY = ["s0", "s1", "s2"]


def generator(rate=50.0, seed=0, size=Constant(5), duration=Constant(2.0)):
    return WorkloadGenerator(rate, size, duration, seed=seed)


class TestWorkloadGenerator:
    def test_rate_validation(self):
        for rate in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                generator(rate=rate)

    def test_arrival_gaps_positive_with_correct_mean(self):
        gaps = np.diff(generator(rate=50.0).arrivals_before(400.0).start)
        assert len(gaps) > 19_000
        assert (gaps >= 0).all()
        assert gaps.mean() == pytest.approx(1 / 50.0, rel=0.05)

    def test_flow_packet_schedule(self):
        window = generator(size=Constant(10), duration=Constant(4.0)).arrivals_before(100.0)
        assert (window.size == 10).all() and (np.diff(window.offsets) == 10).all()
        for i, start in enumerate(window.start.tolist()):
            times = window.times[window.offsets[i] : window.offsets[i + 1]]
            assert times[0] == start
            assert ((start <= times) & (times <= start + 4.0)).all()
            assert (np.diff(times) >= 0).all()

    def test_single_packet_flow(self):
        window = generator(size=Constant(1)).arrivals_before(5.0)
        assert window.times.tolist() == window.start.tolist()

    def test_keys_unique_across_flows(self):
        keys = generator().arrivals_before(100.0).key
        assert len(keys) > 4000 and len(set(keys.tolist())) == len(keys)

    def test_seeded_reproducibility(self):
        a, b = generator(seed=9).arrivals_before(3.0), generator(seed=9).arrivals_before(3.0)
        assert len(a) > 50
        for field in ("start", "key", "size", "duration", "times"):
            assert getattr(a, field).tolist() == getattr(b, field).tolist()
        assert generator(seed=10).arrivals_before(3.0).key.tolist() != a.key.tolist()

    def test_flow_ids_sequential(self):
        g = generator()
        windows = [g.arrivals_before(until) for until in (0.5, 0.5, 1.0, 2.0)]
        sizes = [len(w) for w in windows]
        assert [w.first for w in windows] == np.cumsum([0] + sizes[:-1]).tolist()
        assert [flow.flow_id for w in windows for flow in w.flows()] == list(range(g.flows_created))
        assert g.flows_created == sum(map(len, windows)) > 50


@pytest.mark.parametrize(
    "build",
    [
        lambda: RateProfile(lambda t: 1.0, float("nan")),
        lambda: RateProfile.flash_crowd(start=float("nan"), ramp_s=1.0, magnitude=2.0),
        lambda: RateProfile.flash_crowd(start=1.0, ramp_s=1.0, magnitude=float("inf")),
        lambda: RateProfile.flash_crowd(start=1.0, ramp_s=1.0, magnitude=2.0, hold_s=float("nan")),
        lambda: RateProfile.diurnal(period_s=float("nan")),
        lambda: RateProfile.diurnal(period_s=float("inf")),
    ],
)
def test_a_rate_profile_refuses_non_finite_parameters(build):
    # A NaN factor would reject every thinning proposal: a hang, not a run.
    with pytest.raises(ValueError):
        build()


class TestHorizonManager:
    def make(self):
        lb = make_jet("hrw", W, STANDBY)
        return lb, HorizonManager([lb], STANDBY)

    def test_initial_members(self):
        _, manager = self.make()
        assert manager.members == frozenset(STANDBY)
        assert manager.horizon_size == 3

    def test_removal_enters_horizon_and_evicts_oldest(self):
        lb, manager = self.make()
        manager.remove_server(W[0])
        assert W[0] in manager.members
        assert "s0" not in manager.members  # oldest standby evicted
        assert lb.horizon == manager.members

    def test_proper_recovery(self):
        lb, manager = self.make()
        manager.remove_server(W[0])
        assert manager.recover_server(W[0]) is True
        assert W[0] in lb.working
        assert manager.proper_additions == 1
        # Horizon topped back up with the spare standby.
        assert len(manager.members) == 3
        assert "s0" in manager.members

    def test_surprise_recovery_after_eviction(self):
        lb, manager = self.make()
        for name in W[:4]:  # overflow the 3-slot horizon
            manager.remove_server(name)
        assert W[0] not in manager.members  # evicted while down
        assert manager.recover_server(W[0]) is False
        assert manager.surprise_additions == 1
        assert W[0] in lb.working

    def test_lockstep_across_two_balancers(self):
        jet = make_jet("hrw", W, STANDBY)
        full = make_jet("hrw", W, STANDBY)
        manager = HorizonManager([jet, full], STANDBY)
        manager.remove_server(W[1])
        manager.remove_server(W[2])
        manager.recover_server(W[1])
        assert jet.working == full.working
        assert jet.horizon == full.horizon

    def test_down_servers_tracked(self):
        _, manager = self.make()
        manager.remove_server(W[5])
        assert manager.down_servers == frozenset({W[5]})
        manager.recover_server(W[5])
        assert manager.down_servers == frozenset()


# --------------------------------------------------------------------------
# One rule machine over the one manager, in both of its configurations.

PICK = st.integers(min_value=0, max_value=10**6)


def pick(names, index):
    ordered = sorted(names, key=str)
    return ordered[index % len(ordered)]


class HorizonManagerMachine(RuleBasedStateMachine):
    """Arbitrary interleavings of the six membership operations against a
    JET balancer and a full-CT one (the Proposition 4.1 pairing): the
    manager, both consistent hashes and a plain set model must agree
    after every step."""

    standby = ()
    cap = None

    def __init__(self):
        super().__init__()
        self.balancers = [make_jet("hrw", W, self.standby), make_full_ct("hrw", W, self.standby)]
        self.manager = HorizonManager(self.balancers, self.standby, cap=self.cap)
        self.up = set(W)
        self.down = set()
        self.pending = set()  # announced, neither realized nor expired
        self.realized = 0
        self.fresh = 0

    def fresh_name(self):
        self.fresh += 1
        return f"auto{self.fresh}"

    # ------------------------------------------------------------ rules
    @precondition(lambda self: len(self.up) > 1)
    @rule(index=PICK)
    def remove(self, index):
        name = pick(self.up, index)
        self.manager.remove_server(name)
        self.up.remove(name)
        self.down.add(name)

    @precondition(lambda self: self.down)
    @rule(index=PICK)
    def recover(self, index):
        name = pick(self.down, index)
        announced = name in self.manager.members
        assert self.manager.recover_server(name) is announced
        self.down.remove(name)
        self.up.add(name)
        self.realized += 1

    @rule()
    def announce(self):
        name = self.fresh_name()
        self.manager.announce(name)
        self.pending.add(name)
        assert name in self.manager.members

    @precondition(lambda self: self.pending)
    @rule(index=PICK)
    def expire(self, index):
        name = pick(self.pending, index)
        phantoms = self.manager.phantom_announcements
        self.manager.expire(name)  # possibly revoked already: still a phantom
        self.pending.remove(name)
        assert self.manager.phantom_announcements == phantoms + 1

    @rule(index=PICK, announced=st.booleans())
    def realize(self, index, announced):
        # A pending launch (or, exogenous runs, a pre-announced standby)
        # joins W -- or a stranger nobody announced does.
        candidates = self.pending | (self.manager.members - self.down)
        name = pick(candidates, index) if announced and candidates else self.fresh_name()
        proper = name in self.manager.members
        assert self.manager.realize(name) is proper
        self.pending.discard(name)
        self.up.add(name)
        self.realized += 1

    @precondition(lambda self: len(self.up) > 1)
    @rule(index=PICK)
    def retire(self, index):
        name = pick(self.up, index)
        self.manager.retire(name)
        self.up.remove(name)

    # ------------------------------------------------------- invariants
    @invariant()
    def manager_and_balancers_agree(self):
        manager = self.manager
        assert len(manager.members) <= manager.horizon_size
        assert manager.down_servers == self.down
        for lb in self.balancers:
            assert lb.ch.horizon == manager.members
            assert lb.ch.working == self.up
        jet, full = self.balancers
        assert jet.horizon == manager.members  # what Algorithm 1 tracks against
        assert (jet.ch.working, jet.ch.horizon) == (full.ch.working, full.ch.horizon)

    @invariant()
    def every_arrival_is_scored_once(self):
        manager = self.manager
        assert manager.proper_additions + manager.surprise_additions == self.realized
        card = manager.scorecard
        assert (card.matched, card.missed) == (
            manager.proper_additions, manager.surprise_additions,
        )


class ExogenousHorizonMachine(HorizonManagerMachine):
    standby = tuple(STANDBY)

    @invariant()
    def wasted_is_what_overflow_revoked(self):
        assert self.manager.scorecard.phantom == self.manager.revoked_announcements


class ClosedLoopHorizonMachine(HorizonManagerMachine):
    cap = 3

    @invariant()
    def wasted_is_what_expired(self):
        assert self.manager.scorecard.phantom == self.manager.phantom_announcements


MACHINE_SETTINGS = settings(max_examples=40, stateful_step_count=40, deadline=None)
TestExogenousHorizonMachine = ExogenousHorizonMachine.TestCase
TestExogenousHorizonMachine.settings = MACHINE_SETTINGS
TestClosedLoopHorizonMachine = ClosedLoopHorizonMachine.TestCase
TestClosedLoopHorizonMachine.settings = MACHINE_SETTINGS
