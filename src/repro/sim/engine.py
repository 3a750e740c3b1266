"""The event-driven simulator of Section 5.1.

Four event kinds drive the system, exactly as in the paper: (1) new
connection; (2) connection termination; (3) server removal; (4) server
addition (recovery).  Every packet in between traverses the load balancer
too, so that connection-tracking state (LRU recency, safety re-checks on
horizon changes) evolves faithfully, and metrics are sampled periodically.

Only what changes membership or reads state is an *event*: a heap entry
``(when, seq, handler, args)``, pushed through the one scheduling call
``sim.at(when, handler, *args)``; the loop sets ``sim.now`` and calls
``handler(*args)``, and ``seq`` (push order) runs simultaneous events as
scheduled.  Connections and their packets are a *stream* beside the heap.
Before each event the engine takes from the workload generator the flows
arriving before it (a window: the whole run is never drawn at once),
merges their packet and end times into the ones carried over, and
consumes the run of them due before the event.  A run is consumed one of
two ways, by the probe ``replay_batch`` asks, ``columnar_effective``:

- False (bounded / TTL tables, SYN-gated placement, LB pools): the
  handlers ``_on_packet`` / ``_on_flow_end`` in time order with ``sim.now``
  and the TTL clock set per packet -- the executable spec;
- True: ``get_destinations_batch_idx`` over the run, with destinations,
  breaks, completions and per-server load on arrays indexed by flow
  (:meth:`EventDrivenSimulation._consume_columnar` states why that is
  exact).

Simultaneous things run in a defined order: an event before any packet or
end at the same instant; otherwise by ``(time, flow, packet)`` with a
flow's end ahead of its own later packets -- so only a flow's first
packet, which is its arrival, can be dispatched at or after its end.

PCC accounting follows Section 2.1: a connection's *true destination* is
the destination of its first packet; a later packet dispatched elsewhere is
a PCC violation (counted once per connection, after which the client is
assumed to reset the connection); connections whose destination is removed
are *inevitably broken* and excluded from the violation count.

Adversarial churn and the closed control loop are plug-ins on that
surface, not event kinds: a :class:`~repro.faults.injector.ChaosInjector`
(crash / flap / correlated-group / unannounced-addition faults, with a
:class:`~repro.faults.health.HealthMonitor` adding probation delay to
readmissions) and a :class:`~repro.control.loop.ControlLoop` (probe
verdicts, autoscaler launches and retirements) schedule their own
continuations with ``sim.at`` and change membership through ``take_down``
/ ``bring_up``.  With neither, the event sequence and RNG stream are
byte-identical to the seed engine.
"""

from __future__ import annotations

import heapq
import math
import random
from itertools import count
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.interfaces import LoadBalancer, Name
from repro.core.jet import JETLoadBalancer
from repro.ct import Clock as _SimClock
from repro.hashing.mix import splitmix64
from repro.obs import metrics as obs_metrics
from repro.obs.collectors import instrument_balancer
from repro.obs.timers import Stopwatch
from repro.sim.backend import HorizonManager
from repro.sim.distributions import Distribution
from repro.sim.metrics import LoadTracker, SimResult
from repro.sim.workload import Flow, WorkloadGenerator

#: ``_served`` codes of the columnar consumer, beside dispatch ids (>= 0).
_NEW, _GONE = -1, -2


class EventDrivenSimulation:
    """One simulation run binding a workload, a backend, and one LB."""

    def __init__(
        self,
        balancer: LoadBalancer,
        workload: WorkloadGenerator,
        working_servers: List[Name],
        standby_servers: List[Name],
        duration_s: float,
        update_rate_per_min: float,
        downtime_dist: Distribution,
        seed: int = 0,
        sample_interval: float = 1.0,
        warmup_s: Optional[float] = None,
        injector=None,
        registry=None,
        controller=None,
        horizon_cap: int = 16,
    ):
        self.lb = balancer
        self.injector = injector
        self.controller = controller
        # Observability: off (None) by default.  Neither consumer of the
        # packet stream is instrumented; obs work happens only at sample
        # events and finalization, so an off run pays nothing and a live
        # run pays O(samples).
        self.obs = registry
        if registry is not None:
            instrument_balancer(registry, balancer)
        # Resolve the per-packet LB capability probes once.
        self._note_flow_start = getattr(balancer, "note_flow_start", None)
        self._note_flow_end = getattr(balancer, "note_flow_end", None)
        self._syn_aware = bool(getattr(balancer, "dispatches_new_connections", False))
        self.workload = workload
        self.duration_s = duration_s
        self.sample_interval = sample_interval
        # Balance metrics ignore the ramp-up transient (few flows over many
        # servers trivially yields huge oversubscription ratios).
        self.warmup_s = 0.2 * duration_s if warmup_s is None else warmup_s
        # Closed loop: H is the control plane's pending changes under a
        # cap, not an exogenous standby FIFO.  Membership leaves W on
        # probe evidence; crashes become *silent* until detected.
        self.manager = HorizonManager(
            [balancer], standby_servers, cap=None if controller is None else horizon_cap
        )
        self.downtime_dist = downtime_dist
        self._removal_rate = update_rate_per_min / 60.0
        self._rng = random.Random(splitmix64(seed ^ 0xBEEF_CAFE))

        # Up-server list with O(1) random choice and removal; the index
        # doubles as the plug-ins' live-membership view (read-only there).
        self._up: List[Name] = list(working_servers)
        self.up_index: Dict[Name, int] = {s: i for i, s in enumerate(self._up)}

        self._heap: list = []
        self._seq = count()
        self._load = LoadTracker()
        self.result = SimResult()

        # The packet stream: times, flow numbers (order of arrival) and
        # packet indices (-1: the flow's end) not yet due, sorted.
        self._pending = (np.empty(0), np.empty(0, np.int32), np.empty(0, np.int32))
        # How a due run is consumed, and where that keeps its flows: the
        # one probe between the two consumers, asked once per simulation.
        self._columnar = bool(getattr(balancer, "columnar_effective", False))
        if self._columnar:
            # Indexed by flow number: key, next packet index, and the
            # dispatch id serving the flow (or _NEW / _GONE).
            self._keys = np.empty(0, np.uint64)
            self._next = np.empty(0, np.int32)
            self._served = np.empty(0, np.int32)
        else:
            self._flows: Dict[int, Flow] = {}
            self._flows_by_server: Dict[Name, Set[Flow]] = {}

        # Fault attribution: violations within the injector's window after
        # any chaos event count as violations-under-fault.
        self.now = 0.0
        self._last_fault_time = float("-inf")
        self._fault_window = injector.fault_window_s if injector is not None else 0.0
        self._health = injector.health if injector is not None else None
        self._probated: Set[Name] = set()

        # Closed-loop state: silently-dead servers (still in W until the
        # prober evicts them) and a generation counter guarding stale
        # back-to-responsive events across re-silencing.
        self._silenced: Set[Name] = set()
        self._silence_gen: Dict[Name, int] = {}
        # Flow-weighted Theorem 4.2 expectation: with a dynamic H the
        # final-instant |H|/(|W|+|H|) misrepresents the run, so accumulate
        # it per first dispatch.  Only JET-style balancers publish it.
        self._track_expected = isinstance(balancer, JETLoadBalancer)
        # A CH built with capacities generalizes Theorem 4.2's expectation
        # to weight(H)/(weight(W)+weight(H)); unweighted runs keep the
        # count-based O(1) path.
        self._weights = getattr(getattr(balancer, "ch", None), "weights", None)
        # Occupancy-consuming balancers (jet-p2c) get the per-backend
        # active-flow view refreshed at every sample event -- always, not
        # just when a registry is attached, so observability can never
        # change a dispatch decision (the obs-differential invariant).
        self._observe_occupancy = getattr(balancer, "observe_occupancy", None)

        # TTL-based CT tables carry a simulated clock we must advance.
        ct = getattr(balancer, "ct", None)
        clock = getattr(ct, "clock", None)
        self._sim_clock = clock if isinstance(clock, _SimClock) else None
        self._ct_stats = ct.stats if ct is not None else None

    # ----------------------------------------------------------- events
    def at(self, when: float, handler, *args) -> None:
        """Schedule ``handler(*args)`` at simulated time ``when`` (it
        reads the time back from :attr:`now`).  The one way onto the heap,
        for the engine and its plug-ins alike."""
        heapq.heappush(self._heap, (when, next(self._seq), handler, args))

    def run(self) -> SimResult:
        watch = Stopwatch()
        if self._removal_rate > 0:
            self.at(self._rng.expovariate(self._removal_rate), self._on_removal)
        self.at(self.sample_interval, self._on_sample)
        if self.injector is not None:
            self.injector.prime(self)
        if self.controller is not None:
            self.controller.attach(self)

        heap = self._heap
        sim_clock = self._sim_clock
        while heap:
            when, _, handler, args = heapq.heappop(heap)
            if when > self.duration_s:
                break
            self._advance(when)
            self.now = when
            if sim_clock is not None:
                sim_clock.now = when
            handler(*args)
        # What is left lies past the end; its handlers are bound to this
        # object, a cycle that would keep the whole run alive until a gc.
        heap.clear()
        # The end of the run is inclusive, for events and packets alike.
        self._advance(math.nextafter(self.duration_s, math.inf))

        self._finalize()
        self.result.wall_seconds = watch.stop()
        if self.obs is not None:
            self.obs.gauge(
                obs_metrics.WALL_SECONDS, "Wall time by phase", phase="simulate"
            ).set(self.result.wall_seconds)
        return self.result

    # ------------------------------------------------------- membership
    def pick_up_server(self) -> Optional[Name]:
        """A random victim among the working servers, on the engine's RNG
        stream; None rather than the last one standing."""
        candidates = self._up
        if self._silenced:
            # Closed loop: a silently-dead server is still in W; crashing
            # it again is meaningless, and one *responsive* server must
            # survive (the no-last-server rule, under evidence-based W).
            candidates = [s for s in self._up if s not in self._silenced]
        if len(candidates) <= 1:
            return None  # never remove the last working server
        return candidates[self._rng.randrange(len(candidates))]

    def _doom_flows(self, name: Name) -> None:
        """The connections ``name`` is serving end here, inevitably broken
        (Section 2.1): no dispatcher could have kept them."""
        if self._columnar:
            names = self.lb.dispatch_names().tolist()
            doomed = 0
            if name in names:  # else no flow was ever dispatched to it
                serving = np.flatnonzero(self._served == names.index(name))
                self._served[serving] = _GONE
                doomed = len(serving)
        else:
            flows = self._flows_by_server.pop(name, ())
            for flow in flows:
                flow.broken = True
                flow.inevitable = True
            doomed = len(flows)
        self._load.flow_ended(name, doomed)
        self.result.inevitably_broken += doomed

    def take_down(self, name: Name, retire=False) -> None:
        """``name`` leaves W now.  It enters the horizon, expected back,
        unless it ``retire``s for good (scale-in)."""
        position = self.up_index.pop(name)
        last = self._up.pop()
        if last != name:
            self._up[position] = last
            self.up_index[last] = position
        self.result.removals += 1
        # Churn exposure: this event can break at most the flows active
        # right now (the invariant-monitor bound on PCC accounting).
        self.result.churn_exposed_flows += self._load.active_flows
        self._doom_flows(name)
        if retire:
            self.manager.retire(name)
        else:
            self.manager.remove_server(name)

    def bring_up(self, name: Name, launched=False, scored=True) -> None:
        """``name`` joins W now: a server coming back (the default), an
        autoscaler launch finishing its lead time (``launched``) -- both
        scored against the horizon -- or, ``scored=False``, a stranger
        forced in behind the manager's back."""
        self.up_index[name] = len(self._up)
        self._up.append(name)
        self.result.additions += 1
        self.result.churn_exposed_flows += self._load.active_flows
        if not scored:
            self.lb.force_add_working_server(name)
        elif launched:
            self.manager.realize(name)
        else:
            self.manager.recover_server(name)

    # ------------------------------------------------- injector interface
    def note_fault(self) -> None:
        self._last_fault_time = self.now

    def crash_server(self, name: Name, downtime: Optional[float] = None) -> float:
        """Take ``name`` down immediately; returns the scheduled recovery
        time (downtime, or the given override, plus any probation delay)."""
        if self.controller is not None:
            # Evidence-based membership: the crash is *silent*.  The
            # server stops answering but stays in W until the prober's
            # consecutive-failure threshold evicts it.
            return self._silence_server(name, downtime)
        self.take_down(name)
        if downtime is None:
            downtime = self.downtime_dist.sample(self._rng)
        delay = 0.0
        if self._health is not None:
            delay = self._health.record_failure(name, self.now)
            if delay > 0:
                self._probated.add(name)
        recovery_at = self.now + downtime + delay
        self.at(recovery_at, self._on_recovery, name)
        return recovery_at

    def admit_unannounced(self, name: Name) -> None:
        """A never-announced server joins ``W`` (§2.3 contract violation).

        Records the paper's breakage prediction at this instant: under a
        consistent hash, each active connection re-steers onto the new
        server with probability ``1/(|W|+1)``, and none of the re-steered
        ones was tracked (the server was never in ``H``)."""
        self.result.predicted_unannounced_breakage += self._load.active_flows / (
            len(self._up) + 1
        )
        self.result.unannounced_additions += 1
        self.bring_up(name, scored=False)

    # ---------------------------------------------- control-loop interface
    @property
    def active_flows(self) -> int:
        return self._load.active_flows

    @property
    def responsive_count(self) -> int:
        """Working servers that would answer a probe right now."""
        if not self._silenced:
            return len(self._up)
        return sum(1 for s in self._up if s not in self._silenced)

    def server_responsive(self, name: Name) -> bool:
        """The prober's ground-truth oracle: does a probe get answered?"""
        return name not in self._silenced

    def _silence_server(self, name: Name, downtime: Optional[float]) -> float:
        """A server dies *silently*: it stays in W (the control plane has
        no evidence yet) but stops answering probes and blackholes flows.
        Returns the time it becomes responsive again."""
        generation = self._silence_gen.get(name, 0) + 1
        self._silence_gen[name] = generation
        already_silent = name in self._silenced
        self._silenced.add(name)
        if not already_silent:
            # Its active connections break now, whatever the control
            # plane believes; count the exposure at the same instant.
            self.result.churn_exposed_flows += self._load.active_flows
            self._doom_flows(name)
        if downtime is None:
            downtime = self.downtime_dist.sample(self._rng)
        responsive_at = self.now + downtime
        self.at(responsive_at, self._on_responsive, name, generation)
        return responsive_at

    def _on_responsive(self, name: Name, generation: int) -> None:
        if self._silence_gen.get(name) != generation:
            return  # stale: the server was re-silenced meanwhile
        self._silenced.discard(name)
        if name in self.up_index and not self.controller.prober.is_evicted(name):
            # The outage ended before the prober accumulated enough
            # failures: membership never changed (graceful degradation
            # under lossy evidence, at the cost of the blackhole window).
            self.result.undetected_blips += 1

    # ----------------------------------------------------------- stream
    def _advance(self, until: float) -> None:
        """One window: take the flows arriving before ``until``, merge
        their packet and end times into the pending ones, and consume the
        run of them due before ``until``."""
        times, flows, index = self._pending
        fresh = self.workload.arrivals_before(until)
        n = len(fresh)
        if n:
            first = self.result.flows_started
            self.result.flows_started += n
            if self._columnar:
                self._admit_columnar(first, fresh.key)
            else:
                self._flows.update(enumerate(fresh.flows(), first))
            # Per flow: its packets, then its end.  Older flows come first
            # and the sort is stable, so sorting on time alone orders ties
            # by (flow, packet index).
            size = fresh.size + 1
            ends = fresh.offsets[1:] + np.arange(n)
            end = fresh.start + fresh.duration
            stamps = np.empty(ends[-1] + 1)
            packet = np.arange(len(stamps)) - np.repeat(ends - fresh.size, size)
            packet[ends] = -1
            stamps[packet >= 0] = fresh.times
            stamps[ends] = end
            # The first packet is the arrival; a later one at or after the
            # flow's end is never sent (the end goes first).
            keep = (packet <= 0) | (stamps < np.repeat(end, size))
            number = np.repeat(np.arange(first, first + n, dtype=np.int32), size)
            times = np.concatenate((times, stamps[keep]))
            flows = np.concatenate((flows, number[keep]))
            index = np.concatenate((index, packet[keep].astype(np.int32)))
            order = np.argsort(times, kind="stable")
            times, flows, index = times[order], flows[order], index[order]
        due = int(np.searchsorted(times, until))
        self._pending = times[due:], flows[due:], index[due:]
        if due:
            consume = self._consume_columnar if self._columnar else self._consume_scalar
            consume(times[:due], flows[:due], index[:due])

    # --------------------------------------- the scalar consumer (the spec)
    def _consume_scalar(self, times, flows, index) -> None:
        live, sim_clock = self._flows, self._sim_clock
        for when, number, packet in zip(times.tolist(), flows.tolist(), index.tolist()):
            self.now = when
            if sim_clock is not None:
                sim_clock.now = when
            if packet < 0:
                self._on_flow_end(live.pop(number))
            else:
                self._on_packet(live[number])

    def _on_packet(self, flow: Flow) -> None:
        if flow.broken:
            return
        self.result.packets_processed += 1
        if flow.true_destination is None:
            self._dispatch_first_packet(flow)
        elif self.lb.get_destination(flow.key) != flow.true_destination:
            self._break_flow(flow)

    def _dispatch_first_packet(self, flow: Flow) -> None:
        # First packet (TCP SYN): load-aware LBs may run their
        # new-connection placement here (Section 6.3).
        # Per-connection tracked-fraction telemetry: a CT insert during
        # the first dispatch means this flow was classified unsafe.
        # Unconditional -- SimResult must not depend on whether a
        # registry is attached (the obs-differential invariant).
        result, stats = self.result, self._ct_stats
        inserts_before = stats.inserts if stats is not None else 0
        result.first_dispatches += 1
        if self._syn_aware:
            destination = self.lb.get_destination(flow.key, True)
        else:
            destination = self.lb.get_destination(flow.key)
        if stats is not None and stats.inserts > inserts_before:
            result.first_tracked += 1
        self._note_expected(1)
        flow.true_destination = destination
        if destination in self._silenced:
            # Dispatched into the detection-lag blackhole: the server is
            # silently dead but still in W, so the flow dies on arrival.
            flow.broken = True
            flow.inevitable = True
            result.blackholed_flows += 1
            result.inevitably_broken += 1
            result.churn_exposed_flows += 1
            return
        self._load.flow_started(destination)
        if self._note_flow_start is not None:
            self._note_flow_start(destination)
        self._flows_by_server.setdefault(destination, set()).add(flow)

    def _note_expected(self, dispatches: int) -> None:
        """Theorem 4.2's expectation right now, once per first dispatch:
        added one at a time, so a batch rounds as the packets would."""
        if not self._track_expected:
            return
        if self._weights is not None:
            horizon = sum(map(self._weight, self.manager.members))
            working = sum(map(self._weight, self._up))
        else:
            horizon = self.manager.horizon_occupancy
            working = len(self._up)
        if working:
            share = horizon / (working + horizon)
            total = self.result.expected_tracked_sum
            for _ in range(dispatches):
                total += share
            self.result.expected_tracked_sum = total
            self.result.expected_dispatches += dispatches

    def _weight(self, name: Name) -> float:
        """Capacity weight of ``name`` in the CH's mapping (absent: 1.0)."""
        return self._weights.get(name, 1.0)

    def _break_flow(self, flow: Flow) -> None:
        # PCC violation: the connection is reset by the new backend.
        flow.broken = True
        self.result.pcc_violations += 1
        if self.now - self._last_fault_time <= self._fault_window:
            self.result.violations_under_fault += 1
        self._retire(flow)

    def _retire(self, flow: Flow) -> None:
        """Remove a finished/broken flow from load accounting."""
        if flow.true_destination is not None:
            self._load.flow_ended(flow.true_destination)
            if self._note_flow_end is not None:
                self._note_flow_end(flow.true_destination)
            bucket = self._flows_by_server.get(flow.true_destination)
            if bucket is not None:
                bucket.discard(flow)

    def _on_flow_end(self, flow: Flow) -> None:
        if flow.broken:
            return
        flow.broken = True  # terminated; ignore any same-time stragglers
        self.result.flows_completed += 1
        self._retire(flow)

    # ------------------------------------------------ the columnar consumer
    def _admit_columnar(self, first: int, keys: np.ndarray) -> None:
        room = first + len(keys) - len(self._keys)
        if room > 0:  # grow by doubling: the arrays are not re-made per window
            room = max(room, len(self._keys), 1024)
            self._keys = np.concatenate((self._keys, np.zeros(room, np.uint64)))
            self._next = np.concatenate((self._next, np.zeros(room, np.int32)))
            self._served = np.concatenate((self._served, np.full(room, _NEW, np.int32)))
        self._keys[first : first + len(keys)] = keys

    def _consume_columnar(self, times, flows, index) -> None:
        """What :meth:`_consume_scalar` does to a run, as three batches.

        No event falls inside a run, so membership is constant, and the
        table evicts nothing (``columnar_effective``), so each flow's
        destination is constant too: a flow breaks at its *first* packet
        of the run or not at all, and once it broke -- or was dispatched
        into a blackhole -- its later packets are not dispatched.  New
        flows' first packets, continuing flows' first packets of the run
        and the later packets of the flows still served are therefore
        three batches; keys are independent of each other, which makes the
        regrouping exact down to the CT's hit and insert counters.  Loads
        are only read at events, so they are settled per batch.
        """
        result, keys, served = self.result, self._keys, self._served
        dispatch = self.lb.get_destinations_batch_idx
        packets = np.flatnonzero((index >= 0) & (served[flows] != _GONE))
        flow, packet = flows[packets], index[packets]
        lead = packet == self._next[flow]  # a flow's first packet of this run
        np.maximum.at(self._next, flow, packet + 1)
        heads = np.flatnonzero(lead)
        opening = packet[heads] == 0
        born = flow[heads[opening]]
        if born.size:
            stats = self._ct_stats
            inserts_before = stats.inserts if stats is not None else 0
            ids = dispatch(keys[born])
            if stats is not None:
                result.first_tracked += stats.inserts - inserts_before
            result.first_dispatches += born.size
            self._note_expected(born.size)
            if self._silenced:
                names = self.lb.dispatch_names()
                hole = np.array([names[i] in self._silenced for i in ids.tolist()])
                served[born[hole]] = _GONE
                lost = int(hole.sum())
                result.blackholed_flows += lost
                result.inevitably_broken += lost
                result.churn_exposed_flows += lost
                born, ids = born[~hole], ids[~hole]
            served[born] = ids
            self._settle(ids, self._load.flow_started)
        cont = heads[~opening]
        moved = cont[dispatch(keys[flow[cont]]) != served[flow[cont]]] if cont.size else cont
        if moved.size:
            since_fault = times[packets[moved]] - self._last_fault_time
            result.pcc_violations += moved.size
            result.violations_under_fault += int((since_fault <= self._fault_window).sum())
            self._settle(served[flow[moved]], self._load.flow_ended)
            served[flow[moved]] = _GONE
        rest = flow[~lead]
        rest = rest[served[rest] >= 0]
        if rest.size:
            dispatch(keys[rest])
        result.packets_processed += heads.size + rest.size
        done = flows[index < 0]
        done = done[served[done] >= 0]
        result.flows_completed += done.size
        self._settle(served[done], self._load.flow_ended)
        served[done] = _GONE

    def _settle(self, ids: np.ndarray, change) -> None:
        """Apply a :class:`LoadTracker` change once per server of ``ids``."""
        counts = np.bincount(ids)
        names = self.lb.dispatch_names()
        for i in np.flatnonzero(counts).tolist():
            change(names[i], int(counts[i]))

    def _on_removal(self) -> None:
        victim = self.pick_up_server()
        if victim is not None:
            self.crash_server(victim)
        self.at(self.now + self._rng.expovariate(self._removal_rate), self._on_removal)

    def _on_recovery(self, server: Name) -> None:
        self.bring_up(server)
        if server in self._probated:
            self._probated.discard(server)
            self.result.probation_readmissions += 1
        if self._health is not None:
            self._health.note_recovered(server, self.now)

    def _on_sample(self) -> None:
        now = self.now
        if self._observe_occupancy is not None:
            # Refresh the balancer's live occupancy view (jet-p2c); runs
            # unconditionally so dispatch never depends on the registry.
            self._observe_occupancy(self._load.per_server())
        oversub = self._load.oversubscription(len(self._up))
        if oversub is not None and now >= self.warmup_s:
            self.result.oversubscription_series.append(oversub)
            if oversub > self.result.max_oversubscription:
                self.result.max_oversubscription = oversub
            cv = self._load.cv_over(
                self._up, self._weight if self._weights is not None else None
            )
            if cv is not None:
                self.result.balance_cv_series.append(cv)
                if cv > self.result.max_balance_cv:
                    self.result.max_balance_cv = cv
        tracked = self.lb.tracked_connections
        self.result.tracked_series.append(tracked)
        self.result.sample_times.append(now)
        if tracked > self.result.peak_tracked:
            self.result.peak_tracked = tracked
        if self.obs is not None:
            self._publish_telemetry()
            self.obs.export_snapshot(t=now)
        # Re-arm only while the next sample still lands inside the run
        # (the loop would drop a later one anyway).
        if now + self.sample_interval <= self.duration_s:
            self.at(now + self.sample_interval, self._on_sample)

    def _publish_telemetry(self) -> None:
        """Flush the engine's own tallies into the registry (the CT/CH
        series come from collectors at snapshot time)."""
        obs = self.obs
        result = self.result
        obs.counter(obs_metrics.FLOWS, "Flows dispatched").set_total(
            result.first_dispatches
        )
        obs.counter(
            obs_metrics.TRACKED_FLOWS, "Flows tracked at first dispatch"
        ).set_total(result.first_tracked)
        obs.counter(obs_metrics.PCC_VIOLATIONS, "PCC violations").set_total(
            result.pcc_violations
        )
        obs.counter(
            obs_metrics.INEVITABLY_BROKEN, "Inevitably broken flows"
        ).set_total(result.inevitably_broken)
        obs.counter(
            obs_metrics.CHURN_EXPOSED, "Flows exposed to backend churn (upper bound)"
        ).set_total(result.churn_exposed_flows)
        for kind, total in (
            ("removal", result.removals),
            ("addition", result.additions),
            ("unannounced", result.unannounced_additions),
        ):
            obs.counter(
                obs_metrics.BACKEND_EVENTS, "Backend change events", kind=kind
            ).set_total(total)
        path = "columnar" if self._columnar else "scalar"  # the consumer that ran
        obs.counter(
            obs_metrics.DISPATCH_PACKETS, "Packets by dispatch path", path=path
        ).set_total(result.packets_processed)
        if self._track_expected:
            obs.counter(
                obs_metrics.EXPECTED_TRACKED_FLOWS,
                "Sum of |H|/(|W|+|H|) over first dispatches",
            ).set_total(result.expected_tracked_sum)
        if result.balance_cv_series:
            obs.gauge(
                obs_metrics.BALANCE_CV_MAX,
                "Post-warmup max CV of per-server active connections",
            ).set(result.max_balance_cv)
        if self._observe_occupancy is not None:
            for name, load in self._load.per_server().items():
                obs.gauge(
                    obs_metrics.BACKEND_ACTIVE_FLOWS,
                    "Active connections per backend",
                    server=str(name),
                ).set(load)
        if self.controller is not None:
            obs.counter(
                obs_metrics.BLACKHOLED_FLOWS,
                "Flows dispatched at silently-dead servers",
            ).set_total(result.blackholed_flows)
            obs.counter(
                obs_metrics.PHANTOM_ANNOUNCEMENTS,
                "Horizon announcements that expired unrealized",
            ).set_total(result.phantom_announcements)
            obs.gauge(
                obs_metrics.HORIZON_OCCUPANCY, "Servers currently announced in H"
            ).set(self.manager.horizon_occupancy)

    def _finalize(self) -> None:
        result = self.result
        result.surprise_additions = self.manager.surprise_additions
        result.final_tracked = self.lb.tracked_connections
        ct = getattr(self.lb, "ct", None)
        if ct is not None:
            result.ct_evictions = ct.stats.evictions
            result.ct_lookups = ct.stats.lookups
            result.ct_hits = ct.stats.hits
            result.ct_peak_size = ct.stats.peak_size
            result.peak_tracked = max(result.peak_tracked, ct.stats.peak_size)
        # Horizon fidelity: the manager scores announcements against
        # arrivals under either configuration, so late-announced chaos
        # exposure gets attribution in exogenous runs too.
        scorecard = self.manager.scorecard
        result.horizon_matched = scorecard.matched
        result.horizon_wasted = scorecard.phantom
        result.phantom_announcements = self.manager.phantom_announcements
        if self.controller is not None:
            prober_stats = self.controller.prober.stats
            result.probes_sent = prober_stats.sent
            result.probe_evictions = prober_stats.evictions
            result.probe_false_evictions = prober_stats.false_evictions
            result.probe_readmissions = prober_stats.readmissions
        if self.obs is not None:
            self._publish_telemetry()
            counts = (result.horizon_matched, result.horizon_wasted, result.surprise_additions)
            if any(counts):
                for outcome, total in zip(obs_metrics.HORIZON_OUTCOMES, counts):
                    self.obs.counter(
                        obs_metrics.HORIZON_ANNOUNCEMENTS,
                        "Horizon announcements by outcome",
                        outcome=outcome,
                    ).set_total(total)
