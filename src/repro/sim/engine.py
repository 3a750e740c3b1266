"""The event-driven simulator of Section 5.1.

Four event kinds drive the system, exactly as in the paper: (1) new
connection; (2) connection termination; (3) server removal; (4) server
addition (recovery).  We add per-packet events in between -- every packet
traverses the load balancer so that connection-tracking state (LRU
recency, safety re-checks on horizon changes) evolves faithfully -- plus
periodic metric sampling.

PCC accounting follows Section 2.1: a connection's *true destination* is
the destination of its first packet; a later packet dispatched elsewhere is
a PCC violation (counted once per connection, after which the client is
assumed to reset the connection); connections whose destination is removed
are *inevitably broken* and excluded from the violation count.

Adversarial churn is layered on top via :mod:`repro.faults`: a
:class:`~repro.faults.injector.ChaosInjector` schedules crash / flap /
correlated-group / unannounced-addition events as a seventh event kind,
and a :class:`~repro.faults.health.HealthMonitor` adds probation delay to
readmissions.  With no injector the event sequence and RNG stream are
byte-identical to the seed engine.
"""

from __future__ import annotations

import heapq
import random
from itertools import count
from typing import Dict, List, Optional, Set

from repro.core.interfaces import LoadBalancer, Name
from repro.hashing.mix import splitmix64
from repro.obs import metrics as obs_metrics
from repro.obs.collectors import instrument_balancer
from repro.obs.registry import coalesce
from repro.obs.timers import Stopwatch
from repro.sim.backend import HorizonManager
from repro.sim.distributions import Distribution
from repro.sim.metrics import LoadTracker, SimResult
from repro.sim.workload import Flow, WorkloadGenerator

# Event kinds (heap entries are (time, tiebreak, kind, payload)).
_ARRIVAL = 0
_PACKET = 1
_FLOW_END = 2
_REMOVAL = 3
_RECOVERY = 4
_SAMPLE = 5
_FAULT = 6
# Closed-loop kinds (repro.control runs only).
_CONTROL = 7      # periodic control-plane tick (probe + autoscale)
_RESPONSIVE = 8   # a silently-dead server starts answering probes again
_JOIN = 9         # an autoscaler launch finishes its lead time
_EXPIRE = 10      # a phantom horizon announcement times out


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
        # Observability: a NullRegistry by default.  Per-packet handlers
        # stay uninstrumented; obs work happens only at sample events and
        # finalization (plus one guarded delta-read per *first* packet),
        # so a disabled run pays nothing and a live run pays O(samples).
        self.obs = coalesce(registry)
        self._obs_on = self.obs.enabled
        if self._obs_on:
            instrument_balancer(self.obs, balancer)
        self._first_dispatches = 0
        self._first_tracked = 0
        # Resolve the per-packet LB capability probes once: these getattr
        # probes used to run on every packet of the hot loop.
        self._note_flow_start = getattr(balancer, "note_flow_start", None)
        self._note_flow_end = getattr(balancer, "note_flow_end", None)
        self._syn_aware = bool(getattr(balancer, "dispatches_new_connections", False))
        self.workload = workload
        self.duration_s = duration_s
        self.sample_interval = sample_interval
        # Balance metrics ignore the ramp-up transient (few flows over many
        # servers trivially yields huge oversubscription ratios).
        self.warmup_s = 0.2 * duration_s if warmup_s is None else warmup_s
        if controller is not None:
            # Closed loop: H is the control plane's pending changes, not
            # an exogenous standby FIFO.  Membership leaves W on probe
            # evidence; crashes become *silent* until detected.
            self.manager = controller.membership([balancer], horizon_cap)
        else:
            self.manager = HorizonManager([balancer], standby_servers)
        self.downtime_dist = downtime_dist
        self._removal_rate = update_rate_per_min / 60.0
        self._rng = random.Random(splitmix64(seed ^ 0xBEEF_CAFE))

        # Up-server list with O(1) random choice and removal.
        self._up: List[Name] = list(working_servers)
        self._up_index: Dict[Name, int] = {s: i for i, s in enumerate(self._up)}

        self._heap: list = []
        self._seq = count()
        self._load = LoadTracker()
        self._flows_by_server: Dict[Name, Set[Flow]] = {}
        self.result = SimResult()

        # Fault attribution: violations within the injector's window after
        # any chaos event count as violations-under-fault.
        self._now = 0.0
        self._last_fault_time = float("-inf")
        self._fault_window = injector.fault_window_s if injector is not None else 0.0
        self._probated: Set[Name] = set()

        # Closed-loop state: silently-dead servers (still in W until the
        # prober evicts them), a generation counter guarding stale
        # _RESPONSIVE events across re-silencing, and the LIFO stack of
        # autoscaled servers (scale-in retires the newest first).
        self._silenced: Set[Name] = set()
        self._silence_gen: Dict[Name, int] = {}
        self._auto_servers: List[Name] = []
        # Flow-weighted Theorem 4.2 expectation: with a dynamic H the
        # final-instant |H|/(|W|+|H|) misrepresents the run, so accumulate
        # it per first dispatch.  Only JET-style balancers publish it.
        from repro.core.jet import JETLoadBalancer

        self._track_expected = isinstance(balancer, JETLoadBalancer)
        self._expected_sum = 0.0
        self._expected_count = 0
        # Weighted CH families generalize Theorem 4.2's expectation to
        # weight(H)/(weight(W)+weight(H)); detect once so unweighted runs
        # keep the count-based O(1) path byte-identical.
        ch_weight_of = getattr(getattr(balancer, "ch", None), "weight_of", None)
        self._weight_of = ch_weight_of if callable(ch_weight_of) else None
        # Occupancy-consuming balancers (jet-p2c) get the per-backend
        # active-flow view refreshed at every sample event -- always, not
        # just when a registry is attached, so observability can never
        # change a dispatch decision (the obs-differential invariant).
        self._observe_occupancy = getattr(balancer, "observe_occupancy", None)

        # TTL-based CT tables carry a simulated clock we must advance.
        from repro.ct.ttl import Clock as _SimClock

        ct = getattr(balancer, "ct", None)
        clock = getattr(ct, "clock", None)
        self._sim_clock = clock if isinstance(clock, _SimClock) else None
        self._ct_stats = ct.stats if ct is not None else None

    # ----------------------------------------------------------- events
    def _push(self, when: float, kind: int, payload=None) -> None:
        heapq.heappush(self._heap, (when, next(self._seq), kind, payload))

    def _pick_up_server(self) -> Optional[Name]:
        if len(self._up) <= 1:
            return None  # never remove the last working server
        if not self._silenced:
            return self._up[self._rng.randrange(len(self._up))]
        # Closed loop: a silently-dead server is still in W; crashing it
        # again is meaningless, and at least one responsive server must
        # survive (the no-last-server rule, under evidence-based W).
        candidates = [s for s in self._up if s not in self._silenced]
        if len(candidates) <= 1:
            return None
        return candidates[self._rng.randrange(len(candidates))]

    def _mark_down(self, name: Name) -> None:
        position = self._up_index.pop(name)
        last = self._up.pop()
        if last != name:
            self._up[position] = last
            self._up_index[last] = position

    def _mark_up(self, name: Name) -> None:
        self._up_index[name] = len(self._up)
        self._up.append(name)

    # ------------------------------------------------- injector interface
    @property
    def up_index(self) -> Dict[Name, int]:
        """Live-server membership view (read-only use by the injector)."""
        return self._up_index

    def pick_up_server(self) -> Optional[Name]:
        return self._pick_up_server()

    def push_fault(self, when: float, event) -> None:
        self._push(when, _FAULT, event)

    def note_fault(self, now: float) -> None:
        self._last_fault_time = now

    def _doom_flows(self, name: Name) -> None:
        """The connections ``name`` is serving end here, inevitably broken
        (Section 2.1): no dispatcher could have kept them."""
        doomed = self._flows_by_server.pop(name, set())
        for flow in doomed:
            flow.broken = True
            flow.inevitable = True
            self._load.flow_ended(name)
        self.result.inevitably_broken += len(doomed)

    def crash_server(self, name: Name, now: float, downtime: Optional[float] = None) -> float:
        """Take ``name`` down immediately; returns the scheduled recovery
        time (downtime, or the given override, plus any probation delay)."""
        if self.controller is not None:
            # Evidence-based membership: the crash is *silent*.  The
            # server stops answering but stays in W until the prober's
            # consecutive-failure threshold evicts it.
            return self.silence_server(name, now, downtime)
        self._mark_down(name)
        self.result.removals += 1
        # Churn exposure: this event can break at most the flows active
        # right now (the invariant-monitor bound on PCC accounting).
        self.result.churn_exposed_flows += self._load.active_flows
        self._doom_flows(name)
        self.manager.remove_server(name)
        if downtime is None:
            downtime = self.downtime_dist.sample(self._rng)
        delay = 0.0
        health = self.injector.health if self.injector is not None else None
        if health is not None:
            delay = health.record_failure(name, now)
            if delay > 0:
                self._probated.add(name)
        recovery_at = now + downtime + delay
        self._push(recovery_at, _RECOVERY, name)
        return recovery_at

    def admit_unannounced(self, name: Name, now: float) -> None:
        """A never-announced server joins ``W`` (§2.3 contract violation).

        Records the paper's breakage prediction at this instant: under a
        consistent hash, each active connection re-steers onto the new
        server with probability ``1/(|W|+1)``, and none of the re-steered
        ones was tracked (the server was never in ``H``)."""
        self.result.predicted_unannounced_breakage += self._load.active_flows / (
            len(self._up) + 1
        )
        self.result.churn_exposed_flows += self._load.active_flows
        self.lb.force_add_working_server(name)
        self._mark_up(name)
        self.result.unannounced_additions += 1
        self.result.additions += 1

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

    def silence_server(self, name: Name, now: float, downtime: Optional[float] = None) -> float:
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
        responsive_at = now + downtime
        self._push(responsive_at, _RESPONSIVE, (name, generation))
        return responsive_at

    def _on_responsive(self, name: Name, generation: int) -> None:
        if self._silence_gen.get(name) != generation:
            return  # stale: the server was re-silenced meanwhile
        self._silenced.discard(name)
        if name in self._up_index and not self.controller.prober.is_evicted(name):
            # The outage ended before the prober accumulated enough
            # failures: membership never changed (graceful degradation
            # under lossy evidence, at the cost of the blackhole window).
            self.result.undetected_blips += 1

    def evict_server(self, name: Name, now: float) -> None:
        """Prober verdict: remove ``name`` from W (it enters H awaiting
        readmission).  Safe against races with recovery/retirement."""
        if name not in self._up_index:
            return
        self._mark_down(name)
        self.result.removals += 1
        self.result.churn_exposed_flows += self._load.active_flows
        # A false eviction (server actually up) re-steers its flows away;
        # they are inevitably broken exactly like a real removal's.
        self._doom_flows(name)
        self.manager.remove_server(name)

    def readmit_server(self, name: Name, now: float) -> None:
        """Prober verdict: recovery confirmed and probation served."""
        if name in self._up_index:
            return
        self._mark_up(name)
        self.result.additions += 1
        self.result.churn_exposed_flows += self._load.active_flows
        self.manager.recover_server(name)

    def schedule_join(self, name: Name, when: float) -> None:
        self._push(when, _JOIN, name)

    def schedule_phantom_expiry(self, name: Name, when: float) -> None:
        self._push(when, _EXPIRE, name)

    def _on_join(self, name: Name) -> None:
        """An autoscaler launch finishes warming up and joins W."""
        self._mark_up(name)
        self.result.additions += 1
        self.result.scale_outs += 1
        self.result.churn_exposed_flows += self._load.active_flows
        self.manager.realize(name)
        self._auto_servers.append(name)
        self.controller.prober.watch(name)

    def retire_autoscaled(self, count: int, now: float) -> int:
        """Scale-in: retire up to ``count`` autoscaled servers, newest
        first.  Returns how many actually left."""
        retired = 0
        while self._auto_servers and retired < count:
            name = self._auto_servers.pop()
            if name not in self._up_index or len(self._up) <= 1:
                continue
            if name in self._silenced:
                continue  # dead; the prober's eviction path owns it
            self._mark_down(name)
            self.result.removals += 1
            self.result.scale_ins += 1
            self.result.churn_exposed_flows += self._load.active_flows
            self._doom_flows(name)
            self.manager.retire(name)
            self.controller.prober.forget(name)
            retired += 1
        return retired

    # ------------------------------------------------------------- run
    def run(self) -> SimResult:
        watch = Stopwatch()
        self._push(self.workload.next_arrival_gap(), _ARRIVAL)
        if self._removal_rate > 0:
            self._push(self._rng.expovariate(self._removal_rate), _REMOVAL)
        self._push(self.sample_interval, _SAMPLE)
        if self.injector is not None:
            self.injector.prime(self)
        if self.controller is not None:
            self.controller.attach(self, list(self._up))
            self._push(self.controller.interval_s, _CONTROL)

        heap = self._heap
        sim_clock = self._sim_clock
        while heap:
            when, _, kind, payload = heapq.heappop(heap)
            if when > self.duration_s:
                break
            self._now = when
            if sim_clock is not None:
                sim_clock.now = when
            if kind == _PACKET:
                self._on_packet(payload)
            elif kind == _ARRIVAL:
                self._on_arrival(when)
            elif kind == _FLOW_END:
                self._on_flow_end(payload)
            elif kind == _REMOVAL:
                self._on_removal(when)
            elif kind == _RECOVERY:
                self._on_recovery(payload)
            elif kind == _FAULT:
                self.injector.apply(self, payload, when)
            elif kind == _CONTROL:
                self._on_control(when)
            elif kind == _RESPONSIVE:
                self._on_responsive(*payload)
            elif kind == _JOIN:
                self._on_join(payload)
            elif kind == _EXPIRE:
                self.manager.expire(payload)
            else:
                self._on_sample(when)

        self._finalize()
        self.result.wall_seconds = watch.stop()
        if self._obs_on:
            self.obs.histogram(
                obs_metrics.WALL_SECONDS, "Wall time by phase", phase="simulate"
            ).observe(self.result.wall_seconds)
        return self.result

    # --------------------------------------------------------- handlers
    def _on_arrival(self, now: float) -> None:
        flow = self.workload.make_flow(now)
        self.result.flows_started += 1
        self._push(now, _PACKET, flow)
        self._push(flow.end, _FLOW_END, flow)
        self._push(now + self.workload.next_arrival_gap(), _ARRIVAL)

    def _on_packet(self, flow: Flow) -> None:
        if flow.broken:
            return
        self.result.packets_processed += 1
        if flow.true_destination is None:
            self._dispatch_first_packet(flow)
        else:
            destination = self.lb.get_destination(flow.key)
            if destination != flow.true_destination:
                self._break_flow(flow)
                return
        self._advance_flow(flow)

    def _dispatch_first_packet(self, flow: Flow) -> None:
        # First packet (TCP SYN): load-aware LBs may run their
        # new-connection placement here (Section 6.3).
        # Per-connection tracked-fraction telemetry: a CT insert during
        # the first dispatch means this flow was classified unsafe.
        # Unconditional -- SimResult must not depend on whether a
        # registry is attached (the obs-differential invariant).
        stats = self._ct_stats
        inserts_before = stats.inserts if stats is not None else 0
        self._first_dispatches += 1
        if self._syn_aware:
            destination = self.lb.get_destination(flow.key, True)
        else:
            destination = self.lb.get_destination(flow.key)
        if stats is not None and stats.inserts > inserts_before:
            self._first_tracked += 1
        if self._track_expected:
            if self._weight_of is not None:
                horizon = self._weight_sum(self.manager.members)
                working = self._weight_sum(self._up)
            else:
                horizon = self.manager.horizon_occupancy
                working = len(self._up)
            if working:
                self._expected_sum += horizon / (working + horizon)
                self._expected_count += 1
        flow.true_destination = destination
        if destination in self._silenced:
            # Dispatched into the detection-lag blackhole: the server is
            # silently dead but still in W, so the flow dies on arrival.
            flow.broken = True
            flow.inevitable = True
            self.result.blackholed_flows += 1
            self.result.inevitably_broken += 1
            self.result.churn_exposed_flows += 1
            return
        self._load.flow_started(destination)
        if self._note_flow_start is not None:
            self._note_flow_start(destination)
        self._flows_by_server.setdefault(destination, set()).add(flow)

    def _safe_weight(self, name: Name) -> float:
        """Capacity weight of ``name``; 1.0 for servers the CH does not
        carry (chaos-born identities, autoscaled launches)."""
        try:
            return self._weight_of(name)
        except Exception:
            return 1.0

    def _weight_sum(self, names) -> float:
        weight_of = self._safe_weight
        return sum(weight_of(name) for name in names)

    def _break_flow(self, flow: Flow) -> None:
        # PCC violation: the connection is reset by the new backend.
        flow.broken = True
        self.result.pcc_violations += 1
        if self._now - self._last_fault_time <= self._fault_window:
            self.result.violations_under_fault += 1
        self._retire(flow)

    def _advance_flow(self, flow: Flow) -> None:
        flow.next_packet += 1
        if flow.next_packet < len(flow.packet_times):
            self._push(flow.packet_times[flow.next_packet], _PACKET, flow)

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

    def _on_removal(self, now: float) -> None:
        victim = self._pick_up_server()
        if victim is not None:
            self.crash_server(victim, now)
        self._push(now + self._rng.expovariate(self._removal_rate), _REMOVAL)

    def _on_recovery(self, server: Name) -> None:
        self._mark_up(server)
        self.result.additions += 1
        self.result.churn_exposed_flows += self._load.active_flows
        self.manager.recover_server(server)
        if server in self._probated:
            self._probated.discard(server)
            self.result.probation_readmissions += 1
        if self.injector is not None and self.injector.health is not None:
            self.injector.health.note_recovered(server, self._now)

    def _on_control(self, now: float) -> None:
        self.result.control_ticks += 1
        self.controller.tick(self, now)
        if now + self.controller.interval_s <= self.duration_s:
            self._push(now + self.controller.interval_s, _CONTROL)

    def _on_sample(self, now: float) -> None:
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
                self._up, self._safe_weight if self._weight_of is not None else None
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
        if self._obs_on:
            self._publish_telemetry()
            self.obs.export_snapshot(t=now)
        # Re-arm only while the next sample still lands inside the run:
        # an unconditional re-push leaks one past-the-end event per run
        # and, worse, kept the sample chain alive in the heap on long
        # simulations.  Samples processed are identical either way (the
        # loop drops events past duration_s).
        if now + self.sample_interval <= self.duration_s:
            self._push(now + self.sample_interval, _SAMPLE)

    def _publish_telemetry(self) -> None:
        """Flush the engine's own tallies into the registry (the CT/CH
        series come from collectors at snapshot time)."""
        obs = self.obs
        result = self.result
        obs.counter(obs_metrics.FLOWS, "Flows dispatched").set_total(
            self._first_dispatches
        )
        obs.counter(
            obs_metrics.TRACKED_FLOWS, "Flows tracked at first dispatch"
        ).set_total(self._first_tracked)
        if self._first_dispatches:
            obs.gauge(
                obs_metrics.OBSERVED_TRACKED_FRACTION, "Observed tracked fraction"
            ).set(self._first_tracked / self._first_dispatches)
        obs.counter(obs_metrics.PCC_VIOLATIONS, "PCC violations").set_total(
            result.pcc_violations
        )
        obs.counter(
            obs_metrics.INEVITABLY_BROKEN, "Inevitably broken flows"
        ).set_total(result.inevitably_broken)
        obs.counter(
            obs_metrics.CHURN_EXPOSED, "Flows exposed to backend churn (upper bound)"
        ).set_total(result.churn_exposed_flows)
        obs.counter(
            obs_metrics.BACKEND_EVENTS, "Backend change events", kind="removal"
        ).set_total(result.removals)
        obs.counter(
            obs_metrics.BACKEND_EVENTS, "Backend change events", kind="addition"
        ).set_total(result.additions)
        obs.counter(
            obs_metrics.BACKEND_EVENTS, "Backend change events", kind="unannounced"
        ).set_total(result.unannounced_additions)
        obs.counter(
            obs_metrics.DISPATCH_PACKETS, "Packets by dispatch path", path="scalar"
        ).set_total(result.packets_processed)
        if self._track_expected and self._expected_count:
            obs.gauge(
                obs_metrics.EXPECTED_TRACKED_FRACTION_MEAN,
                "Flow-weighted mean expected tracked fraction",
            ).set(self._expected_sum / self._expected_count)
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
            result.ct_hit_rate = ct.stats.hit_rate
            result.ct_peak_size = ct.stats.peak_size
            if ct.stats.peak_size > result.peak_tracked:
                result.peak_tracked = ct.stats.peak_size
        # LB-pool balancers expose their sync channel's degradation stats.
        channel = getattr(self.lb, "channel", None)
        if channel is not None:
            result.sync_failures = channel.stats.lost_attempts
            result.unreplicated_entries = channel.stats.unreplicated
            staleness = getattr(channel, "staleness", None)
            if callable(staleness):
                result.sync_staleness = staleness()
        if self._expected_count:
            result.mean_expected_tracked_fraction = (
                self._expected_sum / self._expected_count
            )
        if self._first_dispatches:
            result.observed_tracked_fraction = (
                self._first_tracked / self._first_dispatches
            )
        self._finalize_horizon_fidelity()
        if self.controller is not None:
            prober_stats = self.controller.prober.stats
            result.probes_sent = prober_stats.sent
            result.probe_evictions = prober_stats.evictions
            result.probe_false_evictions = prober_stats.false_evictions
            result.probe_readmissions = prober_stats.readmissions
        if self._obs_on:
            self._publish_telemetry()
            if result.horizon_precision is not None:
                self.obs.gauge(
                    obs_metrics.HORIZON_PRECISION,
                    "Horizon announcement precision vs realized additions",
                ).set(result.horizon_precision)
            if result.horizon_recall is not None:
                self.obs.gauge(
                    obs_metrics.HORIZON_RECALL,
                    "Horizon announcement recall vs realized additions",
                ).set(result.horizon_recall)

    def _finalize_horizon_fidelity(self) -> None:
        """Horizon precision/recall from whichever manager drove the run.

        Closed-loop runs carry a full scorecard; exogenous-H runs derive
        the same report from the FIFO's counters (proper vs surprise
        additions, announcements revoked while the server was down), so
        late-announced chaos exposure gets attribution either way."""
        result = self.result
        scorecard = getattr(self.manager, "scorecard", None)
        if scorecard is not None:
            result.horizon_precision = scorecard.precision
            result.horizon_recall = scorecard.recall
            result.phantom_announcements = self.manager.phantom_announcements
            return
        proper = self.manager.proper_additions
        surprise = self.manager.surprise_additions
        revoked = getattr(self.manager, "revoked_announcements", 0)
        realized = proper + surprise
        if realized:
            result.horizon_recall = proper / realized
        judged = proper + revoked
        if judged:
            result.horizon_precision = proper / judged
