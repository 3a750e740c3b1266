"""Collectors: scrape dataplane structural stats into a registry.

The hot paths of this repo (per-packet CT gets, CH lookups) already
maintain cheap plain-int counters -- :class:`~repro.ct.base.CTStats`,
:class:`~repro.control.gossip.SyncStats`.  Observability therefore never
adds calls inside those loops; instead a *collector* registered here
reads the structural counters at snapshot boundaries (sample events,
chunk ends, run finalization) and publishes them as registry series.
That is what makes an off run (``registry=None``) genuinely free and the
live path O(metrics) per snapshot instead of O(packets).

Derived series are documented where they are computed; the catalogue
with semantics lives in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Optional

# ------------------------------------------------------- metric catalogue
# Connection-tracking table (scraped from CTStats).
CT_LOOKUPS = "repro_ct_lookups_total"
CT_HITS = "repro_ct_hits_total"
CT_INSERTS = "repro_ct_inserts_total"
CT_EVICTIONS = "repro_ct_evictions_total"
CT_INVALIDATIONS = "repro_ct_invalidations_total"
CT_OCCUPANCY = "repro_ct_occupancy"
CT_OCCUPANCY_PEAK = "repro_ct_occupancy_peak"
CT_CAPACITY = "repro_ct_capacity"
# Consistent-hash lookups, labelled by family (derived: one CH lookup per
# CT miss for CT-backed balancers; driver-counted for stateless).
CH_LOOKUPS = "repro_ch_lookups_total"
# Flow-level accounting (driver-published).
FLOWS = "repro_flows_total"
TRACKED_FLOWS = "repro_tracked_flows_total"
EXPECTED_TRACKED_FRACTION = "repro_expected_tracked_fraction"
#: Theorem 4.2's expected number of tracked flows: the sum, over first
#: dispatches, of |H|/(|W|+|H|) at that moment (weight shares on weighted
#: fleets).  Over FLOWS it is the expectation the invariant check bounds,
#: and, being a counter, it sums across shards.
EXPECTED_TRACKED_FLOWS = "repro_expected_tracked_flows_total"
PCC_VIOLATIONS = "repro_pcc_violations_total"
#: Post-warmup maximum coefficient of variation of per-server active
#: connections (capacity-normalized on weighted fleets); published by the
#: engine, bounded by scenario envelopes (repro.scenarios).
BALANCE_CV_MAX = "repro_balance_cv_max"
#: Live per-backend active-connection gauge (label ``server=``); the
#: occupancy signal Charon-style load-aware dispatch consumes.  Published
#: only for occupancy-consuming balancers to keep label cardinality paid
#: for.
BACKEND_ACTIVE_FLOWS = "repro_backend_active_flows"
INEVITABLY_BROKEN = "repro_inevitably_broken_total"
CHURN_EXPOSED = "repro_churn_exposed_flows_total"
BACKEND_EVENTS = "repro_backend_events_total"
# Fault injection.
FAULT_EVENTS = "repro_fault_events_total"
# Dispatch-path selection and wall time (a gauge each run sets once).
DISPATCH_PACKETS = "repro_dispatch_packets_total"
WALL_SECONDS = "repro_wall_seconds"
# LB pool / CT sync (SyncStats).
POOL_MEMBERS = "repro_pool_members"
POOL_EVENTS = "repro_pool_events_total"
POOL_LOST_ENTRIES = "repro_pool_lost_entries_total"
SYNC_OFFERED = "repro_sync_offered_total"
SYNC_DELIVERED = "repro_sync_delivered_total"
SYNC_LOST_ATTEMPTS = "repro_sync_lost_attempts_total"
SYNC_UNREPLICATED = "repro_sync_unreplicated_total"
SYNC_LOST = "repro_sync_lost_total"
SYNC_ANTI_ENTROPY = "repro_sync_anti_entropy_total"
# Gossip CT replication (repro.control.gossip).
GOSSIP_ROUNDS = "repro_gossip_rounds_total"
GOSSIP_PUSHES = "repro_gossip_pushes_total"
GOSSIP_LOST_PUSHES = "repro_gossip_lost_pushes_total"
GOSSIP_STALENESS = "repro_gossip_staleness"
#: Dissemination lag in rounds (delta birth -> apply), summed over the
#: deliveries counted in GOSSIP_LAG_DELIVERIES; their quotient is the mean.
GOSSIP_LAG_ROUNDS = "repro_gossip_lag_rounds_total"
GOSSIP_LAG_DELIVERIES = "repro_gossip_lag_deliveries_total"
# Closed-loop control plane (repro.control).
PROBES = "repro_probes_total"
PROBE_EVICTIONS = "repro_probe_evictions_total"
PROBE_FALSE_EVICTIONS = "repro_probe_false_evictions_total"
PROBE_READMISSIONS = "repro_probe_readmissions_total"
SCALE_EVENTS = "repro_scale_events_total"
BLACKHOLED_FLOWS = "repro_blackholed_flows_total"
PHANTOM_ANNOUNCEMENTS = "repro_phantom_announcements_total"
HORIZON_OCCUPANCY = "repro_horizon_occupancy"
#: Horizon announcements by ``outcome``: ``matched`` (the server joined
#: W), ``wasted`` (it never did), ``missed`` (a join nobody announced).
#: Precision and recall are computed from these when read.
HORIZON_ANNOUNCEMENTS = "repro_horizon_announcements_total"
#: Its ``outcome`` labels, in ``HorizonScorecard``'s field order.
HORIZON_OUTCOMES = ("matched", "wasted", "missed")


def ch_family(ch) -> str:
    """A stable family label for a CH instance (``HRWHash`` -> ``hrw``)."""
    name = type(ch).__name__
    if name.endswith("Hash"):
        name = name[: -len("Hash")]
    return name.lower() or "unknown"


def instrument_balancer(registry, balancer) -> None:
    """Register collectors exposing a balancer stack's structural stats.

    Safe to call with any :class:`~repro.core.interfaces.LoadBalancer`:
    missing capabilities (no CT, no sync, no horizon) simply skip the
    corresponding series.  With ``registry=None`` it does nothing.
    """
    if registry is None:
        return
    members = getattr(balancer, "members", None)
    if members is not None:  # LB pool: per-pool series plus its sync bill
        _instrument_pool(registry, balancer)
        return
    _instrument_single(registry, balancer)


def _instrument_single(registry, balancer) -> None:
    ct = getattr(balancer, "ct", None)
    ch = getattr(balancer, "ch", None)
    family = ch_family(ch) if ch is not None else "none"

    def collect(reg) -> None:
        if ct is not None:
            stats = ct.stats
            reg.counter(CT_LOOKUPS, "CT lookups (gets)").set_total(stats.lookups)
            reg.counter(CT_HITS, "CT lookup hits").set_total(stats.hits)
            reg.counter(CT_INSERTS, "CT entries inserted").set_total(stats.inserts)
            reg.counter(CT_EVICTIONS, "CT entries evicted").set_total(stats.evictions)
            reg.counter(
                CT_INVALIDATIONS, "CT entries dropped by active cleanup"
            ).set_total(stats.invalidations)
            reg.gauge(CT_OCCUPANCY, "Tracked connections right now").set(len(ct))
            reg.gauge(
                CT_OCCUPANCY_PEAK, "High-water mark of tracked connections"
            ).set(stats.peak_size)
            capacity = getattr(ct, "capacity", None)
            if capacity is not None:
                reg.gauge(CT_CAPACITY, "CT table capacity bound").set(capacity)
            # Algorithm 1's CH lookups (line 4): one per CT miss.  JET's
            # columnar dispatch asks the CH for the CT hits as well and
            # discards those answers; the series counts the spec's calls.
            reg.counter(
                CH_LOOKUPS, "CH lookups by hash family", family=family
            ).set_total(stats.misses)
        share = expected_tracked_fraction(balancer)
        if share is not None:
            reg.gauge(
                EXPECTED_TRACKED_FRACTION,
                "Theorem 4.2 expected tracked fraction |H|/(|W|+|H|)",
            ).set(share)

    registry.add_collector(collect)


def _instrument_pool(registry, pool) -> None:
    stats, gossip = pool.sync_stats, pool.gossip

    def collect(reg) -> None:
        reg.gauge(POOL_MEMBERS, "Live LB instances in the pool").set(pool.size)
        # Membership *event* counters (POOL_EVENTS) are incremented by the
        # pool itself as events happen; this collector scrapes only state.
        reg.counter(POOL_LOST_ENTRIES, "CT entries lost with departed members").set_total(
            pool.lost_entries
        )
        reg.gauge(
            "repro_pool_partitioned", "Members currently partitioned"
        ).set(pool.partitioned)
        reg.gauge(CT_OCCUPANCY, "Tracked connections right now").set(
            pool.tracked_connections
        )
        if stats is None:
            return
        reg.counter(SYNC_OFFERED, "Sync replications offered").set_total(stats.offered)
        reg.counter(SYNC_DELIVERED, "Sync entries applied at peers").set_total(
            stats.delivered
        )
        reg.counter(SYNC_LOST_ATTEMPTS, "Sync delivery attempts lost").set_total(
            stats.lost_pushes
        )
        reg.counter(
            SYNC_UNREPLICATED, "Sync entries gone with their crashed origin"
        ).set_total(stats.unreplicated)
        reg.counter(
            SYNC_LOST, "Sync entries that will never reach a peer"
        ).set_total(stats.lost)
        reg.counter(
            SYNC_ANTI_ENTROPY, "Entries re-offered to repair stale rejoiners"
        ).set_total(stats.anti_entropy)
        if gossip is None:
            return
        reg.counter(GOSSIP_ROUNDS, "Gossip rounds run").set_total(stats.rounds)
        reg.counter(GOSSIP_PUSHES, "Gossip exchanges attempted").set_total(
            stats.pushes
        )
        reg.counter(
            GOSSIP_LOST_PUSHES, "Gossip exchanges the network dropped"
        ).set_total(stats.lost_pushes)
        reg.gauge(
            GOSSIP_STALENESS,
            "Undelivered (member, delta) pairs right now",
        ).set(gossip.staleness())
        reg.counter(
            GOSSIP_LAG_ROUNDS,
            "Dissemination lag in rounds (delta birth -> apply), summed",
        ).set_total(stats.lag_rounds_sum)
        reg.counter(
            GOSSIP_LAG_DELIVERIES, "Gossip deliveries whose lag is summed"
        ).set_total(stats.lag_rounds_count)

    registry.add_collector(collect)


def instrument_controller(registry, controller) -> None:
    """Register collectors for a :class:`~repro.control.loop.ControlLoop`
    (prober counters, scale events, horizon fidelity)."""
    if registry is None:
        return
    prober = controller.prober
    autoscaler = controller.autoscaler

    def collect(reg) -> None:
        stats = prober.stats
        reg.counter(PROBES, "Health probes sent").set_total(stats.sent)
        reg.counter(PROBE_EVICTIONS, "Probe-evidence evictions").set_total(
            stats.evictions
        )
        reg.counter(
            PROBE_FALSE_EVICTIONS, "Evictions of servers that were up"
        ).set_total(stats.false_evictions)
        reg.counter(PROBE_READMISSIONS, "Probe-confirmed readmissions").set_total(
            stats.readmissions
        )
        reg.counter(
            SCALE_EVENTS, "Autoscaler decisions by kind", kind="out"
        ).set_total(autoscaler.scale_outs)
        reg.counter(
            SCALE_EVENTS, "Autoscaler decisions by kind", kind="in"
        ).set_total(autoscaler.scale_ins)

    registry.add_collector(collect)


def expected_tracked_fraction(balancer) -> Optional[float]:
    """Theorem 4.2's |H|/(|W|+|H|) for the balancer's sets right now, or
    None unless it tracks only *unsafe* connections (JET) and both sets
    are non-empty."""
    from repro.core.jet import JETLoadBalancer

    if not isinstance(balancer, JETLoadBalancer):
        return None
    horizon, working = balancer.horizon, balancer.working
    if not (horizon and working):
        return None
    return len(horizon) / (len(working) + len(horizon))


def observed_tracked_fraction(registry) -> Optional[float]:
    """Tracked-on-first-dispatch flows over all flows, or None if unknown."""
    flows = registry.value(FLOWS)
    tracked = registry.value(TRACKED_FLOWS)
    if not flows:
        return None
    return (tracked or 0) / flows
