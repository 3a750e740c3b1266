"""Merge per-shard registry dumps into one observability snapshot.

Each shard worker runs with its own private
:class:`~repro.obs.registry.Registry` (registries hold collector
closures over live balancers and cannot cross a process boundary); what
crosses is ``Registry.dump_series()`` -- plain dicts.  This module folds
those dumps into a single consistent snapshot at the result edge, so the
invariant monitors evaluate over *merged* counters exactly as they would
over a single-process run:

- **counters** sum: shards partition the flow keyspace, so their CT
  lookups/hits/inserts, flow tallies, violation counts and expected
  tracked flows are disjoint contributions to the same totals; the
  horizon announcements by outcome sum too (each shard's horizon
  manager judges its own), which pools precision and recall;
- **gauges** follow a per-metric rule: extensive state (CT occupancy,
  its peak, capacity) sums across shards, while intensive values (the
  instantaneous |H|/(|W|+|H|), a run's wall seconds, the worst balance
  CV) take the max.

No run-level ratio is stored: under closed-loop control each shard's
horizon moves on its own, and no rule over per-shard ratios gives the
fleet's.  Every ratio a check reads is computed from merged counters
when read: the tracked fractions as ``sum(tracked) / sum(flows)`` and
``sum(expected) / sum(flows)``, horizon precision and recall from the
summed matched / wasted / missed announcements, the mean gossip lag as
summed rounds over summed deliveries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs import collectors as metrics

#: Gauges whose value is extensive (per-shard state that adds up).
GAUGE_SUM = frozenset(
    {
        metrics.CT_OCCUPANCY,
        metrics.CT_OCCUPANCY_PEAK,
        metrics.CT_CAPACITY,
        metrics.GOSSIP_STALENESS,
        # Each shard dispatches a disjoint 1/N of the flows, so the
        # per-backend occupancy gauges add up to the fleet view.
        metrics.BACKEND_ACTIVE_FLOWS,
    }
)

_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(entry: Dict[str, object]) -> _Key:
    labels = entry.get("labels") or {}
    return str(entry["name"]), tuple(sorted((k, str(v)) for k, v in labels.items()))


def merge_series(dumps: Iterable[Sequence[Dict[str, object]]]) -> List[Dict[str, object]]:
    """Combine several ``dump_series`` payloads kind-aware into one."""
    merged: Dict[_Key, Dict[str, object]] = {}
    for dump in dumps:
        for entry in dump:
            name = str(entry["name"])
            key = _key(entry)
            existing = merged.get(key)
            if existing is None:
                merged[key] = dict(entry)
                continue
            kind = entry["kind"]
            if existing["kind"] != kind:
                raise ValueError(
                    f"metric {name!r} merged as both {existing['kind']} and {kind}"
                )
            if kind == "counter" or name in GAUGE_SUM:
                existing["value"] += entry["value"]
            else:
                existing["value"] = max(existing["value"], entry["value"])
    return list(merged.values())


def load_series(registry, entries: Sequence[Dict[str, object]]) -> None:
    """Fold merged entries into a live registry (additively).

    Counters increment by the merged totals and gauges are set, so
    loading into a fresh registry reproduces the merged snapshot exactly,
    and loading into a registry that already carries series composes.
    """
    for entry in entries:
        name = str(entry["name"])
        help_text = str(entry.get("help", ""))
        labels = dict(entry.get("labels") or {})
        if entry["kind"] == "counter":
            registry.counter(name, help_text, **labels).inc(entry["value"])
        else:
            registry.gauge(name, help_text, **labels).set(entry["value"])


def merge_into(registry, dumps: Iterable[Sequence[Dict[str, object]]]) -> None:
    """One-call convenience: merge shard dumps and load them into a registry."""
    load_series(registry, merge_series(dumps))
