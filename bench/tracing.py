"""Layer tracing from outside the program: recording proxies and spans.

Nothing under ``src/`` knows it is being traced.  After a balancer is
built, :func:`instrument` swaps its public ``ct`` and ``ch`` attributes
for :class:`RecordingProxy` objects and returns a proxy of the balancer
itself; every *public callable* reached through a proxy is timed.  A
method name maps to a budget term (a *role*) by prefix, so a renamed
method still lands in its layer and anything unmatched lands in
``other`` instead of vanishing.

A :class:`Tracer` keeps a frame stack, so each call knows its parent and
a layer's **self time** is its span minus the part its children cover:
the terms of one traced call sum to the wall of its root span by
construction.  Chunk- and event-level calls are kept as spans (written
out as JSONL when the run ends); roles listed in ``aggregated`` -- the
per-packet calls of the event-driven simulation -- only add to
``(calls, self_ns)`` totals.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: layer -> ((method-name prefix, role), ...); first match wins.
ROLE_PREFIXES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "core": (
        ("get_destination", "dispatch"),
        ("add", "membership"),
        ("remove", "membership"),
        ("force_add", "membership"),
    ),
    "ct": (
        ("get", "probe"),
        ("put", "insert"),
        ("invalidate", "invalidate"),
    ),
    "ch": (
        ("lookup", "kernel"),
        ("add", "update"),
        ("remove", "update"),
        ("force_add", "update"),
    ),
}

#: Per-packet roles of the scalar API; the simulation aggregates these.
PER_PACKET_ROLES = frozenset({"dispatch", "probe", "insert", "kernel", "other"})

#: (id, parent id, role, name, start_ns, end_ns)
Span = Tuple[int, int, str, str, int, int]


def role_of(layer: str, method: str) -> str:
    for prefix, role in ROLE_PREFIXES.get(layer, ()):
        if method.startswith(prefix):
            return role
    return "other"


class Tracer:
    """Spans and self-time totals of one traced call tree."""

    def __init__(self, aggregated: Iterable[str] = ()):
        self.aggregated = frozenset(aggregated)
        self.spans: List[Optional[Span]] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Keys handed to a role's calls (array size, or 1 per scalar call).
        self.keys: Dict[str, int] = defaultdict(int)
        self._frames: List[List[int]] = []  # [child_ns, span id]

    def wrap(self, role: str, name: str, fn: Callable) -> Callable:
        """``fn`` timed under ``role``; transparent to caller and callee."""
        frames = self._frames
        spans = self.spans
        self_ns, calls, keys = self.self_ns, self.calls, self.keys
        clock = time.perf_counter_ns
        recorded = role not in self.aggregated

        def traced(*args, **kwargs):
            parent = frames[-1] if frames else None
            parent_id = parent[1] if parent is not None else -1
            if recorded:
                ident = len(spans)
                spans.append(None)
            else:
                ident = parent_id
            frame = [0, ident]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                self_ns[role] += duration - frame[0]
                calls[role] += 1
                if args:
                    keys[role] += getattr(args[0], "size", 1)
                if recorded:
                    spans[ident] = (ident, parent_id, role, name, start, end)

        return traced

    def call(self, role: str, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` as a benchmark-side span (the root, a direct layer call)."""
        return self.wrap(role, name, fn)(*args, **kwargs)

    def durations_ns(self, role: Optional[str] = None, name: Optional[str] = None) -> List[int]:
        """Inclusive durations of the recorded spans of a role or a name."""
        return [
            s[5] - s[4]
            for s in self.spans
            if s is not None and (role is None or s[2] == role) and (name is None or s[3] == name)
        ]

    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())


class RecordingProxy:
    """Delegates everything to ``target``; times its public callables.

    Wrapped callables are cached in the proxy's own ``__dict__`` so a hot
    loop pays ``__getattr__`` once per method.  ``__class__`` reports the
    target's class (and :func:`_proxy_for` names the proxy type after
    it), so ``isinstance`` and ``type(x).__name__`` checks inside the
    program answer as they would without tracing.
    """

    def __init__(self, target, layer: str, tracer: Tracer):
        vars(self).update(_target=target, _layer=layer, _tracer=tracer)

    def __getattr__(self, name: str):
        state = vars(self)
        value = getattr(state["_target"], name)
        if name.startswith("_") or not callable(value):
            return value
        layer = state["_layer"]
        wrapped = state["_tracer"].wrap(role_of(layer, name), f"{layer}.{name}", value)
        state[name] = wrapped
        return wrapped

    def __setattr__(self, name: str, value) -> None:
        setattr(vars(self)["_target"], name, value)

    @property
    def __class__(self):
        return type(vars(self)["_target"])

    def __len__(self) -> int:
        return len(vars(self)["_target"])

    def __iter__(self):
        return iter(vars(self)["_target"])

    def __contains__(self, item) -> bool:
        return item in vars(self)["_target"]


def _proxy_for(target, layer: str, tracer: Tracer) -> RecordingProxy:
    proxy_type = type(type(target).__name__, (RecordingProxy,), {})
    return proxy_type(target, layer, tracer)


def instrument(balancer, tracer: Tracer):
    """Wrap a freshly built balancer, its CT and its CH; returns the proxy.

    The balancer's own methods reach ``self.ct`` / ``self.ch``, so those
    two public attributes are replaced on the real object.
    """
    if getattr(balancer, "ct", None) is not None:
        balancer.ct = _proxy_for(balancer.ct, "ct", tracer)
    balancer.ch = _proxy_for(balancer.ch, "ch", tracer)
    return _proxy_for(balancer, "core", tracer)


def wrap_events(events, tracer: Tracer):
    """``(packet_index, apply)`` events with each ``apply`` timed."""
    return [
        (index, tracer.wrap("event", f"event@{index}", apply))
        for index, apply in events
    ]


def span_records(tracer: Tracer, **labels) -> List[dict]:
    """JSON-ready lines for one traced call: spans, then aggregated roles."""
    records = [
        {
            **labels,
            "id": s[0],
            "parent": s[1],
            "role": s[2],
            "name": s[3],
            "start_ns": s[4],
            "end_ns": s[5],
        }
        for s in tracer.spans
        if s is not None
    ]
    for role in sorted(tracer.aggregated):
        if tracer.calls.get(role):
            records.append(
                {
                    **labels,
                    "aggregated": True,
                    "role": role,
                    "calls": tracer.calls[role],
                    "self_ns": tracer.self_ns[role],
                }
            )
    return records


def write_jsonl(path, records: Iterable[dict]) -> None:
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
