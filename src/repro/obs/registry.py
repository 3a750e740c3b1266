"""Metrics registry -- named counters, gauges, and fixed-bucket histograms.

The observability layer follows the Prometheus data model, trimmed to
what a reproduction needs:

- :class:`Counter` -- a monotonically growing total.  Collectors that
  scrape an existing cheap counter (e.g. :class:`~repro.ct.base.CTStats`)
  use :meth:`Counter.set_total` to publish the cumulative value instead
  of double-counting increments.
- :class:`Gauge` -- a value that can go up and down (occupancy, ratios).
- :class:`Histogram` -- fixed upper-bound buckets plus sum and count
  (wall-time distributions).

Series are keyed by ``(name, sorted label items)``, so
``registry.counter("repro_ch_lookups_total", family="hrw")`` and the same
name with ``family="ring"`` are independent series, exactly as in
Prometheus exposition.

Two registries implement the same surface:

- :class:`Registry` -- the live one; it also carries *collectors*
  (callbacks that scrape structural stats right before a snapshot or
  render) and optional snapshot listeners (exporters).
- :class:`NullRegistry` -- the disabled fast path.  Every instrument it
  hands out is a shared singleton whose mutators are no-ops, snapshots
  return nothing, and ``enabled`` is False so instrumented drivers can
  skip optional work (extra bookkeeping, snapshot emission) entirely.
  Instrumentation is deliberately placed at *event and batch boundaries*,
  never inside per-packet hot loops, so a NullRegistry run costs nothing
  measurable -- ``tests/test_obs_differential.py`` counts the calls.

Observability must never change behaviour: instruments only read the
dataplane, and the differential test suite holds every stack to
byte-identical decisions with and without a live registry.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram upper bounds, tuned for wall-time in seconds.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: A series key: metric name plus a canonical (sorted) label tuple.
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _series_key(name: str, labels: Dict[str, str]) -> SeriesKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def series_name(name: str, labels: Iterable[Tuple[str, str]]) -> str:
    """Render ``name{k="v",...}`` (plain ``name`` when unlabelled)."""
    items = list(labels)
    if not items:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in items)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def set_total(self, total: float) -> None:
        """Publish a cumulative total scraped from an external counter.

        Collectors use this to mirror existing dataplane counters
        (``CTStats``, ``SyncStats``) without the dataplane ever calling
        into the registry.  Totals may only grow.
        """
        if total < self.value:
            raise ValueError(
                f"{self.name}: counter total went backwards "
                f"({total} < {self.value})"
            )
        self.value = total


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with cumulative-on-render semantics.

    ``bounds`` are inclusive upper bounds; an implicit +Inf bucket
    catches the rest.  Observation is O(log buckets) via bisect.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "total", "count")

    def __init__(
        self,
        name: str,
        bounds: Tuple[float, ...] = DEFAULT_TIME_BUCKETS,
        labels: Tuple[Tuple[str, str], ...] = (),
    ):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted non-empty sequence")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +Inf last
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative_buckets(self) -> List[Tuple[str, int]]:
        """``(le, cumulative_count)`` pairs, Prometheus-style."""
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((format(bound, "g"), running))
        out.append(("+Inf", running + self.bucket_counts[-1]))
        return out


class _Timer:
    """Context manager that observes elapsed wall time into a histogram."""

    __slots__ = ("_histogram", "_started", "elapsed")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._started = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "_Timer":
        from time import perf_counter

        self._started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        from time import perf_counter

        self.elapsed = perf_counter() - self._started
        self._histogram.observe(self.elapsed)


class Registry:
    """A live metrics registry: instruments, collectors, exporters."""

    enabled = True

    def __init__(self) -> None:
        self._series: Dict[SeriesKey, object] = {}
        self._kinds: Dict[str, str] = {}  # metric name -> counter|gauge|histogram
        self._help: Dict[str, str] = {}
        self._collectors: List[Callable[["Registry"], None]] = []
        self._exporters: List[object] = []

    # -------------------------------------------------------- instruments
    def _get(self, kind: str, cls, name: str, help: str, labels: Dict[str, str], **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
            if help:
                self._help[name] = help
        elif known != kind:
            raise ValueError(f"metric {name!r} already registered as a {known}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        key = _series_key(name, labels)
        instrument = self._series.get(key)
        if instrument is None:
            instrument = cls(name, labels=key[1], **kwargs)
            self._series[key] = instrument
        return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get("counter", Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get("gauge", Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Tuple[float, ...]] = None, **labels
    ) -> Histogram:
        kwargs = {"bounds": tuple(buckets)} if buckets else {}
        return self._get("histogram", Histogram, name, help, labels, **kwargs)

    def timer(self, name: str, help: str = "", **labels) -> _Timer:
        """A context manager observing wall seconds into ``name``."""
        return _Timer(self.histogram(name, help, **labels))

    # --------------------------------------------------------- collectors
    def add_collector(self, fn: Callable[["Registry"], None]) -> None:
        """Register a scrape callback, run before every snapshot/render."""
        self._collectors.append(fn)

    def collect(self) -> None:
        for fn in self._collectors:
            fn(self)

    # ---------------------------------------------------------- exporters
    def attach_exporter(self, exporter) -> None:
        """Attach an object with ``write_snapshot(registry, t, **extra)``."""
        self._exporters.append(exporter)

    def export_snapshot(self, t: float, **extra) -> None:
        """Push one time-series point to every attached exporter."""
        for exporter in self._exporters:
            exporter.write_snapshot(self, t, **extra)

    # ------------------------------------------------------------ reading
    def value(self, name: str, **labels) -> Optional[float]:
        """Current value of a counter/gauge series, or None if absent."""
        instrument = self._series.get(_series_key(name, labels))
        if instrument is None or isinstance(instrument, Histogram):
            return None
        return instrument.value

    def series(self) -> Dict[str, object]:
        """All series in registration order: rendered name -> instrument."""
        return {
            series_name(name, key_labels): instrument
            for (name, key_labels), instrument in self._series.items()
        }

    def kind_of(self, name: str) -> Optional[str]:
        return self._kinds.get(name)

    def help_of(self, name: str) -> str:
        return self._help.get(name, "")

    def snapshot(self) -> Dict[str, object]:
        """Collect, then flatten every series to plain JSON-able values."""
        self.collect()
        out: Dict[str, object] = {}
        for rendered, instrument in self.series().items():
            if isinstance(instrument, Histogram):
                out[rendered] = {
                    "count": instrument.count,
                    "sum": instrument.total,
                    "buckets": dict(instrument.cumulative_buckets()),
                }
            else:
                out[rendered] = instrument.value
        return out

    def dump_series(self, collect: bool = True) -> List[Dict[str, object]]:
        """Every series as plain picklable dicts, for cross-process merging.

        Unlike :meth:`snapshot` (rendered names, cumulative buckets), this
        keeps name/labels/kind structured and histograms raw, so
        :mod:`repro.obs.merge` can combine dumps from shard workers
        kind-aware and load them into a parent registry losslessly.
        """
        if collect:
            self.collect()
        out: List[Dict[str, object]] = []
        for (name, key_labels), instrument in self._series.items():
            entry: Dict[str, object] = {
                "name": name,
                "kind": self._kinds[name],
                "help": self._help.get(name, ""),
                "labels": dict(key_labels),
            }
            if isinstance(instrument, Histogram):
                entry["bounds"] = list(instrument.bounds)
                entry["bucket_counts"] = list(instrument.bucket_counts)
                entry["sum"] = instrument.total
                entry["count"] = instrument.count
            else:
                entry["value"] = instrument.value
            out.append(entry)
        return out


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram/timer."""

    __slots__ = ()
    name = "null"
    labels = ()
    value = 0
    count = 0
    total = 0.0
    elapsed = 0.0

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_total(self, total: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled observability fast path: every call is a no-op.

    Hands out one shared inert instrument, never stores anything, and
    reports ``enabled = False`` so drivers skip optional bookkeeping.
    A module-level singleton (:data:`NULL`) avoids even the allocation.
    """

    enabled = False

    def counter(self, name: str, help: str = "", **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", buckets=None, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def timer(self, name: str, help: str = "", **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def add_collector(self, fn) -> None:
        pass

    def collect(self) -> None:
        pass

    def attach_exporter(self, exporter) -> None:
        pass

    def export_snapshot(self, t: float, **extra) -> None:
        pass

    def value(self, name: str, **labels) -> None:
        return None

    def series(self) -> Dict[str, object]:
        return {}

    def kind_of(self, name: str) -> None:
        return None

    def help_of(self, name: str) -> str:
        return ""

    def snapshot(self) -> Dict[str, object]:
        return {}

    def dump_series(self, collect: bool = True) -> List[Dict[str, object]]:
        return []


#: The process-wide disabled registry; use instead of allocating one.
NULL = NullRegistry()


def coalesce(registry) -> "Registry":
    """``registry`` if given, else the shared :data:`NULL` no-op."""
    return NULL if registry is None else registry
