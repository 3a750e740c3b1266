"""Metrics registry -- named counters and gauges.

The observability layer follows the Prometheus data model, trimmed to
what a reproduction needs:

- :class:`Counter` -- a monotonically growing total.  Collectors that
  scrape an existing cheap counter (e.g. :class:`~repro.ct.base.CTStats`)
  use :meth:`Counter.set_total` to publish the cumulative value instead
  of double-counting increments.
- :class:`Gauge` -- a value that is set (occupancy, expectations, a
  run's wall seconds).

Series are keyed by ``(name, sorted label items)``, so
``registry.counter("repro_ch_lookups_total", family="hrw")`` and the same
name with ``family="ring"`` are independent series, exactly as in
Prometheus exposition.  A :class:`Registry` also carries *collectors*
(callbacks that scrape structural stats right before a snapshot or
render) and optional snapshot listeners (exporters).

Off is ``None``: every driver takes ``registry=None`` and tests it before
touching anything here.  Instrumentation is deliberately placed at
*event and batch boundaries*, never inside per-packet hot loops, so an
off run makes no call into this module and a live one a number of calls
that does not grow with the trace -- ``tests/test_obs_differential.py``
counts them.

Observability must never change behaviour: instruments only read the
dataplane, and the differential test suite holds every stack to
byte-identical decisions with and without a live registry.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

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
    """A value that is set, not accumulated."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Registry:
    """A live metrics registry: instruments, collectors, exporters."""

    def __init__(self) -> None:
        self._series: Dict[SeriesKey, object] = {}
        self._kinds: Dict[str, str] = {}  # metric name -> counter|gauge
        self._help: Dict[str, str] = {}
        self._collectors: List[Callable[["Registry"], None]] = []
        self._exporters: List[object] = []

    # -------------------------------------------------------- instruments
    def _get(self, kind: str, cls, name: str, help: str, labels: Dict[str, str]):
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
            instrument = cls(name, labels=key[1])
            self._series[key] = instrument
        return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get("counter", Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get("gauge", Gauge, name, help, labels)

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
        return None if instrument is None else instrument.value

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

    def snapshot(self) -> Dict[str, float]:
        """Collect, then flatten every series to plain JSON-able values."""
        self.collect()
        return {rendered: instrument.value for rendered, instrument in self.series().items()}

    def dump_series(self) -> List[Dict[str, object]]:
        """Collect, then every series as plain picklable dicts.

        Unlike :meth:`snapshot` (rendered names), this keeps
        name/labels/kind structured, so :mod:`repro.obs.merge` can
        combine dumps from shard workers kind-aware and load them into a
        parent registry losslessly.
        """
        self.collect()
        return [
            {
                "name": name,
                "kind": self._kinds[name],
                "help": self._help.get(name, ""),
                "labels": dict(key_labels),
                "value": instrument.value,
            }
            for (name, key_labels), instrument in self._series.items()
        ]
