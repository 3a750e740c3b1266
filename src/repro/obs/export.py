"""Metric exporters: Prometheus text exposition and JSONL time series.

Two formats, two audiences:

- :func:`render_prometheus` / :func:`write_prometheus` -- the standard
  `text exposition format`_ (``# HELP`` / ``# TYPE`` plus one sample
  per series), so a run's final state can be diffed, scraped, or pushed
  to a gateway.
- :class:`JsonlExporter` -- one JSON object per snapshot instant,
  appended as a line: ``{"t": <seconds>, "metrics": {...}}``.  The final
  line of a run carries ``"final": true`` plus the invariant-monitor
  verdicts, which is what ``repro obs summarize`` (and the CI gate)
  reads back via :func:`load_jsonl` / :func:`last_snapshot`.

.. _text exposition format:
   https://prometheus.io/docs/instrumenting/exposition_formats/
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.registry import Registry


def render_prometheus(registry: Registry) -> str:
    """Render every series in the Prometheus text exposition format."""
    registry.collect()
    lines: List[str] = []
    seen_meta = set()
    for rendered, instrument in registry.series().items():
        name = instrument.name
        if name not in seen_meta:
            seen_meta.add(name)
            help_text = registry.help_of(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {registry.kind_of(name)}")
        lines.append(f"{rendered} {_fmt(instrument.value)}")
    return "\n".join(lines) + "\n" if lines else ""


def _fmt(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def write_prometheus(registry: Registry, path) -> Path:
    path = Path(path)
    path.write_text(render_prometheus(registry))
    return path


def prometheus_sibling(jsonl_path) -> Path:
    """``m.jsonl`` -> ``m.prom`` (suffix swap; append if no suffix)."""
    path = Path(jsonl_path)
    return path.with_suffix(".prom") if path.suffix else path.with_name(path.name + ".prom")


class JsonlExporter:
    """Appends one JSON line per snapshot to ``path``.

    The file is truncated on construction (an exporter belongs to one
    run) and every line is self-contained, so partial files from an
    interrupted run still parse line-by-line.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fh = open(self.path, "w")

    def write_snapshot(self, registry, t: float, **extra) -> None:
        record: Dict[str, object] = {"t": t}
        record.update(extra)
        record["metrics"] = registry.snapshot()
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def finish(self, registry: Registry) -> None:
        """End a ``--metrics-out`` run: close the file, write the
        registry's Prometheus sibling, and print both paths."""
        self.close()
        prom_path = write_prometheus(registry, prometheus_sibling(self.path))
        print(f"metrics: {self.path} (prometheus: {prom_path})")

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_jsonl(path) -> List[dict]:
    """Parse every snapshot line of a JSONL metrics file."""
    records: List[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def last_snapshot(records: List[dict]) -> Optional[dict]:
    """The final snapshot of a run (prefers an explicit ``final`` line)."""
    for record in reversed(records):
        if record.get("final"):
            return record
    return records[-1] if records else None
