"""Experiment output (ASCII tables, JSON archives) and the registry behind
``repro experiment``.

Each module describes what it reproduces once, as an :class:`Experiment`;
:func:`publish` is the one writer of its stdout and the
``results/<stem>.json`` EXPERIMENTS.md cites; :data:`EXPERIMENTS` is the
one place a name maps to code (the parser's choices, ``all`` and every
module's ``__main__`` read it, and reading it imports no experiment).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.scales import scale_name
from repro.obs import JsonlExporter, MonitorSuite, Registry, evaluate_and_export

RESULTS_DIR = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned ASCII table."""
    rendered: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        rendered.append([_cell(v) for v in row])
    widths = [max(len(r[i]) for r in rendered) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(rendered):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def save_json(name: str, payload: Any) -> Path:
    """Archive a result payload; returns the path (best-effort on failure)."""
    path = RESULTS_DIR / f"{name}.json"
    try:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
    except OSError:
        pass
    return path


def banner(title: str) -> str:
    bar = "=" * max(len(title), 8)
    return f"{bar}\n{title}\n{bar}"


# ------------------------------------------------------------- the registry
#: What an entry takes: ``scale`` (a :mod:`.scales` preset), ``seed``, and
#: ``metrics`` (a live :class:`repro.obs.Registry`, passed as ``registry=``).
SCALED = ("scale",)
INSTRUMENTED = ("scale", "seed", "metrics")


@dataclass(frozen=True)
class Experiment:
    """One table / figure / check of the paper, described once."""

    name: str  # the ``repro experiment`` name, a key of EXPERIMENTS
    stem: str  # archived as results/<stem>.json
    title: str  # the banner; {scale} and {seed} are filled in
    run: Callable[..., Any]  # run(**what it takes) -> result, printing nothing
    tables: Callable[[Any], str]  # result -> everything printed under the banner
    payload: Callable[[Any], Any]  # result -> the archived JSON document
    takes: Tuple[str, ...] = INSTRUMENTED
    monitors: Optional[Sequence[Any]] = None  # None: repro.obs.default_monitors()


#: ``repro experiment`` name -> (module, what its entry takes), in ``all``'s
#: order.  The parser's help and flag checks need ``takes`` before any
#: experiment is imported; :func:`load` holds the module to the same value.
EXPERIMENTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "fig3": ("fig3", SCALED),
    "fig4": ("fig4", SCALED),
    "fig5": ("fig5", SCALED),
    "fig6": ("fig6", SCALED),
    "fig7": ("fig7", SCALED),
    "table1": ("table12", SCALED),
    "table2": ("table12", SCALED),
    "theory": ("theory", ()),
    "extensions": ("extensions", ()),
    "lbpool": ("lb_pool", ()),
    "resilience": ("resilience", INSTRUMENTED),
    "control-loop": ("control_loop", INSTRUMENTED),
}


def takers(what: str) -> str:
    """The names whose entries take ``what``, for help and error text."""
    return ", ".join(name for name, (_, takes) in EXPERIMENTS.items() if what in takes)


def load(name: str) -> Experiment:
    """The entry called ``name``: a module-level :class:`Experiment` of its module."""
    module, takes = EXPERIMENTS[name]
    values = vars(importlib.import_module(f"repro.experiments.{module}")).values()
    (entry,) = [v for v in values if isinstance(v, Experiment) and v.name == name]
    if entry.takes != takes:
        raise RuntimeError(f"experiment {name}: module and table disagree on takes")
    return entry


def run_module(module: str) -> int:
    """``python -m repro.experiments.<module> [flags]``: each entry of the
    module through ``repro experiment``'s parser."""
    from repro.cli import main

    for name, (owner, _) in EXPERIMENTS.items():
        if module.endswith(f".{owner}"):
            code = main(["experiment", name, *sys.argv[1:]])
            if code:
                return code
    return 0


def publish(
    experiment: Experiment,
    scale: Optional[str] = None,
    seed: int = 0,
    metrics_out: Optional[str] = None,
) -> Any:
    """Run one entry, print its banner and tables, archive its document.

    The arguments reach the entry only where it takes them.  One that takes
    ``metrics`` is always instrumented, so its document (``"invariants"``
    included) does not depend on ``metrics_out``; with it, the registry
    also streams to that JSONL file and the run ends with the same
    epilogue as ``repro simulate --metrics-out``.
    """
    taken = {}
    if "scale" in experiment.takes:
        taken["scale"] = scale_name(scale)
    if "seed" in experiment.takes:
        taken["seed"] = seed
    arguments = dict(taken)
    registry = exporter = None
    if "metrics" in experiment.takes:
        arguments["registry"] = registry = Registry()
        if metrics_out:
            exporter = JsonlExporter(metrics_out)
            registry.attach_exporter(exporter)
    result = experiment.run(**arguments)
    print(banner(experiment.title.format(**taken)))
    print(experiment.tables(result))
    document = experiment.payload(result)
    if "scale" in taken and "scale" not in document:
        document = {"scale": taken["scale"], **document}
    if registry is not None:
        if exporter is not None:
            print()
        verdicts = evaluate_and_export(registry, monitors=experiment.monitors, exporter=exporter)
        document["invariants"] = MonitorSuite.to_json(verdicts)
        print(f"\n{MonitorSuite.render(verdicts)}")
    save_json(experiment.stem, document)
    return result
