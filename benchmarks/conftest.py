"""Benchmark-suite configuration.

Scale is selected by ``REPRO_SCALE`` (smoke / default / paper); see
``repro.experiments.scales``.  Experiment tables recorded by the benches
are printed in the terminal summary so the log carries the reproduced
figures/tables.  Nothing here reads a clock: the assertions are counts
and shapes, timing is ``python3 -m bench``.
"""

from benchmarks import reporting
from repro.experiments.report import load
from repro.experiments.scales import scale_name


def published(name: str):
    """Run ``repro experiment``'s entry ``name`` at the active scale and
    queue what it would print; returns the result for the assertions."""
    entry = load(name)
    taken = {"scale": scale_name()} if "scale" in entry.takes else {}
    result = entry.run(**taken)
    reporting.record(entry.title.format(**taken), entry.tables(result))
    return result


def pytest_terminal_summary(terminalreporter):
    items = reporting.drain()
    if not items:
        return
    terminalreporter.write_sep("=", "reproduced paper artifacts")
    for title, body in items:
        terminalreporter.write_line("")
        terminalreporter.write_sep("-", title)
        for line in body.splitlines():
            terminalreporter.write_line(line)
