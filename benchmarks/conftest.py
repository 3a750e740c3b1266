"""Benchmark-suite configuration.

Scale is selected by ``REPRO_SCALE`` (smoke / default / paper); see
``repro.experiments.scales``.  Experiment tables recorded by the benches
are printed in the terminal summary so the log carries the reproduced
figures/tables.  Nothing here reads a clock: the assertions are counts
and shapes, timing is ``python3 -m bench``.
"""

import pytest

from benchmarks import reporting


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


@pytest.fixture
def once():
    """Run a callable exactly once: a plain call.

    The experiment harnesses are full sweeps (minutes, deterministic);
    the fixture only marks which call is the sweep a bench asserts on.
    """

    def runner(func, *args, **kwargs):
        return func(*args, **kwargs)

    return runner
