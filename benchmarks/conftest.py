"""Benchmark-suite configuration.

Scale is selected by ``REPRO_SCALE`` (smoke / default / paper); see
``repro.experiments.scales``.  Experiment tables recorded by the benches
are printed in the terminal summary so the benchmark log carries the
reproduced figures/tables, not just timings.
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
def once(benchmark):
    """Run a callable exactly once under the benchmark timer.

    The experiment harnesses are full sweeps (minutes, deterministic), so
    repeated benchmark rounds would only multiply runtime.
    """

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
