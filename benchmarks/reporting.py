"""Benchmark-output plumbing.

pytest captures stdout of passing tests, so each benchmark records its
result tables here; ``benchmarks/conftest.py`` flushes them into the
terminal summary, making ``pytest benchmarks/`` output self-contained.
"""

from typing import List, Tuple

_SUMMARIES: List[Tuple[str, str]] = []


def record(title: str, body: str) -> None:
    """Queue an experiment's formatted output for the terminal summary."""
    _SUMMARIES.append((title, body))


def drain() -> List[Tuple[str, str]]:
    items = list(_SUMMARIES)
    _SUMMARIES.clear()
    return items
