"""Shared wall-time measurement -- one way to time everything.

Every wall-clock measurement in the package (trace replay, the
event-driven engine, the sharded driver) goes through :class:`Stopwatch`, so
timing semantics -- ``time.perf_counter``, monotonic, fractional
seconds -- are defined in exactly one place.  The hand-rolled
``perf_counter()`` pairs these helpers replaced each re-implemented the
same three lines with subtle opportunities to diverge (wrong clock,
lost exception paths).

:class:`Stopwatch` is deliberately registry-free: hot measurement loops
must not pay for observability.  Callers that want the measurement *as a
metric* set a registry gauge to ``stopwatch.stop()`` after the timed
region, as the engine and replay do for ``repro_wall_seconds``.
"""

from __future__ import annotations

from time import perf_counter


class Stopwatch:
    """A restartable perf_counter stopwatch, usable as a context manager.

    >>> sw = Stopwatch()            # starts immediately
    >>> ...                         # timed region
    >>> wall = sw.stop()            # seconds, also kept in sw.elapsed

    or::

        with Stopwatch() as sw:
            ...
        wall = sw.elapsed
    """

    __slots__ = ("_started", "elapsed")

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started = perf_counter()

    def restart(self) -> "Stopwatch":
        """Reset the start mark."""
        self._started = perf_counter()
        return self

    def stop(self) -> float:
        """Record and return seconds since construction/restart."""
        self.elapsed = perf_counter() - self._started
        return self.elapsed

    def __enter__(self) -> "Stopwatch":
        return self.restart()

    def __exit__(self, *exc) -> None:
        self.stop()
