"""Workload distributions for the event-driven simulation (Section 5.1).

The paper takes its connection-size, connection-duration, and server
down-time distributions from the Cheetah artifact, which models "a large
web service provider running over a Hadoop cluster" (also used by
SilkRoad).  Those exact empirical tables are not redistributable, so we
provide explicit mixtures with the same qualitative shape and moments:

- **flow sizes**: mostly mice (a few packets) with a heavy elephant tail --
  matching the skewed log-log histograms of Fig. 6a;
- **flow durations**: short-dominated with a long tail, mean ~20 s (which
  makes "connection rate 100K" correspond to ~5M connections over a
  1000 s run, as the paper reports);
- **server down-times**: transient-failure scale -- tens of seconds to a
  few minutes (reboots, temporary disconnects; Section 2.2).

All distributions draw from a caller-supplied ``random.Random`` so that
simulations are reproducible and JET / full-CT runs can share seeds
(Proposition 4.1 evaluation requires identical event sequences).

A distribution whose :meth:`~Distribution.sample` always reads the same
number of uniforms (its ``width``) can also draw a block of samples at
once from those uniforms, laid out as rows (:meth:`~Distribution.sample_block`),
with the same bits as the one-at-a-time calls: ``+ - * /`` are the same
in numpy and in Python, ``log`` and ``**`` are not, so an ``exact`` block
calls libm per element for them.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from numbers import Real
from typing import Any, List, Mapping, Optional, Sequence, Tuple

import numpy as np


def check_finite(name: str, value: Any) -> None:
    """``TypeError`` unless ``value`` is a real number, ``ValueError``
    unless it is finite (a NaN passes every ``<=`` check)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _log(x: np.ndarray, exact: bool) -> np.ndarray:
    return np.array(list(map(math.log, x.tolist()))) if exact else np.log(x)


def _pow(x: np.ndarray, y: float, exact: bool) -> np.ndarray:
    return np.array([v**y for v in x.tolist()]) if exact else x**y


def expovariate(u: np.ndarray, lambd: float, exact: bool = True) -> np.ndarray:
    """``random.expovariate(lambd)`` for each uniform ``u`` that
    ``random()`` returned: ``-log(1.0 - u) / lambd``."""
    return -_log(1.0 - u, exact) / lambd


class Distribution(ABC):
    """A positive-valued sampling distribution."""

    #: Uniforms one :meth:`sample` reads, or None where that varies.
    width: Optional[int] = None

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one value."""

    def sample_block(self, u: np.ndarray, exact: bool = True) -> np.ndarray:
        """What :meth:`sample` returns for each row of ``u`` (shape
        ``(n, width)``) taken as the uniforms ``rng.random()`` yields --
        bit for bit if ``exact``, else within a few ulps (numpy's ``log``
        and ``**``)."""
        raise NotImplementedError(f"{type(self).__name__} has no fixed width")

    @abstractmethod
    def mean(self) -> float:
        """Analytic (or configured) expectation, used to size workloads."""


class Constant(Distribution):
    """Degenerate distribution (useful in tests)."""

    width = 0

    def __init__(self, value: float):
        check_finite("value", value)
        if value <= 0:
            raise ValueError("value must be positive")
        self.value = value

    def sample(self, rng: random.Random) -> float:
        return self.value

    def sample_block(self, u: np.ndarray, exact: bool = True) -> np.ndarray:
        return np.full(len(u), float(self.value))

    def mean(self) -> float:
        return self.value


class Exponential(Distribution):
    """Exponential with the given mean."""

    width = 1

    def __init__(self, mean: float):
        check_finite("mean", mean)
        if mean <= 0:
            raise ValueError("mean must be positive")
        self._mean = mean
        self._rate = 1.0 / mean

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(self._rate)

    def sample_block(self, u: np.ndarray, exact: bool = True) -> np.ndarray:
        return expovariate(u[:, 0], self._rate, exact)

    def mean(self) -> float:
        return self._mean


class LogNormal(Distribution):
    """Log-normal parameterized by its median and shape sigma."""

    def __init__(self, median: float, sigma: float):
        check_finite("median", median)
        check_finite("sigma", sigma)
        if median <= 0 or sigma <= 0:
            raise ValueError("median and sigma must be positive")
        self.mu = math.log(median)
        self.sigma = sigma

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(self.mu, self.sigma)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2)


class BoundedPareto(Distribution):
    """Pareto tail truncated to ``[minimum, maximum]`` (elephant flows)."""

    width = 1

    def __init__(self, alpha: float, minimum: float, maximum: float):
        for name, value in (("alpha", alpha), ("minimum", minimum), ("maximum", maximum)):
            check_finite(name, value)
        if not (alpha > 0 and 0 < minimum < maximum):
            raise ValueError("need alpha > 0 and 0 < minimum < maximum")
        self.alpha = alpha
        self.minimum = minimum
        self.maximum = maximum
        # Inverse-CDF sampling: x = lo^a / (1 - u (1 - (lo/hi)^a)), x^(1/a).
        try:
            self._scale = minimum**alpha
            self._span = 1 - (minimum / maximum) ** alpha
            float(self._scale)
        except OverflowError as exc:
            raise ValueError(f"minimum ** alpha overflows: {exc}") from exc
        self._root = 1 / alpha

    def sample(self, rng: random.Random) -> float:
        return (self._scale / (1 - rng.random() * self._span)) ** self._root

    def sample_block(self, u: np.ndarray, exact: bool = True) -> np.ndarray:
        return _pow(self._scale / (1 - u[:, 0] * self._span), self._root, exact)

    def mean(self) -> float:
        a, lo, hi = self.alpha, self.minimum, self.maximum
        if a == 1:
            return math.log(hi / lo) * lo / (1 - lo / hi)
        num = (lo**a) * a / (a - 1) * (lo ** (1 - a) - hi ** (1 - a))
        return num / (1 - (lo / hi) ** a)


class Mixture(Distribution):
    """Weighted mixture of component distributions."""

    def __init__(self, components: Sequence[Tuple[float, Distribution]]):
        if not components:
            raise ValueError("mixture needs at least one component")
        for i, (weight, dist) in enumerate(components):
            check_finite(f"component {i} weight", weight)
            if weight < 0:
                raise ValueError(f"component {i} weight must be non-negative, got {weight}")
            if not isinstance(dist, Distribution):
                raise TypeError(f"component {i} is not a distribution: {dist!r}")
        total = sum(weight for weight, _ in components)
        if total <= 0:
            raise ValueError("mixture weights must not all be zero")
        self._weights: List[float] = []
        self._dists: List[Distribution] = []
        cumulative = 0.0
        for weight, dist in components:
            cumulative += weight / total
            self._weights.append(cumulative)
            self._dists.append(dist)
        # One uniform picks the component; equal-width components make
        # the mixture fixed-width too.
        widths = {dist.width for dist in self._dists}
        if len(widths) == 1 and None not in widths:
            self.width = 1 + widths.pop()

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        for threshold, dist in zip(self._weights, self._dists):
            if u <= threshold:
                return dist.sample(rng)
        return self._dists[-1].sample(rng)

    def sample_block(self, u: np.ndarray, exact: bool = True) -> np.ndarray:
        if self.width is None:
            return super().sample_block(u, exact)
        # The first threshold >= u, and past the last one (rounding) the
        # last component: the loop above, for a whole column at once.
        pick = np.minimum(np.searchsorted(self._weights, u[:, 0]), len(self._dists) - 1)
        rest, out = u[:, 1:], np.empty(len(u))
        for i, dist in enumerate(self._dists):
            rows = np.flatnonzero(pick == i)
            if len(rows):
                out[rows] = dist.sample_block(rest[rows], exact)
        return out

    def mean(self) -> float:
        previous = 0.0
        total = 0.0
        for threshold, dist in zip(self._weights, self._dists):
            total += (threshold - previous) * dist.mean()
            previous = threshold
        return total


#: Distribution tables (``{"kind": ..., **params}``, the scenario
#: document's spelling) by kind: what builds each from its table.
DIST_KINDS = {
    "constant": lambda p: Constant(p["value"]),
    "exponential": lambda p: Exponential(p["mean"]),
    "lognormal": lambda p: LogNormal(median=p["median"], sigma=p["sigma"]),
    "bounded_pareto": lambda p: BoundedPareto(p["alpha"], p["minimum"], p["maximum"]),
    "mixture": lambda p: Mixture(_components(p["components"])),
}


def _components(written: Any) -> List[Tuple[float, Distribution]]:
    if not isinstance(written, (list, tuple)):
        raise TypeError(f"components must be a list, got {type(written).__name__}")
    parts = []
    for i, part in enumerate(written):
        if not (isinstance(part, (list, tuple)) and len(part) == 2):
            raise ValueError(f"component {i} must be a [weight, table] pair, got {part!r}")
        parts.append((part[0], dist_from_dict(part[1])))
    return parts


def dist_from_dict(payload: Mapping[str, Any]) -> Distribution:
    """Build the distribution a table names (``ValueError`` on an unknown
    kind or a bad parameter, ``KeyError`` on a missing one, ``TypeError``
    on a non-number or a non-table)."""
    if not isinstance(payload, Mapping):
        raise TypeError(f"expected a distribution table, got {payload!r}")
    build = DIST_KINDS.get(payload.get("kind"))
    if build is None:
        raise ValueError(f"unknown distribution kind {payload.get('kind')!r}")
    return build(payload)


# --------------------------------------------------------------------------
# Paper-calibrated factories
# --------------------------------------------------------------------------

def hadoop_flow_size() -> Distribution:
    """Packets per flow: mice-dominated with an elephant tail.

    Mean ~20 packets; the tail reaches 10^4, reproducing the skewed
    log-log shape the trace histograms (Fig. 6a) show.
    """
    return Mixture(
        [
            (0.50, BoundedPareto(1.5, 1, 10)),        # mice: handshake-scale
            (0.35, BoundedPareto(1.2, 5, 200)),       # medium transfers
            (0.13, BoundedPareto(1.1, 50, 2_000)),    # large transfers
            (0.02, BoundedPareto(1.05, 500, 20_000)), # elephants
        ]
    )


def hadoop_flow_duration() -> Distribution:
    """Flow duration in seconds, mean ~20 s.

    Short-request dominated, with a minutes-long tail (long-lived
    connections are what makes undersized full-CT tables break flows).
    """
    return Mixture(
        [
            (0.60, Exponential(5.0)),
            (0.30, Exponential(30.0)),
            (0.10, Exponential(80.0)),
        ]
    )


def server_downtime() -> Distribution:
    """Transient-failure down-time in seconds (median ~1 min)."""
    return LogNormal(median=60.0, sigma=0.8)
