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
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Any, List, Mapping, Sequence, Tuple


class Distribution(ABC):
    """A positive-valued sampling distribution."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one value."""

    @abstractmethod
    def mean(self) -> float:
        """Analytic (or configured) expectation, used to size workloads."""


class Constant(Distribution):
    """Degenerate distribution (useful in tests)."""

    def __init__(self, value: float):
        if value <= 0:
            raise ValueError("value must be positive")
        self.value = value

    def sample(self, rng: random.Random) -> float:
        return self.value

    def mean(self) -> float:
        return self.value


class Exponential(Distribution):
    """Exponential with the given mean."""

    def __init__(self, mean: float):
        if mean <= 0:
            raise ValueError("mean must be positive")
        self._mean = mean

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self._mean)

    def mean(self) -> float:
        return self._mean


class LogNormal(Distribution):
    """Log-normal parameterized by its median and shape sigma."""

    def __init__(self, median: float, sigma: float):
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

    def __init__(self, alpha: float, minimum: float, maximum: float):
        if not (alpha > 0 and 0 < minimum < maximum):
            raise ValueError("need alpha > 0 and 0 < minimum < maximum")
        self.alpha = alpha
        self.minimum = minimum
        self.maximum = maximum

    def sample(self, rng: random.Random) -> float:
        # Inverse-CDF sampling of the bounded Pareto.
        a, lo, hi = self.alpha, self.minimum, self.maximum
        u = rng.random()
        x = (lo**a) / (1 - u * (1 - (lo / hi) ** a))
        return x ** (1 / a)

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
        total = sum(weight for weight, _ in components)
        self._weights: List[float] = []
        self._dists: List[Distribution] = []
        cumulative = 0.0
        for weight, dist in components:
            cumulative += weight / total
            self._weights.append(cumulative)
            self._dists.append(dist)

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        for threshold, dist in zip(self._weights, self._dists):
            if u <= threshold:
                return dist.sample(rng)
        return self._dists[-1].sample(rng)

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
    "mixture": lambda p: Mixture(
        [(weight, dist_from_dict(part)) for weight, part in p["components"]]
    ),
}


def dist_from_dict(payload: Mapping[str, Any]) -> Distribution:
    """Build the distribution a table names (``ValueError`` on an unknown
    kind, ``KeyError`` on a missing parameter)."""
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
