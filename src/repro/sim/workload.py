"""Connection workload generation for the event-driven simulator.

Connections arrive as a Poisson process; each new connection draws a size
(packet count) and a duration, and its remaining packets are spread over
the duration as uniform order statistics -- the continuous limit of the
paper's "flow packets in a time interval follow a binomial distribution,
with a probability that reflects the proportion of the interval size to
the remaining flow duration".

Connection keys are unique 64-bit integers from a splitmix64 stream (the
5-tuple hash a real LB would compute; uniqueness avoids accidental flow
collisions in statistics).

Closed-loop experiments need *time-varying* arrival rates (flash crowds,
diurnal cycles) so the autoscaler has something to forecast.  A
:class:`RateProfile` turns the homogeneous Poisson process into a
non-homogeneous one via Lewis-Shedler thinning, entirely inside the
generator, and with no profile the RNG stream is bit-identical to the
seed generator.

The simulator does not ask for one flow at a time: before each of its
events it takes, with :meth:`WorkloadGenerator.arrivals_before`, every
flow arriving before that event.  The draws are the same calls in the
same order (gap, flow, gap, flow, ...) however the run is cut into
windows, so a flow's key, size, duration and packet times do not depend
on the cut.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, List, Mapping, Optional

from repro.hashing.mix import splitmix64
from repro.sim.distributions import Distribution


class RateProfile:
    """A time-varying arrival-rate multiplier ``factor(t) in (0, peak]``.

    ``peak`` must upper-bound ``factor`` over the run: thinning draws
    candidate arrivals at ``base_rate * peak`` and accepts each with
    probability ``factor(t) / peak``.
    """

    def __init__(self, factor: Callable[[float], float], peak: float):
        if peak <= 0:
            raise ValueError("peak must be positive")
        self.factor = factor
        self.peak = peak

    @classmethod
    def flat(cls) -> "RateProfile":
        return cls(lambda t: 1.0, 1.0)

    @classmethod
    def flash_crowd(
        cls, start: float, ramp_s: float, magnitude: float, hold_s: float = 0.0
    ) -> "RateProfile":
        """Baseline load that ramps to ``magnitude``x at ``start`` over
        ``ramp_s`` seconds, holds, then ramps back down symmetrically."""
        if magnitude < 1.0:
            raise ValueError("magnitude must be >= 1")
        if ramp_s <= 0:
            raise ValueError("ramp_s must be positive")

        def factor(t: float) -> float:
            if t < start:
                return 1.0
            if t < start + ramp_s:  # ramp up
                return 1.0 + (magnitude - 1.0) * (t - start) / ramp_s
            if t < start + ramp_s + hold_s:  # plateau
                return magnitude
            down = t - (start + ramp_s + hold_s)
            if down < ramp_s:  # ramp down
                return magnitude - (magnitude - 1.0) * down / ramp_s
            return 1.0

        return cls(factor, magnitude)

    @classmethod
    def diurnal(cls, period_s: float, amplitude: float = 0.5) -> "RateProfile":
        """A day/night sinusoid: ``1 + amplitude * sin(2 pi t / period)``."""
        if not 0.0 < amplitude < 1.0:
            raise ValueError("amplitude must be in (0, 1)")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        two_pi = 2.0 * math.pi

        def factor(t: float) -> float:
            return 1.0 + amplitude * math.sin(two_pi * t / period_s)

        return cls(factor, 1.0 + amplitude)


#: Rate-profile tables (``{"kind": ..., **params}``, the scenario
#: document's spelling) by kind: the constructor the parameters go to.
PROFILE_KINDS = {
    "flat": RateProfile.flat,
    "flash_crowd": RateProfile.flash_crowd,
    "diurnal": RateProfile.diurnal,
}


def profile_from_dict(payload: Mapping[str, Any]) -> RateProfile:
    """Build the profile a table names (``ValueError`` on an unknown kind,
    ``TypeError`` on a parameter its constructor does not take)."""
    params = dict(payload)
    factory = PROFILE_KINDS.get(params.pop("kind", None))
    if factory is None:
        raise ValueError(f"unknown rate-profile kind {payload.get('kind')!r}")
    return factory(**params)


class Flow:
    """One simulated connection."""

    __slots__ = (
        "flow_id",
        "key",
        "start",
        "duration",
        "size",
        "packet_times",
        "true_destination",
        "broken",
        "inevitable",
    )

    def __init__(self, flow_id: int, key: int, start: float, duration: float, size: int):
        self.flow_id = flow_id
        self.key = key
        self.start = start
        self.duration = duration
        self.size = size
        self.packet_times: List[float] = []
        self.true_destination = None
        self.broken = False       # PCC violated (or inevitably broken)
        self.inevitable = False   # destination server was removed

    @property
    def end(self) -> float:
        return self.start + self.duration


class WorkloadGenerator:
    """Poisson connection arrivals with drawn sizes and durations."""

    def __init__(
        self,
        arrival_rate: float,
        size_dist: Distribution,
        duration_dist: Distribution,
        seed: int = 0,
        rate_profile: Optional[RateProfile] = None,
    ):
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        self.arrival_rate = arrival_rate
        self.size_dist = size_dist
        self.duration_dist = duration_dist
        self.rate_profile = rate_profile
        self._rng = random.Random(splitmix64(seed ^ 0x7157_9A7C))
        self._key_state = splitmix64(seed ^ 0x5DEE_CE66)
        self._next_id = 0
        # Two clocks, both the generator's own.  Thinning proposes on
        # ``_arrival_clock`` (absolute, so ``factor(t)`` sees real time)
        # and hands back relative gaps; the arrival instants are those
        # gaps summed one by one from the first (None until it is drawn),
        # which is not the same float as the thinning clock.
        self._arrival_clock = 0.0
        self._next_arrival: Optional[float] = None

    def next_arrival_gap(self) -> float:
        """Inter-arrival time to the next connection."""
        if self.rate_profile is None:
            return self._rng.expovariate(self.arrival_rate)
        # Lewis-Shedler thinning: propose at the envelope rate
        # base * peak, accept with factor(t)/peak.  Signature stays
        # zero-argument; the internal clock tracks absolute time.
        profile = self.rate_profile
        envelope = self.arrival_rate * profile.peak
        rng = self._rng
        start = self._arrival_clock
        t = start
        while True:
            t += rng.expovariate(envelope)
            if rng.random() * profile.peak <= profile.factor(t):
                self._arrival_clock = t
                return t - start

    def arrivals_before(self, until: float) -> List[Flow]:
        """The flows arriving before ``until`` that no earlier call
        returned, in arrival order.  The arrival that ends a window has
        its gap drawn and nothing else; its flow is made by the call whose
        ``until`` passes it."""
        if self._next_arrival is None:
            self._next_arrival = self.next_arrival_gap()
        flows = []
        while self._next_arrival < until:
            flows.append(self.make_flow(self._next_arrival))
            self._next_arrival += self.next_arrival_gap()
        return flows

    def make_flow(self, now: float) -> Flow:
        """Materialize the connection arriving at time ``now``.

        ``packet_times`` holds the whole per-flow packet schedule: the
        first packet at ``now``, the rest uniform in ``(now, now + d)``.
        """
        self._key_state = splitmix64(self._key_state)
        size = max(1, int(self.size_dist.sample(self._rng)))
        duration = max(1e-6, self.duration_dist.sample(self._rng))
        flow = Flow(self._next_id, self._key_state, now, duration, size)
        self._next_id += 1
        rng = self._rng
        if size == 1:
            flow.packet_times = [now]
        else:
            rest = [now + rng.random() * duration for _ in range(size - 1)]
            rest.sort()
            flow.packet_times = [now] + rest
        return flow

    @property
    def flows_created(self) -> int:
        return self._next_id
