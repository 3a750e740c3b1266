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
flow arriving before that event, as arrays (:class:`Arrivals`).  The
draws are the ``random.Random`` calls of one arrival at a time, in the
same order -- per flow its size, its duration, its ``size - 1`` packet
offsets, then the gap to the next arrival -- so a flow's key, size,
duration and packet times depend neither on how the run is cut into
windows nor on how they are computed:

- the spec draws them call by call (a rate profile's thinning, and sizes
  or durations whose number of draws varies, take it);
- a flat rate with fixed-width draws (:attr:`Distribution.width`) takes
  blocks of ``getrandbits``, which yield the 32-bit words that as many
  ``random()`` calls consume, and builds the same doubles in numpy.  A
  candidate size at every position of the block fixes where each flow's
  draws start; one integer walk chains the flows; durations, gaps and
  packet times are gathered by index.  ``log`` and ``**`` go through libm
  wherever their result is kept as a float, since numpy's differ in the
  last bit (``distributions`` module docstring).

That path looks at most one block of uniforms (a few thousand flows)
ahead, so the whole run is still never drawn at once.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, List, Mapping, Optional, Sequence

import numpy as np

from repro.hashing.mix import splitmix64
from repro.sim.distributions import Distribution, check_finite, expovariate

#: Uniforms per block of the array path.
BLOCK = 1 << 13


def uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` values of ``rng.random()``, from one ``getrandbits``
    call (which leaves ``rng`` in the same state as those ``n`` calls).

    ``random()`` is ``(a >> 5, b >> 6)`` of two successive 32-bit words,
    joined into 53 bits; ``getrandbits(64 n)`` lays out the same words,
    least significant first.
    """
    if n == 0:
        return np.empty(0)
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


class RateProfile:
    """A time-varying arrival-rate multiplier ``factor(t) in (0, peak]``.

    ``peak`` must upper-bound ``factor`` over the run: thinning draws
    candidate arrivals at ``base_rate * peak`` and accepts each with
    probability ``factor(t) / peak``.
    """

    def __init__(self, factor: Callable[[float], float], peak: float):
        check_finite("peak", peak)  # a NaN compares false: thinning would never accept
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
        for name, value in (("start", start), ("ramp_s", ramp_s), ("magnitude", magnitude),
                            ("hold_s", hold_s)):
            check_finite(name, value)
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
        check_finite("period_s", period_s)
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
    """One simulated connection, as the engine's per-packet spec keeps it."""

    __slots__ = (
        "flow_id",
        "key",
        "start",
        "duration",
        "size",
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
        self.true_destination = None
        self.broken = False       # PCC violated (or inevitably broken)
        self.inevitable = False   # destination server was removed


class Arrivals:
    """Flows in arrival order, as arrays indexed by flow.

    Flow ``i`` is flow number ``first + i``; its packet times are
    ``times[offsets[i]:offsets[i + 1]]`` (``size[i]`` of them): its start,
    then the others ascending, within ``[start, start + duration]``.  ``key``
    is empty until the flows are handed out.
    """

    __slots__ = ("first", "start", "size", "duration", "times", "key", "offsets")

    def __init__(self, first: int, start, size, duration, times, key=()):
        self.first = first
        self.start = np.asarray(start, dtype=np.float64)
        self.size = np.asarray(size, dtype=np.int64)
        self.duration = np.asarray(duration, dtype=np.float64)
        self.times = np.asarray(times, dtype=np.float64)
        self.key = np.asarray(key, dtype=np.uint64)
        self.offsets = np.zeros(len(self.size) + 1, np.int64)
        np.cumsum(self.size, out=self.offsets[1:])

    def __len__(self) -> int:
        return len(self.start)

    def split(self, k: int):
        """The first ``k`` flows and the rest."""
        cut = int(self.offsets[k])
        return (
            Arrivals(self.first, self.start[:k], self.size[:k], self.duration[:k],
                     self.times[:cut], self.key[:k]),
            Arrivals(self.first + k, self.start[k:], self.size[k:], self.duration[k:],
                     self.times[cut:], self.key[k:]),
        )

    @staticmethod
    def join(parts: Sequence["Arrivals"]) -> "Arrivals":
        """Consecutive windows as one."""
        if len(parts) == 1:
            return parts[0]
        return Arrivals(
            parts[0].first,
            *(np.concatenate([getattr(part, name) for part in parts])
              for name in ("start", "size", "duration", "times", "key")),
        )

    def before(self, until: float):
        """:meth:`split` at the first flow starting at or after ``until``."""
        return self.split(int(np.searchsorted(self.start, until)))

    def flows(self) -> List[Flow]:
        return [
            Flow(self.first + i, key, start, duration, size)
            for i, (key, start, duration, size) in enumerate(zip(
                self.key.tolist(), self.start.tolist(),
                self.duration.tolist(), self.size.tolist(),
            ))
        ]


def _whole_sizes(dist: Distribution, rows: np.ndarray) -> np.ndarray:
    """``max(1, int(dist.sample()))`` for each row of uniforms.  numpy's
    ``log`` / ``**`` may miss libm's by an ulp, which moves ``int`` only
    next to an integer; those values are drawn again through libm."""
    value = dist.sample_block(rows, exact=False)
    near = np.abs(value - np.rint(value)) <= 1e-9 * np.maximum(value, 1.0)
    if near.any():
        value[near] = dist.sample_block(rows[near], exact=True)
    return np.maximum(value.astype(np.int64), 1)


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
        check_finite("arrival_rate", arrival_rate)
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        self.arrival_rate = arrival_rate
        self.size_dist = size_dist
        self.duration_dist = duration_dist
        self.rate_profile = rate_profile
        self._rng = random.Random(splitmix64(seed ^ 0x7157_9A7C))
        self._key_state = splitmix64(seed ^ 0x5DEE_CE66)
        # The array path's draw widths (size, duration), or None: the spec.
        widths = (size_dist.width, duration_dist.width)
        self._widths = widths if rate_profile is None and None not in widths else None
        # Drawn, not yet handed out; and, on the array path, the uniforms
        # drawn past the last whole flow.
        self._ahead = Arrivals(0, (), (), (), ())
        self._rest = np.empty(0)
        # Two clocks, both the generator's own.  Thinning proposes on
        # ``_arrival_clock`` (absolute, so ``factor(t)`` sees real time)
        # and hands back relative gaps; the arrival instants are those
        # gaps summed one by one from the first, which is not the same
        # float as the thinning clock.  ``_next_arrival`` is the start of
        # the first flow not drawn yet.
        self._arrival_clock = 0.0
        self._next_arrival = self._gap()

    def _gap(self) -> float:
        """Inter-arrival time to the next connection."""
        if self.rate_profile is None:
            return self._rng.expovariate(self.arrival_rate)
        # Lewis-Shedler thinning: propose at the envelope rate
        # base * peak, accept with factor(t)/peak.  The internal clock
        # tracks absolute time.
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

    def arrivals_before(self, until: float) -> Arrivals:
        """The flows arriving before ``until`` that no earlier call
        returned, in arrival order."""
        draw = self._draw_spec if self._widths is None else self._block
        parts = [self._ahead]
        while self._next_arrival < until:
            parts.append(draw(parts[-1].first + len(parts[-1]), until))
        window, self._ahead = Arrivals.join(parts).before(until)
        keys, state = [], self._key_state
        for _ in range(len(window)):
            state = splitmix64(state)
            keys.append(state)
        self._key_state = state
        window.key = np.array(keys, dtype=np.uint64)
        return window

    @property
    def flows_created(self) -> int:
        """Flows handed out so far."""
        return self._ahead.first

    def _draw_spec(self, first: int, until: float) -> Arrivals:
        """The flows starting before ``until``, one ``random()`` at a time."""
        rng, sizes, durations = self._rng, self.size_dist, self.duration_dist
        start, size, duration, times = [], [], [], []
        while self._next_arrival < until:
            now = self._next_arrival
            count = max(1, int(sizes.sample(rng)))
            lasting = max(1e-6, durations.sample(rng))
            start.append(now)
            size.append(count)
            duration.append(lasting)
            times.append(now)
            times += sorted([now + rng.random() * lasting for _ in range(count - 1)])
            self._next_arrival += self._gap()
        return Arrivals(first, start, size, duration, times)

    def _block(self, first: int, until: float) -> Arrivals:
        """The flows whose draws lie whole in the uniforms left over plus
        one block (more, while not even one flow fits), whatever ``until``."""
        size_width, duration_width = self._widths
        head = size_width + duration_width  # draws before the packet offsets
        u, flows = self._rest, []
        while not flows:
            u = np.concatenate((u, uniforms(self._rng, max(BLOCK, len(u)))))
            # What a size draw starting at each position would give, then
            # the chain of positions where flows actually start: flow at p
            # takes head + (size - 1) + 1 uniforms, its gap last.
            rows = np.lib.stride_tricks.sliding_window_view(u, size_width)
            candidate = _whole_sizes(self.size_dist, rows)
            walk, end, total = candidate.tolist(), 0, len(u)
            try:
                while True:
                    after = end + head + walk[end]
                    if after > total:
                        break
                    flows.append(end)
                    end = after
            except IndexError:  # not even the size draw fits
                pass
        self._rest = u[end:]
        at = np.array(flows)
        size = candidate[at]
        duration = np.maximum(
            self.duration_dist.sample_block(
                u[(at + size_width)[:, None] + np.arange(duration_width)]
            ),
            1e-6,
        )
        # Each flow's gap to the next arrival, summed one by one.
        gaps = expovariate(u[at + head + size - 1], self.arrival_rate)
        start = np.cumsum(np.concatenate(([self._next_arrival], gaps)))
        self._next_arrival = float(start[-1])
        start = start[:-1]
        # Packet offsets: flow i's are u[at[i] + head : ... + size[i] - 1],
        # at start + u * duration, then sorted within the flow behind its
        # start.
        extra = size - 1
        owner = np.repeat(np.arange(len(at)), extra)
        rank = np.arange(len(owner)) - np.repeat(np.cumsum(extra) - extra, extra)
        later = start[owner] + u[at[owner] + head + rank] * duration[owner]
        times = np.empty(len(at) + len(later))
        behind = np.ones(len(times), bool)
        behind[np.cumsum(size) - size] = False
        times[~behind] = start
        # Sorted within each flow: by time, then stably by flow (a radix
        # sort where the flow numbers fit 16 bits).
        order = np.argsort(later)
        narrow = np.int16 if len(at) <= np.iinfo(np.int16).max else np.int64
        order = order[np.argsort(owner[order].astype(narrow), kind="stable")]
        times[behind] = later[order]
        return Arrivals(first, start, size, duration, times)
