"""The workload generator's draws: block uniforms, the array path, the spec.

Three contracts:

(a) ``uniforms(rng, n)`` is ``n`` calls of ``rng.random()``, values and
    state alike -- a change in how CPython lays out ``getrandbits`` words
    fails here, not in a digest;
(b) the array path (flat rate, fixed-width draws) and the spec (one
    ``random()`` at a time) both draw exactly what the generator drew one
    arrival at a time before either existed -- :func:`todays_draws`, a
    frozen copy of that generator over a plain ``random.Random``;
(c) a simulation never imports ``numpy.random`` (its import alone costs
    ~6 MiB of resident memory).
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.hashing.mix import splitmix64
from repro.sim.distributions import (
    BoundedPareto,
    Constant,
    Exponential,
    Mixture,
    dist_from_dict,
    expovariate,
)
from repro.sim.workload import BLOCK, RateProfile, WorkloadGenerator, _whole_sizes, uniforms


# ------------------------------------------------------ (a) block uniforms
class TestBlockUniforms:
    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 3, 2**200 - 1])
    @pytest.mark.parametrize("skip", [0, 1, 1001])
    def test_a_block_is_that_many_random_calls(self, seed, skip):
        block, calls = random.Random(seed), random.Random(seed)
        for _ in range(skip):  # a start in the middle of the stream
            block.random(), calls.random()
        for n in (0, 1, 2, 3, 63, 64, 65, 1000, 4097, 65_536):
            values = uniforms(block, n)
            assert values.dtype == np.float64 and values.shape == (n,)
            assert values.tolist() == [calls.random() for _ in range(n)]
            assert block.getstate() == calls.getstate()

    @pytest.mark.parametrize("lambd", [0.3, 200.0, 1 / 3.0])
    def test_expovariate_of_a_block_is_random_expovariate(self, lambd):
        # numpy's log misses libm's on ~0.35 % of these inputs (AVX-512);
        # a sum of gaps mostly rounds that away, so it is checked here.
        block, calls = random.Random(8), random.Random(8)
        drawn = expovariate(uniforms(block, 50_000), lambd)
        assert drawn.tolist() == [calls.expovariate(lambd) for _ in range(50_000)]

    def test_an_empty_block_leaves_the_stream_alone(self):
        rng = random.Random(3)
        state = rng.getstate()
        assert uniforms(rng, 0).shape == (0,)
        assert rng.getstate() == state


# ------------------------------------------------- (b) the frozen reference
def todays_draws(arrival_rate, size, duration, seed, profile, until):
    """The flows arriving before ``until`` as the generator drew them one
    arrival at a time: ``(flow_id, key, start, duration, size,
    packet_times)`` each.  ``size`` / ``duration`` are frozen samplers
    ``rng -> value``; nothing here calls into ``repro.sim``."""
    rng = random.Random(splitmix64(seed ^ 0x7157_9A7C))
    key = splitmix64(seed ^ 0x5DEE_CE66)
    clock = 0.0

    def gap():
        nonlocal clock
        if profile is None:
            return rng.expovariate(arrival_rate)
        envelope = arrival_rate * profile.peak
        start = t = clock
        while True:
            t += rng.expovariate(envelope)
            if rng.random() * profile.peak <= profile.factor(t):
                clock = t
                return t - start

    flows, now = [], gap()
    while now < until:
        key = splitmix64(key)
        count = max(1, int(size(rng)))
        lasting = max(1e-6, duration(rng))
        rest = [now + rng.random() * lasting for _ in range(count - 1)]
        rest.sort()
        flows.append((len(flows), key, now, lasting, count, [now] + rest))
        now += gap()
    return flows


def described(windows):
    """Windows of :class:`Arrivals` as :func:`todays_draws` tuples."""
    flows = []
    for window in windows:
        times = window.times.tolist()
        offsets = window.offsets.tolist()
        for i, flow in enumerate(window.flows()):
            flows.append((
                flow.flow_id, flow.key, flow.start, flow.duration, flow.size,
                times[offsets[i] : offsets[i + 1]],
            ))
    return flows


# Distribution tables with the frozen samplers of the draws they stand for.
def _constant(value):
    return {"kind": "constant", "value": value}, lambda rng: value


def _exponential(mean):
    return {"kind": "exponential", "mean": mean}, lambda rng: rng.expovariate(1.0 / mean)


def _pareto(alpha, lo, hi):
    def sample(rng):
        u = rng.random()
        x = (lo**alpha) / (1 - u * (1 - (lo / hi) ** alpha))
        return x ** (1 / alpha)

    return {"kind": "bounded_pareto", "alpha": alpha, "minimum": lo, "maximum": hi}, sample


def _lognormal(median, sigma):
    mu = math.log(median)
    table = {"kind": "lognormal", "median": median, "sigma": sigma}
    return table, lambda rng: rng.lognormvariate(mu, sigma)


def _mixture(parts):
    total = sum(weight for weight, _ in parts)
    thresholds, cumulative = [], 0.0
    for weight, _ in parts:
        cumulative += weight / total
        thresholds.append(cumulative)
    samplers = [sampler for _, (_, sampler) in parts]

    def sample(rng):
        u = rng.random()
        for threshold, sampler in zip(thresholds, samplers):
            if u <= threshold:
                return sampler(rng)
        return samplers[-1](rng)

    table = {"kind": "mixture", "components": [[w, t] for w, (t, _) in parts]}
    return table, sample


def _positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


CONSTANTS = st.one_of(st.integers(1, 12), _positive(0.2, 12.0)).map(_constant)
EXPONENTIALS = _positive(0.05, 8.0).map(_exponential)
PARETOS = st.builds(
    lambda alpha, lo, span: _pareto(alpha, lo, lo + span),
    _positive(0.4, 3.0), st.one_of(st.integers(1, 4), _positive(0.5, 4.0)), _positive(0.5, 60.0),
)
LOGNORMALS = st.builds(_lognormal, _positive(0.2, 6.0), _positive(0.1, 1.2))
WEIGHTS = st.one_of(st.integers(0, 5), _positive(0.0, 3.0))


def _mixtures(parts):
    return (
        st.lists(st.tuples(WEIGHTS, parts), min_size=1, max_size=4)
        .filter(lambda drawn: sum(weight for weight, _ in drawn) > 0)
        .map(_mixture)
    )


#: Width 1 each, so an equal-width mixture of them has width 2.
WIDTH_ONE = st.one_of(EXPONENTIALS, PARETOS)
DISTRIBUTIONS = st.one_of(
    CONSTANTS,
    EXPONENTIALS,
    PARETOS,
    _mixtures(WIDTH_ONE),                                  # equal widths
    _mixtures(st.one_of(CONSTANTS, WIDTH_ONE)),            # mostly unequal
    LOGNORMALS,                                            # no fixed width
)
PROFILES = {
    "flat": lambda: None,
    "flash_crowd": lambda: RateProfile.flash_crowd(start=1.0, ramp_s=1.5, magnitude=3.0, hold_s=1.0),
    "diurnal": lambda: RateProfile.diurnal(period_s=3.0, amplitude=0.7),
}


#: (rate, until, size, duration): ``bench/scenarios/sim-churn.json`` and
#: the hadoop mixtures behind Figs. 3-6.
SHAPES = {
    "sim-churn": lambda: (200.0, 60.0, _pareto(1.5, 1, 40), _exponential(3.0)),
    "hadoop": lambda: (
        100.0, 30.0,
        _mixture([(0.50, _pareto(1.5, 1, 10)), (0.35, _pareto(1.2, 5, 200)),
                  (0.13, _pareto(1.1, 50, 2_000)), (0.02, _pareto(1.05, 500, 20_000))]),
        _mixture([(0.60, _exponential(5.0)), (0.30, _exponential(30.0)),
                  (0.10, _exponential(80.0))]),
    ),
}


def generator(rate, size, duration, seed, profile):
    return WorkloadGenerator(
        rate, dist_from_dict(size), dist_from_dict(duration), seed=seed,
        rate_profile=PROFILES[profile](),
    )


class TestArrayPathIsTheSpec:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        size=DISTRIBUTIONS,
        duration=DISTRIBUTIONS,
        profile=st.sampled_from(sorted(PROFILES)),
        seed=st.integers(0, 2**64 - 1),
        rate=_positive(5.0, 300.0),
        until=_positive(0.5, 6.0),
        cuts=st.lists(_positive(0.0, 6.0), max_size=12),
    )
    def test_both_paths_draw_todays_flows(self, size, duration, profile, seed, rate, until, cuts):
        (size_table, size_sampler), (duration_table, duration_sampler) = size, duration
        expected = todays_draws(
            rate, size_sampler, duration_sampler, seed, PROFILES[profile](), until
        )
        cuts = sorted(cut for cut in cuts if cut < until) + [until]
        for spec in (False, True):
            drawn = generator(rate, size_table, duration_table, seed, profile)
            if spec:
                drawn._widths = None  # the call-by-call spec, whatever the widths
            windows = [drawn.arrivals_before(cut) for cut in cuts]
            assert described(windows) == expected
            assert drawn.flows_created == len(expected)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_the_bench_and_paper_shapes_over_many_blocks(self, shape):
        rate, until, (size_table, size), (duration_table, duration) = SHAPES[shape]()
        expected = todays_draws(rate, size, duration, 11, None, until)
        cuts = sorted(random.Random(4).uniform(0.0, until) for _ in range(150)) + [until]
        drawn = generator(rate, size_table, duration_table, 11, "flat")
        assert drawn._widths is not None
        assert described([drawn.arrivals_before(cut) for cut in cuts]) == expected
        assert sum(flow[4] + 2 for flow in expected) > 2 * BLOCK  # uniforms drawn

    def test_the_first_arrivals_of_many_seeds(self):
        # An early start is a sum of a few gaps, where an ulp of one gap
        # still shows; later in a run the sum rounds it away.
        (size_table, size), (duration_table, duration) = _constant(1), _constant(1.0)
        for seed in range(500):
            expected = todays_draws(400.0, size, duration, seed, None, 0.03)
            drawn = generator(400.0, size_table, duration_table, seed, "flat")
            assert described([drawn.arrivals_before(0.03)]) == expected, seed

    def test_the_sweep_takes_the_array_path(self):
        # Flat rate and fixed widths are what the fast path needs; the
        # sim-churn and hadoop shapes have them, lognormal does not.
        for size, duration, fast in (
            (_pareto(1.5, 1, 40), _exponential(3.0), True),
            (_mixture([(1, _pareto(1.5, 1, 10)), (1, _pareto(1.2, 5, 200))]),
             _mixture([(2, _exponential(5.0)), (1, _exponential(30.0))]), True),
            (_constant(3), _constant(1.0), True),
            (_mixture([(1, _constant(2)), (1, _exponential(2.0))]), _constant(1.0), False),
            (_pareto(1.5, 1, 40), _lognormal(2.0, 0.5), False),
        ):
            assert (generator(50.0, size[0], duration[0], 1, "flat")._widths is not None) is fast
            assert generator(50.0, size[0], duration[0], 1, "diurnal")._widths is None

    def test_a_flow_longer_than_a_block_is_drawn_whole(self):
        size, duration = _constant(40_000), _exponential(2.0)
        expected = todays_draws(3.0, size[1], duration[1], 5, None, 2.0)
        assert len(expected) >= 2
        drawn = generator(3.0, size[0], duration[0], 5, "flat")
        assert described([drawn.arrivals_before(2.0)]) == expected


def _replay(values):
    """A ``random.Random`` whose ``random()`` returns ``values`` in order."""

    class Replay(random.Random):
        def random(self):
            return next(stream)

    stream = iter(values)
    return Replay(0)


def _next_to(k, inverse):
    """Uniforms on the 2**-53 grid whose draw lands within a few ulps of
    the integer ``k`` (``inverse`` maps a value to the uniform giving it)."""
    centre = round(inverse(k) * 2.0**53)
    return [(centre + step) / 2.0**53 for step in range(-3, 4) if 0 <= centre + step < 2**53]


class TestSizesNextToAnInteger:
    """numpy's ``log`` / ``**`` may miss libm's by an ulp, which can move
    ``int(size)`` across an integer: such sizes are drawn again exactly."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 5000), mean=_positive(0.5, 800.0))
    def test_exponential(self, k, mean):
        dist = Exponential(mean)
        self.check(dist, _next_to(k, lambda x: 1.0 - math.exp(-x / mean)))

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 400), alpha=_positive(0.3, 3.0), lo=st.integers(1, 2))
    def test_bounded_pareto(self, k, alpha, lo):
        hi = 500.0
        dist = BoundedPareto(alpha, lo, hi)
        # x^(1/a) = k  <=>  u = (1 - (lo/k)^a) / (1 - (lo/hi)^a)
        self.check(dist, _next_to(k, lambda x: (1 - (lo / x) ** alpha) / (1 - (lo / hi) ** alpha)))

    @staticmethod
    def check(dist, column):
        column = [u for u in column if 0.0 <= u < 1.0]
        rows = np.array(column).reshape(-1, 1)
        mixed = Mixture([(1.0, dist), (0.0, Exponential(1.0))])
        for drawn, rows_of in ((dist, rows), (mixed, np.hstack([np.zeros_like(rows), rows]))):
            expected = [max(1, int(drawn.sample(_replay(row)))) for row in rows_of.tolist()]
            assert _whole_sizes(drawn, rows_of).tolist() == expected

    def test_the_recheck_runs(self, monkeypatch):
        calls = []
        block = Exponential.sample_block

        def spy(self, u, exact=True):
            calls.append((len(u), exact))
            return block(self, u, exact)

        monkeypatch.setattr(Exponential, "sample_block", spy)
        rows = np.array(_next_to(7, lambda x: 1.0 - math.exp(-x / 2.0))).reshape(-1, 1)
        _whole_sizes(Exponential(2.0), rows)
        assert calls[0] == (len(rows), False) and calls[1][1] is True


class TestMixtureEdges:
    """Where a uniform lands exactly on a threshold, or past the last one
    (seven equal weights sum to 0.9999999999999998): both almost never
    come out of a stream, so the rows are written here."""

    @pytest.mark.parametrize("weights", [[1] * 7, [3, 3, 3, 1], [0, 2, 0, 1]])
    def test_thresholds_and_the_rounded_last_one(self, weights):
        mixture = Mixture([(w, Constant(i + 1)) for i, w in enumerate(weights)])
        edges = [0.0, 1.0 - 2.0**-53] + [
            math.nextafter(t, to) for t in mixture._weights for to in (0.0, t, 1.0)
        ]
        rows = np.array([[u] for u in edges if 0.0 <= u < 1.0])
        expected = [mixture.sample(_replay(row)) for row in rows.tolist()]
        assert mixture.sample_block(rows).tolist() == expected


# ------------------------------------------------------ (c) numpy.random
def test_a_simulation_leaves_numpy_random_unimported():
    script = (
        "import sys\n"
        "from repro.sim import SimulationConfig, run_simulation\n"
        "from repro.sim.workload import RateProfile\n"
        "config = SimulationConfig(duration_s=3.0, connection_rate=200.0, n_servers=10,"
        " horizon_size=2, ch_family='table', update_rate_per_min=20.0)\n"
        "run_simulation(config)\n"
        "run_simulation(config.with_(rate_profile=RateProfile.diurnal(2.0), ct_capacity=50))\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env
    )
    assert done.returncode == 0, done.stderr
