"""Synthetic Zipf traces -- Section 5.3.

The paper evaluates over Zipf traces "with a skew varying from 0.6 (e.g.,
internet traffic) and up to 1.4 (highly skewed)", 100M packets each.  We
generate them the standard way (Breslau et al.): flow *popularities*
follow a Zipf law with exponent ``skew`` over a fixed flow population, and
each packet independently samples a flow from that law -- heavier skews
concentrate packets on fewer flows, shrinking the distinct-flow count
exactly as the paper observes ("as the skew grows, the number of distinct
flows drops").

Flows that receive zero packets are dropped from the population, so
``n_flows`` of the resulting trace is the number of *distinct* flows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hashing.mix import splitmix64
from repro.traces.base import Trace
from repro.traces.io import TraceWriter

#: The skews of Fig. 6b / Fig. 7.
PAPER_SKEWS = (0.6, 0.8, 1.0, 1.2, 1.4)


def _unique_keys(count: int, seed: int, start: int = 0) -> np.ndarray:
    """Deterministic distinct 64-bit keys (splitmix64 stream is a bijection
    of the counter, hence collision-free).

    ``start`` selects a window into the stream: ``_unique_keys(n, s)``
    equals the concatenation of ``_unique_keys(c_i, s, start=o_i)`` over
    any chunking -- what lets the streaming generator emit the same key
    population piecewise.
    """
    state = np.uint64(splitmix64(seed))
    # Vectorized splitmix64 over a counter range.
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x = (counters * np.uint64(0x9E3779B97F4A7C15)) + state
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


#: A draw ``u`` lies in coarse bucket ``int(u * 2**b)`` -- exact, since the
#: scale is a power of two -- and the CDF cut points of the bucket's two
#: ends bound its answer.  ``b`` is at most 18: 2**18 + 1 cut points are
#: 2 MiB, so the table stays cache-resident while the CDF itself may not;
#: fewer draws than that get a table no longer than their count.
_COARSE_BITS = 18
#: Draws taken from ``rng.random`` per block: the stream is the same however
#: it is split, so a block bounds the scratch, not the result.
_BLOCK = 1 << 14
#: ``Generator.choice``'s tolerance on the probabilities' sum.
_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _cut_points(cdf: np.ndarray, side: str, draws: int) -> np.ndarray:
    """``cdf.searchsorted(j / 2**b, side)`` for the 2**b + 1 bucket edges,
    with 2**b the smallest power of two not below ``draws``, capped at
    2**_COARSE_BITS (so the table never costs more than the draws it
    serves)."""
    buckets = 1 << min(_COARSE_BITS, (draws - 1).bit_length())
    edges = np.arange(buckets + 1, dtype=np.float64)
    edges *= 1.0 / buckets
    return cdf.searchsorted(edges, side)


def _inverse_cdf(
    cdf: np.ndarray, rng: np.random.Generator, out: np.ndarray, side: str,
    cuts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fill ``out`` with ``cdf.searchsorted(rng.random(len(out)), side)``.

    Draw for draw the same integers: searchsorted is monotone in ``u``, so
    a draw in bucket ``j`` has its answer in ``[cuts[j], cuts[j + 1]]``,
    and only the draws whose interval is not a single point are searched
    -- by a vectorized bisection that adds halving steps to ``cuts[j]``
    while ``cdf`` at the probe is still below ``u`` (a probe past the end
    reads ``cdf[-1] == 1.0``, which no draw reaches).  ``cuts`` (from
    :func:`_cut_points` with the same ``side``) may be passed to reuse one
    table across calls; its length sets the bucket scale.
    """
    if cuts is None:
        cuts = _cut_points(cdf, side, len(out))
    below = np.less_equal if side == "right" else np.less
    last = len(cdf) - 1
    scale = float(len(cuts) - 1)
    for start in range(0, len(out), _BLOCK):
        u = rng.random(min(_BLOCK, len(out) - start))
        bucket = (u * scale).astype(np.intp)
        lo = cuts[bucket]
        bucket += 1
        hi = cuts[bucket]
        pending = np.flatnonzero(lo < hi)
        if len(pending):
            # base is the last index known to sit below the draw (the
            # lower cut point minus one to start); it takes a step when the
            # CDF there is still below, and base + 1 is the answer.
            base, value = lo[pending], u[pending]
            step = 1 << (int((hi[pending] - base).max()).bit_length() - 1)
            base -= 1
            while step:
                probe = base + step
                np.minimum(probe, last, out=probe)
                base += below(cdf[probe], value) * step
                step >>= 1
            base += 1
            lo[pending] = base
        out[start:start + len(lo)] = lo
    return out


def zipf_trace(
    skew: float,
    n_packets: int = 1_000_000,
    population: int = 200_000,
    seed: int = 0,
) -> Trace:
    """Generate a Zipf packet trace.

    ``population`` is the size of the underlying flow universe; the trace's
    distinct flow count is whatever the sampling touches (decreasing in
    ``skew``).  The paper's full-scale traces use 100M packets; defaults are
    scaled for laptop runs and can be raised to paper scale.

    The draws are bit for bit those of ``Generator.choice`` with these
    probabilities: the CDF is built in place with the operations choice
    uses and searched by :func:`_inverse_cdf` on the same ``rng.random``
    stream.  Compaction to the touched flows counts instead of sorting,
    and gives the sorted-unique inverse indices.
    """
    if skew < 0:
        raise ValueError("skew must be non-negative")
    if n_packets < 1 or population < 1:
        raise ValueError("n_packets and population must be positive")
    rng = np.random.default_rng(splitmix64(seed ^ 0x21F0_AAAD) & 0x7FFF_FFFF)
    cdf = np.arange(1, population + 1, dtype=np.float64)
    cdf **= -skew
    cdf /= cdf.sum()
    if not (cdf.min() >= 0 and abs(cdf.sum() - 1.0) <= _ATOL):
        raise ValueError("probabilities must be non-negative and sum to 1")
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    packets = _inverse_cdf(cdf, rng, np.empty(n_packets, np.int64), "right")
    del cdf

    # Compact to distinct flows only: a flow's new index is its rank among
    # the flows that drew a packet.
    remap = np.bincount(packets)
    distinct = np.flatnonzero(remap)
    remap[distinct] = np.arange(len(distinct))
    np.take(remap, packets, out=packets, mode="clip")
    keys = _unique_keys(len(distinct), seed=splitmix64(seed ^ 0x51AF_E234))
    return Trace(
        name=f"zipf(skew={skew}, packets={n_packets})",
        flow_keys=keys,
        packets=packets,
    )


def zipf_trace_stream(
    path,
    skew: float,
    n_packets: int,
    population: int,
    seed: int = 0,
    chunk: int = 1 << 20,
):
    """Generate a Zipf trace of arbitrary size straight to disk.

    Never holds more than one ``chunk`` of packets in memory, so traces
    far larger than RAM can be produced; the output is an uncompressed
    npz (via :class:`~repro.traces.io.TraceWriter`) ready for
    ``load_trace(path, mmap=True)``.  Returns the final path.

    Two deliberate differences from :func:`zipf_trace`: zero-packet flows
    are *kept* (``n_flows == population`` -- compacting would need the
    full draw history), and packets are drawn per block from a
    precomputed CDF with a block-derived seed, so the trace is a
    deterministic function of ``(skew, n_packets, population, seed,
    chunk)``.  Zero-packet flows never dispatch, so replay metrics are
    unaffected by keeping them.
    """
    if skew < 0:
        raise ValueError("skew must be non-negative")
    if n_packets < 1 or population < 1:
        raise ValueError("n_packets and population must be positive")
    if chunk < 1:
        raise ValueError("chunk must be positive")
    ranks = np.arange(1, population + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    name = f"zipf-stream(skew={skew}, packets={n_packets})"
    key_seed = splitmix64(seed ^ 0x51AF_E234)
    draws = np.empty(min(chunk, n_packets), np.int64)
    cuts = _cut_points(cdf, "left", len(draws))
    with TraceWriter(path, name, n_flows=population, n_packets=n_packets) as writer:
        for start in range(0, population, chunk):
            count = min(chunk, population - start)
            writer.write_flow_keys(_unique_keys(count, seed=key_seed, start=start))
        for block, start in enumerate(range(0, n_packets, chunk)):
            count = min(chunk, n_packets - start)
            rng = np.random.default_rng(
                splitmix64(seed ^ 0x21F0_AAAD ^ (block + 1)) & 0x7FFF_FFFF
            )
            writer.write_packets(
                _inverse_cdf(cdf, rng, draws[:count], "left", cuts)
            )
    return writer._final
