"""Analytical models of JET's tracking economics.

Closes the loop between Section 4's probabilistic guarantees and the
measured simulations:

- **steady-state CT occupancy**: with Poisson arrivals at rate λ, mean
  flow duration E[D], and tracking probability p = |H|/(|W|+|H|)
  (Theorem 4.2), the active tracked population is an M/G/∞ queue thinned
  by p: ``E[CT] = p · λ · E[D]``.  Untracked-entry retention (entries
  for flows that ended but were not reclaimed) adds ``p · λ · t_retain``
  for a retention horizon ``t_retain`` (0 for ideal eviction, the TTL
  value for a TTL table, unbounded for no eviction).

- **CT sizing rule**: the table size needed for a target overflow
  probability, from the Gaussian approximation of the Poisson occupancy
  (mean m, std sqrt(m)): ``size = m + z · sqrt(m)``.

- **memory-saving factor** vs full CT: ``(1+γ)/γ`` (the Section 4.2
  corollary).

- **tracked-fraction band**: each of n flows is tracked with probability
  p (Theorem 4.2), so the tracked fraction is binomial with standard
  deviation ``sqrt(p(1-p)/n)``; the invariant check allows
  :data:`BAND_SIGMAS` of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def tracking_probability(n_working: int, n_horizon: int) -> float:
    """Theorem 4.2: P(track) = |H| / (|W| + |H|)."""
    if n_working < 0 or n_horizon < 0 or n_working + n_horizon == 0:
        raise ValueError("need non-negative sizes with a non-empty union")
    return n_horizon / (n_working + n_horizon)


#: Width of the tracked-fraction band in binomial standard deviations.
BAND_SIGMAS = 4.0


def tracked_fraction_band(n_flows: float, expected: float) -> float:
    """Half-width of the band the tracked fraction of ``n_flows`` flows,
    each tracked with mean probability ``expected``, lies in (Theorems
    4.2/4.3): ``BAND_SIGMAS * sqrt(p(1-p)/n)``.  When p differs between
    flows (a moving horizon), the true variance is at most this."""
    if n_flows <= 0 or not 0 < expected < 1:
        raise ValueError("need n_flows > 0 and an expectation in (0, 1)")
    return BAND_SIGMAS * math.sqrt(expected * (1 - expected) / n_flows)


def memory_saving_factor(gamma: float) -> float:
    """Section 4.2: full CT needs a table (1+γ)/γ times larger."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return (1 + gamma) / gamma


@dataclass
class CTOccupancyModel:
    """Expected CT occupancy for a Poisson flow workload under JET."""

    arrival_rate: float        # new connections per second (λ)
    mean_duration: float       # E[D], seconds
    n_working: int
    n_horizon: int
    retention: float = 0.0     # post-completion entry lifetime (seconds)

    def __post_init__(self):
        if self.arrival_rate <= 0 or self.mean_duration <= 0:
            raise ValueError("arrival_rate and mean_duration must be positive")
        if self.retention < 0:
            raise ValueError("retention must be non-negative")

    @property
    def track_probability(self) -> float:
        return tracking_probability(self.n_working, self.n_horizon)

    @property
    def active_connections(self) -> float:
        """Little's law: mean concurrent connections."""
        return self.arrival_rate * self.mean_duration

    @property
    def expected_tracked(self) -> float:
        """Mean CT occupancy: thinned active flows + retained dead entries."""
        live = self.track_probability * self.active_connections
        dead = self.track_probability * self.arrival_rate * self.retention
        return live + dead

    def table_size_for(self, overflow_probability: float = 1e-3) -> int:
        """CT size so occupancy exceeds it with at most the given
        probability (Gaussian tail of the Poisson occupancy)."""
        if not 0 < overflow_probability < 1:
            raise ValueError("overflow_probability must be in (0, 1)")
        mean = self.expected_tracked
        z = _inverse_normal_tail(overflow_probability)
        return math.ceil(mean + z * math.sqrt(max(mean, 1.0)))

    def full_ct_expected(self) -> float:
        """The same occupancy under full CT (track probability 1)."""
        return self.active_connections + self.arrival_rate * self.retention


def _inverse_normal_tail(p: float) -> float:
    """z with P(Z > z) = p for standard normal (Acklam-style rational
    approximation; adequate for sizing rules)."""
    # Inverse CDF at (1 - p) via the Beasley-Springer-Moro approximation.
    q = 1.0 - p
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if q < p_low:
        # q near 0: deep negative quantile (p near 1).
        u = math.sqrt(-2 * math.log(q))
        return (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1
        )
    if q > 1 - p_low:
        # q near 1: deep positive quantile (small tail probability p).
        u = math.sqrt(-2 * math.log(1 - q))
        return -(((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1
        )
    u = q - 0.5
    r = u * u
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * u / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
    )
