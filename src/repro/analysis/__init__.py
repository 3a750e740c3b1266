"""Measurement aggregation and balance analysis."""

from repro.analysis.stats import MeanStd, aggregate, geometric_mean, loglog_histogram
from repro.analysis.balance import (
    expected_balls_in_bins_max,
    expected_oversubscription,
    jains_fairness,
    max_oversubscription,
)
from repro.analysis.model import (
    CTOccupancyModel,
    memory_saving_factor,
    tracked_fraction_band,
    tracking_probability,
)

__all__ = [
    "MeanStd",
    "aggregate",
    "geometric_mean",
    "loglog_histogram",
    "max_oversubscription",
    "jains_fairness",
    "expected_balls_in_bins_max",
    "expected_oversubscription",
    "CTOccupancyModel",
    "memory_saving_factor",
    "tracked_fraction_band",
    "tracking_probability",
]
