"""Measurement aggregation and balance analysis."""

from repro.analysis.stats import MeanStd, aggregate, loglog_histogram
from repro.analysis.balance import max_oversubscription
from repro.analysis.model import (
    CTOccupancyModel,
    memory_saving_factor,
    tracked_fraction_band,
    tracking_probability,
)

__all__ = [
    "MeanStd",
    "aggregate",
    "loglog_histogram",
    "max_oversubscription",
    "CTOccupancyModel",
    "memory_saving_factor",
    "tracked_fraction_band",
    "tracking_probability",
]
