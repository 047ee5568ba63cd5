"""Measurement and reporting utilities."""

from .report import banner, format_series, format_table, metric_tables
from .stats import LatencyRecorder

__all__ = [
    "LatencyRecorder",
    "banner",
    "format_series",
    "format_table",
    "metric_tables",
]
