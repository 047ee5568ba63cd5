"""Measurement and reporting utilities."""

from .report import banner, format_series, format_table
from .stats import Counter, LatencyRecorder

__all__ = [
    "Counter",
    "LatencyRecorder",
    "banner",
    "format_series",
    "format_table",
]
