"""Pure helpers of the benchmark: percentiles, ratios, names and output.

Nothing here imports the simulator, so the helpers can be tested (and the
result line validated) without building a cluster.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Iterable, Optional, Sequence, Tuple

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: Candidate tail percentiles, highest first.
PERCENTILES = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)

#: A tail percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10


def check_name(name: str) -> str:
    """Return ``name`` if it matches the metric-name pattern, else raise."""
    if not isinstance(name, str) or NAME_RE.fullmatch(name) is None:
        raise ValueError(f"bad metric name: {name!r}")
    return name


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of already sorted samples."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q`` rank."""
    return n - max(1, math.ceil(q * n))


def tail_percentile(samples: Iterable[float], want: float = 0.99,
                    min_beyond: int = MIN_BEYOND) -> Tuple[float, float]:
    """(q, value): the highest percentile <= ``want`` with enough samples
    beyond it.  Short samples fall back to lower percentiles, down to the
    median, which is returned even when fewer than ``min_beyond`` samples
    lie above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    candidates = [q for q in PERCENTILES if q <= want]
    for q in candidates:
        if samples_beyond(n, q) >= min_beyond:
            return q, nearest_rank(ordered, q)
    return 0.5, nearest_rank(ordered, 0.5)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def failure_ratio(failed: int, attempted: int) -> float:
    """Failed ÷ attempted; the base must be at least one attempted op."""
    if attempted < 1:
        raise ValueError("failure ratio needs at least one attempted op")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def ratio(num: float, den: float) -> float:
    """num ÷ den, 0 when the base is empty (per-layer ratios only)."""
    return num / den if den else 0.0


class Metric:
    """One reported number with its unit and an optional note (the base of
    a ratio, the percentile used, the sample count)."""

    __slots__ = ("name", "value", "unit", "note")

    def __init__(self, name: str, value: float, unit: str, note: str = ""):
        self.name = check_name(name)
        self.value = value
        self.unit = unit
        self.note = note

    def line(self) -> str:
        note = f"  ({self.note})" if self.note else ""
        return f"{self.name:28s} {self.value:>16.6g} {self.unit}{note}"


def result_json(correct: bool, attempted: int, failed: int,
                metrics: Iterable[Metric],
                only: Optional[Sequence[str]] = None) -> str:
    """The one-line JSON result.  ``only`` restricts and orders the metrics
    (every name in it must be present)."""
    by_name: Dict[str, Metric] = {}
    for metric in metrics:
        if metric.name in by_name:
            raise ValueError(f"duplicate metric {metric.name}")
        by_name[metric.name] = metric
    names = list(only) if only is not None else list(by_name)
    missing = [n for n in names if n not in by_name]
    if missing:
        raise ValueError(f"metrics not measured: {missing}")
    if int(attempted) < 1 or not 0 <= int(failed) <= int(attempted):
        raise ValueError(f"bad counts attempted={attempted} failed={failed}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            n: {"value": float(by_name[n].value), "unit": by_name[n].unit}
            for n in names
        },
    })
