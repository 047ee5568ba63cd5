"""Table/series formatting for benchmark output.

Each benchmark regenerates a paper table or figure; these helpers print the
same rows/series the paper reports, side by side with the paper's numbers
where available.  :func:`metric_tables` prints flat counter and histogram
dicts (a cluster's ``counters()``, a tracer's ``histograms``) the same way.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence

__all__ = ["format_table", "format_series", "banner", "metric_tables"]


def banner(title: str) -> str:
    line = "=" * max(64, len(title) + 4)
    return f"\n{line}\n  {title}\n{line}"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    str_rows: List[List[str]] = [
        [_fmt(cell) for cell in row] for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(banner(title))
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def format_series(
    name: str,
    xs: Sequence,
    ys: Sequence,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    header = f"{name}  ({x_label} -> {y_label})"
    points = "  ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in zip(xs, ys))
    return f"{header}\n  {points}"


def metric_tables(counters: Mapping[str, float],
                  histograms: Optional[Mapping] = None) -> str:
    """Counter and histogram tables for flat ``{"scope.name": ...}`` dicts.

    ``histograms`` values are :class:`~repro.metrics.stats.LatencyRecorder`
    objects, such as a tracer's ``handle_s`` recorders.
    """
    parts = []
    if counters:
        parts.append(format_table(
            ["counter", "value"], sorted(counters.items()),
            title="repro metrics",
        ))
    if histograms:
        rows = []
        for name, hist in sorted(histograms.items()):
            stats = (hist.mean(), hist.percentile(0.95), hist.max())
            # Three significant digits: handle times are sub-millisecond
            # seconds, which format_table's fixed decimals print as 0.
            rows.append((name, hist.count, *(f"{v:.3g}" for v in stats)))
        parts.append(format_table(
            ["histogram", "n", "mean", "p95", "max"], rows,
        ))
    return "\n".join(parts) if parts else "(no metrics recorded)"


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)
