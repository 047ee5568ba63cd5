"""Terminal dashboard: phase breakdowns, sparkline time-series, slow log.

Render a live cluster (the anatomy and handle-time tables need a tracer;
counters and time-series do not)::

    from repro.obs.dash import render_live
    print(render_live(cluster))

or exported telemetry from the command line::

    python -m repro.obs.dash out/telemetry/          # a bundle directory
    python -m repro.obs.dash out/anatomy.json        # one exported file
    python -m repro.obs.dash --demo                  # built-in traced run

The demo builds a small traced cluster, runs a scaled-down untar plus a
bulk dd write, and renders all of it: the critical-path anatomy tables,
the slow-request log, per-component gauge and counter-rate sparklines,
and the counter and handle-time tables.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

__all__ = ["sparkline", "render_timeseries", "render_anatomy",
           "render_live", "main"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 48) -> str:
    """Render a numeric series as a fixed-width unicode sparkline."""
    if not values:
        return ""
    if len(values) > width:
        # Bucket-average down to the target width.
        out = []
        n = len(values)
        for i in range(width):
            lo = i * n // width
            hi = max(lo + 1, (i + 1) * n // width)
            bucket = values[lo:hi]
            out.append(sum(bucket) / len(bucket))
        values = out
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _BLOCKS[0] * len(values)
    span = hi - lo
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1,
                    int((v - lo) / span * (len(_BLOCKS) - 1) + 0.5))]
        for v in values
    )


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def render_timeseries(series: Dict[str, List[List[float]]],
                      width: int = 48, include: Optional[str] = None) -> str:
    """Sparkline block for ``{"name": [[t, v], ...]}`` series."""
    lines = []
    name_w = max((len(n) for n in series), default=0)
    for name in sorted(series):
        if include is not None and include not in name:
            continue
        samples = series[name]
        values = [v for _t, v in samples]
        if not values:
            continue
        lines.append(
            f"{name.ljust(name_w)}  {sparkline(values, width)}  "
            f"min={_fmt(min(values))} max={_fmt(max(values))} "
            f"last={_fmt(values[-1])}"
        )
    if not lines:
        return "(no time-series samples)"
    return "\n".join(lines)


def render_anatomy(report_dict: Dict, width: int = 40) -> str:
    """Render an exported anatomy report (``anatomy.json``) as text."""
    lines = []
    totals = report_dict.get("phase_totals", {})
    grand = sum(totals.values())
    completed = (report_dict.get("exchanges", 0)
                 - report_dict.get("incomplete", 0))
    lines.append(
        f"== critical-path anatomy: {completed} exchanges "
        f"({report_dict.get('incomplete', 0)} incomplete) =="
    )
    if grand > 0:
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            share = seconds / grand
            bar = "#" * max(1, int(share * width))
            lines.append(
                f"  {name:<16} {seconds * 1e3:10.3f}ms "
                f"{share * 100:5.1f}%  {bar}"
            )
    by_proc = report_dict.get("by_proc", {})
    if by_proc:
        lines.append("-- per NFS proc --")
        for proc, row in sorted(
            by_proc.items(), key=lambda kv: -kv[1].get("total_s", 0.0)
        ):
            phases = row.get("phases", {})
            top = sorted(phases.items(), key=lambda kv: -kv[1])[:3]
            total = row.get("total_s", 0.0) or 1.0
            dominant = " ".join(
                f"{n}={s / total * 100:.0f}%" for n, s in top
            )
            lines.append(
                f"  {proc:<10} n={row.get('count', 0):<6} "
                f"mean={row.get('mean_s', 0.0) * 1e6:9.1f}us  {dominant}"
            )
    holds = report_dict.get("intent_holds", {})
    if holds.get("n") or holds.get("open"):
        lines.append(
            f"-- intents: {holds.get('n', 0)} closed "
            f"(mean hold {holds.get('mean_s', 0.0) * 1e3:.3f}ms, "
            f"max {holds.get('max_s', 0.0) * 1e3:.3f}ms), "
            f"{holds.get('open', 0)} open --"
        )
    slow = report_dict.get("slow_requests", [])
    if slow:
        lines.append(f"-- top {len(slow)} slowest exchanges --")
        for entry in slow:
            lines.append(
                f"  [{entry['total_s'] * 1e3:.3f} ms] proc={entry['proc']} "
                f"tid={entry['trace_id']}"
            )
            lines.extend(
                "      " + line for line in entry["tree"].splitlines()
            )
    return "\n".join(lines)


def render_live(cluster, width: int = 48, top_k: int = 8,
                include: Optional[str] = None) -> str:
    """One full dashboard for a live cluster, traced or not.

    Counters and any time-series come from the components; the anatomy
    tables and the ``handle_s`` histograms are added when a tracer is
    attached.
    """
    from repro.metrics.report import metric_tables

    from .anatomy import analyze

    tracer = cluster.tracer
    parts = []
    if tracer is not None:
        parts.append(analyze(tracer, top_k=top_k).format_tables())
    sampler = cluster.telemetry
    if sampler is not None and sampler.series:
        parts.append("== time-series (gauges & rates) ==")
        parts.append(
            render_timeseries(sampler.series_dict(), width=width,
                              include=include)
        )
    histograms = tracer.histograms if tracer is not None else None
    parts.append(metric_tables(cluster.counters(), histograms))
    return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def render_file(path: str, width: int = 48,
                include: Optional[str] = None) -> str:
    """Render one exported file or a whole export_bundle directory."""
    if os.path.isdir(path):
        parts = []
        anatomy = os.path.join(path, "anatomy.json")
        if os.path.exists(anatomy):
            parts.append(render_file(anatomy, width, include))
        timeseries = os.path.join(path, "timeseries.json")
        if os.path.exists(timeseries):
            parts.append(render_file(timeseries, width, include))
        prom = os.path.join(path, "metrics.prom")
        if os.path.exists(prom):
            with open(prom) as fh:
                text = fh.read()
            gauge_lines = [
                line for line in text.splitlines()
                if line and not line.startswith("#")
            ]
            parts.append(
                f"== metrics.prom: {len(gauge_lines)} samples "
                f"(full file at {prom}) =="
            )
        if not parts:
            return f"(no telemetry files found under {path})"
        return "\n\n".join(parts)
    with open(path) as fh:
        if path.endswith(".jsonl"):
            spans = sum(
                1 for line in fh if '"type": "span"' in line
            )
            return f"== {path}: structured event log, {spans} spans =="
        data = json.load(fh)
    if "phase_totals" in data or "by_proc" in data:
        return render_anatomy(data)
    if "series" in data:
        return (
            f"== time-series: {len(data['series'])} series, "
            f"{data.get('samples_taken', '?')} samples of "
            f"{data.get('interval', '?')}s ==\n"
            + render_timeseries(data["series"], width=width, include=include)
        )
    if "traceEvents" in data:
        n = len(data["traceEvents"])
        return (
            f"== Chrome trace: {n} events; load this file at "
            f"https://ui.perfetto.dev =="
        )
    return f"(unrecognized telemetry file: {path})"


# ---------------------------------------------------------------------------
# demo run
# ---------------------------------------------------------------------------


def _demo(out_dir: Optional[str] = None) -> str:
    from repro.ensemble.cluster import SliceCluster
    from repro.ensemble.params import ClusterParams
    from repro.obs import Tracer
    from repro.workloads import UntarSpec, UntarWorkload, dd_write

    cluster = SliceCluster(
        params=ClusterParams(num_storage_nodes=4, num_dir_servers=2),
        tracer=Tracer(),
    )
    cluster.start_telemetry(interval=0.02)
    client, _proxy = cluster.add_client()
    untar = UntarWorkload(
        client, cluster.root_fh, UntarSpec(total_entries=300), seed=7
    )
    cluster.run(untar.run(), name="demo-untar")
    cluster.run(
        dd_write(client, cluster.root_fh, "bulk.bin", 24 << 20),
        name="demo-dd",
    )
    text = render_live(cluster)
    if out_dir:
        from .export import export_bundle

        paths = export_bundle(cluster.tracer, out_dir,
                              sampler=cluster.telemetry)
        text += "\n\nexported:\n" + "\n".join(
            f"  {kind}: {p}" for kind, p in sorted(paths.items())
        )
    return text


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dash",
        description="Render repro.obs telemetry (live demo or exported files).",
    )
    parser.add_argument("path", nargs="?",
                        help="export_bundle directory or one exported file")
    parser.add_argument("--demo", action="store_true",
                        help="run a small traced workload and render it")
    parser.add_argument("--export", metavar="DIR", default=None,
                        help="with --demo: also export_bundle into DIR")
    parser.add_argument("--width", type=int, default=48,
                        help="sparkline width (default 48)")
    parser.add_argument("--include", default=None,
                        help="only show time-series whose name contains this")
    args = parser.parse_args(argv)
    if args.demo:
        print(_demo(args.export))
        return 0
    if not args.path:
        parser.print_help()
        return 2
    if not os.path.exists(args.path):
        print(f"no such file or directory: {args.path}", file=sys.stderr)
        return 1
    print(render_file(args.path, width=args.width, include=args.include))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
