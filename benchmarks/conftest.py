"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's §5.  The
simulated hardware matches the paper's testbed; the *workload* is scaled
down by REPRO_BENCH_SCALE (default 0.12) so the suite runs in minutes —
sizes, load points, and file counts shrink, shapes do not.  Set
REPRO_BENCH_SCALE=1 for full-scale runs.
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.12"))


def scaled(value, minimum=1):
    return max(minimum, int(value * SCALE))


@pytest.fixture(scope="session")
def bench_scale():
    return SCALE


def run_once(benchmark, fn):
    """Run a simulation experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def pytest_sessionfinish(session, exitstatus):
    """When tracing is on (REPRO_TRACE=1 / run_all.sh --with-traces), dump
    every live tracer's metrics tables at the end of the benchmark run."""
    if not os.environ.get("REPRO_TRACE"):
        return
    from repro.obs import all_tracers

    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    write = reporter.write_line if reporter else print
    tracers = all_tracers()
    if not tracers:
        write("repro.obs: REPRO_TRACE set but no tracers were created")
        return
    for i, tracer in enumerate(tracers):
        write("")
        write(f"-- repro.obs tracer {i} summary: {tracer.summary()}")
        for line in tracer.metrics.format_tables().splitlines():
            write(line)

