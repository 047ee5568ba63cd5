"""Make test helper modules importable and set shared pytest config."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from drops import DropWhen  # noqa: E402


@pytest.fixture
def trace_invariants(monkeypatch):
    """Attach a tracer to every :class:`SliceCluster` the test builds and
    assert the protocol invariants at teardown.

    Opt in per module with ``pytestmark = pytest.mark.usefixtures(
    "trace_invariants")`` — any end-to-end test then doubles as a
    whole-system correctness check at zero cost to the test body.

    ``reply-present`` is not enforced here: fault-injection scenarios may
    legitimately abandon calls (crashed servers, exhausted retransmission).
    The dedicated scenarios in ``test_trace_invariants.py`` assert it on
    clean runs.
    """
    from repro.ensemble.cluster import SliceCluster
    from repro.obs import TraceChecker, Tracer

    clusters = []
    original_init = SliceCluster.__init__

    def traced_init(self, sim=None, params=None, tracer=None):
        if tracer is None:
            tracer = Tracer()
        original_init(self, sim=sim, params=params, tracer=tracer)
        clusters.append(self)

    monkeypatch.setattr(SliceCluster, "__init__", traced_init)
    yield clusters
    for cluster in clusters:
        # Let in-flight async work land: intent completions, attribute
        # write-backs, watchdog recovery (probe 5 s, timeout 10 s).  A
        # test's drop predicate is lifted; an armed fault plan stays.
        if isinstance(cluster.net.fault_injector, DropWhen):
            cluster.net.fault_injector = None
        cluster.sim.run(until=cluster.sim.now + 60.0)
        TraceChecker(cluster.tracer).check(require_replies=False)
