"""Time-series telemetry: ring-buffered samples on a sim-clock cadence.

The critical-path profiler (:mod:`repro.obs.anatomy`) answers *where one
request spent its time*; this module answers *what the cluster looked like
while it did* — queue depths, utilisations, link occupancy, WAL depth,
cache hit rates, outstanding intents — sampled on a fixed simulated-time
interval into bounded ring buffers.

Usage::

    sampler = TimeSeriesSampler(sim, cluster.gauges, cluster.counters,
                                interval=0.05)
    sampler.start()
    ... run workload ...
    curves = sampler.series_dict()       # {"scope.gauge": [[t, v], ...]}

``read`` is any callable returning ``{"scope.name": value}``, such as
:meth:`SliceCluster.gauges <repro.ensemble.cluster.SliceCluster.gauges>`.
It runs once per tick and components only compute their readings then,
so the hot paths pay nothing.  ``counters``, when given, is a callable of
the same shape returning cumulative counts, such as
:meth:`SliceCluster.counters
<repro.ensemble.cluster.SliceCluster.counters>`; each count is
differentiated into a per-second rate (a ``name:rate`` series) so
throughput curves come for free.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["RingBuffer", "TimeSeriesSampler"]


class RingBuffer:
    """A bounded series of ``(t, value)`` samples (oldest evicted first)."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str, maxlen: int = 512):
        self.name = name
        self._samples: "deque[Tuple[float, float]]" = deque(maxlen=maxlen)

    def append(self, t: float, value: float) -> None:
        self._samples.append((t, value))

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(self._samples)

    @property
    def maxlen(self) -> int:
        return self._samples.maxlen or 0

    def times(self) -> List[float]:
        return [t for t, _v in self._samples]

    def values(self) -> List[float]:
        return [v for _t, v in self._samples]

    def last(self) -> Optional[Tuple[float, float]]:
        return self._samples[-1] if self._samples else None

    def minmax(self) -> Tuple[float, float]:
        vals = self.values()
        if not vals:
            return (0.0, 0.0)
        return (min(vals), max(vals))

    def to_list(self) -> List[List[float]]:
        return [[t, v] for t, v in self._samples]


class TimeSeriesSampler:
    """Samples ``read()`` (and the rates of ``counters()``) periodically.

    Each tick records every reading and, when ``counters`` is given, every
    count's per-second rate (first difference over the interval) into
    per-metric ring buffers.  The sampling loop is an ordinary sim
    process, so the cadence is *simulated* seconds — deterministic across
    runs.
    """

    def __init__(self, sim, read: Callable[[], Dict[str, float]],
                 counters: Optional[Callable[[], Dict[str, int]]] = None,
                 interval: float = 0.05, maxlen: int = 512):
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.sim = sim
        self.read = read
        self.counters = counters
        self.interval = interval
        self.maxlen = maxlen
        self.series: Dict[str, RingBuffer] = {}
        self.samples_taken = 0
        self._prev_counters: Dict[str, int] = {}
        self._run_token: Optional[object] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "TimeSeriesSampler":
        """Begin sampling (idempotent)."""
        if self._run_token is None:
            self._run_token = object()
            self.sim.process(self._run(self._run_token),
                             name="telemetry-sampler")
        return self

    def stop(self) -> None:
        """Stop sampling; the process exits on its next wake."""
        self._run_token = None

    def _run(self, token):
        # Exit once superseded: a stop() then start() within one interval
        # must not leave the old loop ticking beside the new one.
        while True:
            yield self.sim.timeout(self.interval)
            if self._run_token is not token:
                return
            self.sample()

    # -- sampling ----------------------------------------------------------

    def _buf(self, name: str) -> RingBuffer:
        buf = self.series.get(name)
        if buf is None:
            buf = RingBuffer(name, maxlen=self.maxlen)
            self.series[name] = buf
        return buf

    def sample(self) -> None:
        """Take one sample of every reading (and counter rate) right now."""
        now = self.sim.now
        for name, value in self.read().items():
            self._buf(name).append(now, float(value))
        if self.counters is not None:
            counts = self.counters()
            prev_counts = self._prev_counters
            for key, value in counts.items():
                prev = prev_counts.get(key)
                if prev is None:
                    continue  # no interval to differentiate over yet
                rate = (value - prev) / self.interval
                self._buf(key + ":rate").append(now, rate)
            self._prev_counters = dict(counts)
        self.samples_taken += 1

    # -- export ------------------------------------------------------------

    def series_dict(self) -> Dict[str, List[List[float]]]:
        """``{"scope.metric": [[t, v], ...]}`` for every recorded series."""
        return {
            name: buf.to_list() for name, buf in sorted(self.series.items())
        }

    def to_dict(self) -> Dict:
        return {
            "interval": self.interval,
            "maxlen": self.maxlen,
            "samples_taken": self.samples_taken,
            "series": self.series_dict(),
        }
