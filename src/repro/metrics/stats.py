"""Measurement primitives for the benchmark harness."""

from __future__ import annotations

import math
from typing import List, Optional

__all__ = ["LatencyRecorder"]


class LatencyRecorder:
    """Collects latency samples; reports mean/percentiles.

    With ``reservoir=None`` (the default, used by benchmarks) every sample
    is retained and every statistic is exact.  With a ``reservoir`` cap the
    recorder keeps a uniform random sample of that size (Vitter's
    Algorithm R, seeded deterministically from the recorder's name) so a
    long chaos run cannot grow memory without bound:

    - ``count``, ``mean()``, and ``max()`` stay **exact** regardless of the
      cap (they are tracked as running aggregates);
    - ``percentile()`` is exact while ``count <= reservoir`` and becomes a
      uniform-sample estimate beyond it.
    """

    def __init__(self, name: str = "", reservoir: Optional[int] = None):
        if reservoir is not None and reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        self.name = name
        self.reservoir = reservoir
        self.samples: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._max: Optional[float] = None
        # Deterministic per-recorder xorshift state (never zero) so capped
        # recorders do not perturb — or get perturbed by — any other RNG.
        seed = 0
        for ch in name:
            seed = (seed * 131 + ord(ch)) & 0xFFFFFFFF
        self._rng_state = (seed ^ 0x9E3779B9) or 0x2545F491

    def _rand_below(self, n: int) -> int:
        """Deterministic uniform integer in [0, n) (xorshift32)."""
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._rng_state = x
        return x % n

    def record(self, latency: float) -> None:
        self._count += 1
        self._sum += latency
        if self._max is None or latency > self._max:
            self._max = latency
        cap = self.reservoir
        if cap is None or len(self.samples) < cap:
            self.samples.append(latency)
            return
        # Reservoir full: replace a random slot with probability cap/count.
        slot = self._rand_below(self._count)
        if slot < cap:
            self.samples[slot] = latency

    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile (numpy's default convention).

        ``p`` is clamped to [0, 1].  With one sample every percentile is
        that sample; p=0 is the minimum and p=1 the maximum.  The previous
        implementation used nearest-rank, which overstates tail latencies
        for small sample counts.
        """
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        n = len(ordered)
        if n == 1:
            return ordered[0]
        p = min(1.0, max(0.0, p))
        rank = p * (n - 1)
        lo = math.floor(rank)
        hi = min(n - 1, lo + 1)
        frac = rank - lo
        return ordered[lo] + (ordered[hi] - ordered[lo]) * frac

    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    def clear(self) -> None:
        self.samples.clear()
        self._count = 0
        self._sum = 0.0
        self._max = None

    def summary(self) -> dict:
        """Compact stats dict (used by the exporters)."""
        return {
            "n": self.count,
            "mean": self.mean(),
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "max": self.max(),
        }
