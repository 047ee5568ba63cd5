"""Machine speed, measured by a fixed pure-Python calibration loop.

On a shared machine the speed of one core drifts by tens of percent over
minutes (other tenants, frequency changes), and the program's wall-clock
figures drift with it.  The calibration loop runs next to every repetition
and does the kinds of work the simulator does (heap operations, dict
stores, struct packing, generator resumption, unpacking a payload to sum
it) but none of the program's code, so a change to the program cannot move
it.  Wall-clock figures are reported at :data:`REFERENCE_SPEED`: a rate is
scaled by ``REFERENCE_SPEED / speed`` and a duration by its inverse.
"""

from __future__ import annotations

import heapq
import struct
import time

#: Calibration steps per second that wall-clock figures are scaled to (a
#: quiet 2-core x86 VM under CPython 3.11 runs about 1.1 million).
REFERENCE_SPEED = 1.0e6

_BATCH = 2000
_PAYLOAD = bytes(range(256)) * 16  # 4 KB
_UNPACK = struct.Struct(f"!{len(_PAYLOAD) // 2}H")


def _ticks(n: int):
    for i in range(n):
        yield i


def _batch() -> None:
    heap, table = [], {}
    for i in range(_BATCH):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        table[i & 1023] = struct.pack("!II", i, i ^ 0x55)
        if len(heap) > 64:
            heapq.heappop(heap)
    for _ in range(_BATCH // 100):
        sum(_ticks(100))
    for _ in range(_BATCH // 200):
        sum(_UNPACK.unpack(_PAYLOAD))


def speed(min_seconds: float = 0.1) -> float:
    """Calibration steps per wall second, over at least ``min_seconds``."""
    steps = 0
    start = time.perf_counter()
    while True:
        _batch()
        steps += _BATCH
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return steps / elapsed
