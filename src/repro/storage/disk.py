"""Disk and disk-array timing model.

Approximates the paper's storage nodes: eight 10K-RPM Seagate Cheetah drives
(~33 MB/s media rate) behind a single shared SCSI channel whose bandwidth
caps the node well below the drives' aggregate rate — the reason each node
sources ~55 MB/s and sinks ~60 MB/s in Table 2.

Physical addresses are allocated by a bump-pointer allocator and interleaved
across the array's drives in fixed-size chunks (CCD-style), so logically
sequential layout engages all arms.  Sequentiality is detected per drive: an
access that continues where the previous one ended skips the seek.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim import Resource, Simulator

__all__ = ["DiskParams", "Disk", "DiskArray"]


@dataclass
class DiskParams:
    """Per-drive timing (defaults approximate a Cheetah ST318404LC)."""

    avg_seek: float = 0.0052
    half_rotation: float = 0.0030  # 10K RPM
    sequential_gap: float = 0.00002  # back-to-back blocks stream at media rate
    transfer_rate: float = 33e6  # bytes/s media rate
    # With a queue to choose from, the driver's elevator turns average seeks
    # into short ones; positioning cost shrinks by this factor when other
    # requests are waiting.
    elevator_factor: float = 0.62


class Disk:
    """One drive: a single arm (FIFO) with seek/rotate/transfer timing."""

    def __init__(self, sim: Simulator, params: DiskParams):
        self.sim = sim
        self.params = params
        self.arm = Resource(sim, 1)
        self._next_phys = -1  # physical address right after the last access
        # Grey-failure hook (see repro.faults.SlowDiskWindow): a sick drive
        # still answers, just ``slow_factor`` times slower.
        self.slow_factor = 1.0
        self.reads = 0
        self.writes = 0
        self.bytes_moved = 0
        self.seeks = 0

    def service_time(self, phys: int, nbytes: int, queued: bool = False) -> float:
        sequential = phys == self._next_phys
        if sequential:
            positioning = self.params.sequential_gap
        else:
            positioning = self.params.avg_seek + self.params.half_rotation
            if queued:
                positioning *= self.params.elevator_factor
        service = positioning + nbytes / self.params.transfer_rate
        return service * self.slow_factor

    def access(self, phys: int, nbytes: int, write: bool = False):
        """Generator: perform one media access (caller owns coalescing)."""
        queued = self.arm.in_use > 0 or self.arm.queue_length > 0
        req = self.arm.request()
        yield req
        try:
            service = self.service_time(phys, nbytes, queued=queued)
            if phys != self._next_phys:
                self.seeks += 1
            # Claim the landing zone before yielding so a queued access that
            # continues this one is detected as sequential.
            self._next_phys = phys + nbytes
            yield self.sim.timeout(service)
        finally:
            self.arm.release(req)
        if write:
            self.writes += 1
        else:
            self.reads += 1
        self.bytes_moved += nbytes


class LogDevice:
    """A dedicated journal disk: strictly sequential appends.

    File managers put their write-ahead log on its own spindle so group-
    commit flushes never seek; every flush is charged one sequential append
    regardless of which logical site's log it carries.
    """

    def __init__(self, sim: Simulator, params: DiskParams | None = None):
        self.disk = Disk(sim, params or DiskParams())
        self._ptr = 0
        self.bytes_appended = 0

    def append(self, nbytes: int):
        """Generator: append ``nbytes`` (padded to a 8 KB device block)."""
        nbytes = max(8192, ((nbytes + 8191) // 8192) * 8192)
        ptr = self._ptr
        self._ptr += nbytes
        self.bytes_appended += nbytes
        yield from self.disk.access(ptr, nbytes, write=True)

    def cost_fn(self):
        """Adapter matching WriteAheadLog's ``write_cost`` signature."""

        def write(nbytes: int):
            yield from self.append(nbytes)

        return write


class DiskArray:
    """Drives behind one shared channel, chunk-interleaved by address."""

    CHUNK = 64 << 10  # interleave granularity

    def __init__(
        self,
        sim: Simulator,
        num_disks: int = 8,
        params: DiskParams | None = None,
        channel_bandwidth: float = 72e6,
    ):
        if num_disks < 1:
            raise ValueError("need at least one disk")
        self.sim = sim
        self.params = params or DiskParams()
        self.disks: List[Disk] = [Disk(sim, self.params) for _ in range(num_disks)]
        self.channel = Resource(sim, 1)
        self.channel_bandwidth = channel_bandwidth
        self._alloc_ptr = 0

    @property
    def num_disks(self) -> int:
        return len(self.disks)

    def allocate(self, nbytes: int) -> int:
        """Reserve a contiguous physical range; returns its start address."""
        phys = self._alloc_ptr
        self._alloc_ptr += nbytes
        return phys

    def disk_for(self, phys: int) -> Disk:
        return self.disks[(phys // self.CHUNK) % len(self.disks)]

    def access(self, phys: int, nbytes: int, write: bool = False):
        """Generator: media access split at chunk boundaries across drives.

        Each fragment seizes its drive's arm, then the shared channel for
        the transfer portion — the channel is the aggregate bottleneck.
        """
        procs = []
        offset = phys
        remaining = nbytes
        while remaining > 0:
            in_chunk = self.CHUNK - (offset % self.CHUNK)
            step = min(remaining, in_chunk)
            procs.append(
                self.sim.process(self._fragment(offset, step, write))
            )
            offset += step
            remaining -= step
        if procs:
            yield self.sim.all_of(procs)

    def _fragment(self, phys: int, nbytes: int, write: bool):
        disk = self.disk_for(phys)
        yield from disk.access(phys, nbytes, write)
        yield from self.channel.use(nbytes / self.channel_bandwidth)