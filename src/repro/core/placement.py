"""Block placement policies for bulk I/O (§3.1).

The µproxy redirects I/O above the threshold offset straight to the network
storage array.  Placement may be *static* — a pure function of (fileID,
block) striping blocks round-robin from a per-file base — or *dynamic*,
consulting per-file block maps cached from a coordinator.  Mirrored
striping replicates each block on ``mirror_degree`` distinct nodes; reads
alternate replicas to balance load, writes go to all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.nfs.fhandle import FHandle
from repro.util.hashing import md5_u64

__all__ = ["IoPolicy", "StaticPlacement", "BlockMapCache"]


@dataclass
class IoPolicy:
    """I/O routing parameters shared by µproxies and benchmarks."""

    threshold: int = 64 << 10  # small-file / bulk split (§3.1)
    stripe_unit: int = 32 << 10  # one NFS block per storage node
    mirror_degree: int = 2
    use_block_maps: bool = False  # static striping vs coordinator maps

    def block_of(self, offset: int) -> int:
        """Stripe-unit index containing a byte offset."""
        return offset // self.stripe_unit


class StaticPlacement:
    """Static striping: site = (hash(fileID) + block) mod N."""

    def __init__(self, num_nodes: int, policy: IoPolicy):
        if num_nodes < 1:
            raise ValueError("need at least one storage node")
        self.num_nodes = num_nodes
        self.policy = policy
        self._base_cache: Dict[int, int] = {}

    def _base(self, fileid: int) -> int:
        base = self._base_cache.get(fileid)
        if base is None:
            base = md5_u64(b"stripe:" + fileid.to_bytes(8, "big")) % self.num_nodes
            self._base_cache[fileid] = base
        return base

    def primary_site(self, fh: FHandle, block: int) -> int:
        """First-replica storage site of a block (round-robin striping)."""
        return (self._base(fh.fileid) + block) % self.num_nodes

    def sites_for_block(self, fh: FHandle, block: int) -> List[int]:
        """All replica sites for a block (one unless the file is mirrored)."""
        primary = self.primary_site(fh, block)
        if not fh.mirrored or self.num_nodes < 2:
            return [primary]
        degree = min(self.policy.mirror_degree, self.num_nodes)
        # Replicas offset by N/degree keep replica load spread evenly.
        step = max(1, self.num_nodes // degree)
        sites = [(primary + i * step) % self.num_nodes for i in range(degree)]
        # Guard against collisions when N is small relative to degree.
        unique: List[int] = []
        for site in sites:
            while site in unique:
                site = (site + 1) % self.num_nodes
            unique.append(site)
        return unique


class BlockMapCache:
    """µproxy-side cache of per-file block maps (dynamic placement).

    Map fragments are fetched from a coordinator on demand; this class only
    caches — the fetch itself is an RPC the µproxy issues.
    """

    def __init__(self, capacity_blocks: int = 65536):
        self.capacity = capacity_blocks
        self._maps: Dict[int, Dict[int, int]] = {}
        self._size = 0
        self.hits = 0
        self.misses = 0

    def get(self, fileid: int, block: int):
        """Cached site for (file, block); None if the fragment is cold."""
        site = self._maps.get(fileid, {}).get(block)
        if site is None:
            self.misses += 1
        else:
            self.hits += 1
        return site

    def put_range(self, fileid: int, first_block: int, sites: List[int]) -> None:
        """Install a map fragment fetched from a coordinator (-1 = unmapped)."""
        fmap = self._maps.setdefault(fileid, {})
        for i, site in enumerate(sites):
            if site >= 0 and first_block + i not in fmap:
                fmap[first_block + i] = site
                self._size += 1
        # Soft state: drop whole files LRU-ish (insertion order) when full.
        while self._size > self.capacity and self._maps:
            _fid, dropped = self._maps.popitem()
            self._size -= len(dropped)

    def drop_sites(self, sites) -> int:
        """Discard cached entries that point at moved storage sites.

        Called on an epoch change: block maps naming a rebound site are
        stale hints and must be refetched from the coordinator.  Returns
        the number of (file, block) entries dropped."""
        sites = set(sites)
        dropped = 0
        for fileid in list(self._maps):
            fmap = self._maps[fileid]
            stale = [b for b, s in fmap.items() if s in sites]
            for block in stale:
                del fmap[block]
            dropped += len(stale)
            self._size -= len(stale)
            if not fmap:
                del self._maps[fileid]
        return dropped

    def clear(self) -> None:
        """Drop everything (µproxy soft-state discard)."""
        self._maps.clear()
        self._size = 0
