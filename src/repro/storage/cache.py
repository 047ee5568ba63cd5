"""Buffer cache model.

Tracks which blocks are memory-resident (content truth lives in the object
store; the cache decides whether an access costs disk time) with LRU
replacement and dirty tracking, mirroring the FreeBSD buffer cache the
prototype's servers relied on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, List, Tuple

__all__ = ["BufferCache"]


class BufferCache:
    """Byte-budgeted LRU of (key -> block size) with dirty bits."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Tuple[int, bool]]" = OrderedDict()
        self.used = 0
        self.hits = 0
        self.misses = 0

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> bool:
        """Touch ``key``; True on hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return False
        self._entries.move_to_end(key)
        self.hits += 1
        return True

    def is_dirty(self, key: Hashable) -> bool:
        entry = self._entries.get(key)
        return bool(entry and entry[1])

    def insert(
        self, key: Hashable, size: int, dirty: bool = False
    ) -> List[Tuple[Hashable, int]]:
        """Add/refresh an entry; returns evicted *dirty* (key, size) pairs
        that the caller must write back."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.used -= old[0]
            dirty = dirty or old[1]
        self._entries[key] = (size, dirty)
        self.used += size
        writebacks: List[Tuple[Hashable, int]] = []
        while self.used > self.capacity and self._entries:
            victim_key, (victim_size, victim_dirty) = self._entries.popitem(last=False)
            if victim_key == key:
                # The new entry itself is the LRU victim (oversized insert);
                # keep consistency and stop.
                self.used -= victim_size
                if victim_dirty:
                    writebacks.append((victim_key, victim_size))
                break
            self.used -= victim_size
            if victim_dirty:
                writebacks.append((victim_key, victim_size))
        return writebacks

    def mark_clean(self, key: Hashable) -> None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries[key] = (entry[0], False)

    def discard(self, key: Hashable) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.used -= entry[0]

    def clear(self) -> None:
        self._entries.clear()
        self.used = 0

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
