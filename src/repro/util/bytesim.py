"""Lazy payload representation ("header splitting" for the simulator).

NFS bulk transfers move large opaque payloads whose *content* rarely matters
to the code under test, while protocol headers must be real bytes that the
µproxy can decode and rewrite.  Mirroring the paper's NICs — whose firmware
split NFS headers from data — packets here carry a real ``bytes`` header plus
a :class:`Data` body that materializes lazily.

``Data`` objects are immutable, sliceable, comparable, and know their
Internet checksum, so functional tests can verify content end-to-end while
bandwidth benchmarks ship multi-gigabyte payloads without allocating them.

The checksum never builds the payload either: zeros sum to 0, real bytes
are summed once and cached, a composite folds its parts' sums, and a
pattern -- periodic with an even period -- sums a head, ``k`` whole periods
(``k`` times one cached per-seed sum) and a tail, so its cost is bounded by
the period, not the payload size.  Every byte sum goes through
:func:`repro.net.checksum.ones_sum`.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List

__all__ = ["Data", "RealData", "PatternData", "ZeroData", "concat", "EMPTY"]

# Refuse to materialize anything bigger than this; it is a logic error for
# functional code to expand a bulk-benchmark payload.
MATERIALIZE_LIMIT = 64 << 20

_PATTERN_PERIOD = 4096


class Data:
    """Immutable byte sequence with lazy materialization."""

    __slots__ = ()

    @property
    def length(self) -> int:
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        """Materialize the full content (guarded by MATERIALIZE_LIMIT)."""
        raise NotImplementedError

    def byte_at(self, index: int) -> int:
        raise NotImplementedError

    def slice(self, start: int, stop: int) -> "Data":
        """Return the subrange [start, stop), clamped to the data bounds."""
        raise NotImplementedError

    # -- shared behaviour ----------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (bytes, bytearray)):
            other = RealData(bytes(other))
        if not isinstance(other, Data):
            return NotImplemented
        if self.length != other.length:
            return False
        return self.fingerprint() == other.fingerprint()

    def __hash__(self):
        return hash((self.length, self.fingerprint()))

    def fingerprint(self) -> bytes:
        """Content digest; equal content implies equal fingerprints."""
        md5 = hashlib.md5()
        remaining = self.length
        offset = 0
        while remaining > 0:
            step = min(remaining, 1 << 20)
            md5.update(self.slice(offset, offset + step).to_bytes())
            offset += step
            remaining -= step
        return md5.digest()

    def checksum16(self) -> int:
        """16-bit one's-complement sum of the content (not complemented).

        Each kind computes it without materializing the payload.
        """
        raise NotImplementedError

    def _check_materialize(self) -> None:
        if self.length > MATERIALIZE_LIMIT:
            raise MemoryError(
                f"refusing to materialize {self.length} bytes of payload"
            )


class RealData(Data):
    """A payload backed by actual bytes."""

    __slots__ = ("_bytes", "_sum")

    def __init__(self, content: bytes = b""):
        if not isinstance(content, (bytes, bytearray, memoryview)):
            raise TypeError(f"RealData requires bytes, got {type(content)!r}")
        self._bytes = bytes(content)
        self._sum = None

    @property
    def length(self) -> int:
        return len(self._bytes)

    def to_bytes(self) -> bytes:
        return self._bytes

    def byte_at(self, index: int) -> int:
        return self._bytes[index]

    def slice(self, start: int, stop: int) -> "Data":
        start = max(0, start)
        stop = min(len(self._bytes), stop)
        if stop <= start:
            return EMPTY
        return RealData(self._bytes[start:stop])

    def fingerprint(self) -> bytes:
        return hashlib.md5(self._bytes).digest()

    def checksum16(self) -> int:
        if self._sum is None:
            from repro.net.checksum import ones_sum

            self._sum = ones_sum(self._bytes)
        return self._sum

    def __repr__(self):
        preview = self._bytes[:16]
        return f"RealData({preview!r}{'...' if self.length > 16 else ''}, len={self.length})"


class PatternData(Data):
    """A deterministic pseudo-random payload defined by (seed, offset).

    Byte ``i`` equals byte ``offset + i`` of an infinite periodic stream
    derived from ``seed``, so slices of a pattern remain patterns and
    equality is decidable without materialization for same-seed payloads.
    """

    __slots__ = ("seed", "offset", "_length")

    def __init__(self, length: int, seed: int = 0, offset: int = 0):
        if length < 0:
            raise ValueError(f"negative length: {length}")
        self._length = length
        self.seed = seed
        self.offset = offset

    @property
    def length(self) -> int:
        return self._length

    def _block(self) -> bytes:
        return _pattern_block(self.seed)

    def to_bytes(self) -> bytes:
        self._check_materialize()
        block = self._block()
        start = self.offset % _PATTERN_PERIOD
        reps = (start + self._length + _PATTERN_PERIOD - 1) // _PATTERN_PERIOD
        return (block * reps)[start : start + self._length]

    def byte_at(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(index)
        return self._block()[(self.offset + index) % _PATTERN_PERIOD]

    def slice(self, start: int, stop: int) -> "Data":
        start = max(0, start)
        stop = min(self._length, stop)
        if stop <= start:
            return EMPTY
        return PatternData(stop - start, self.seed, self.offset + start)

    def fingerprint(self) -> bytes:
        if self._length <= MATERIALIZE_LIMIT:
            return super().fingerprint()
        # For huge payloads, identity-of-definition stands in for content;
        # two pattern payloads with equal seed, length and offset modulo the
        # period are equal.
        return hashlib.md5(
            f"pattern:{self.seed}:{self.offset % _PATTERN_PERIOD}:"
            f"{self._length}".encode()
        ).digest()

    def checksum16(self) -> int:
        # A head up to the next period boundary, whole periods, then a tail.
        # The period is even, so whole periods leave the tail's byte parity
        # where the head left it, and k periods sum to k times one period.
        from repro.net.checksum import combine, fold, ones_sum

        block = self._block()
        start = self.offset % _PATTERN_PERIOD
        head = min(self._length, -start % _PATTERN_PERIOD)
        periods, tail = divmod(self._length - head, _PATTERN_PERIOD)
        total = ones_sum(block[start : start + head]) if head else 0
        if periods:
            total = combine(total, head, fold(_pattern_sum(self.seed) * periods))
        if tail:
            total = combine(total, head, ones_sum(block[:tail]))
        return total

    def __repr__(self):
        return f"PatternData(len={self._length}, seed={self.seed}, offset={self.offset})"


class ZeroData(Data):
    """All-zero payload (holes in sparse files)."""

    __slots__ = ("_length",)

    def __init__(self, length: int):
        if length < 0:
            raise ValueError(f"negative length: {length}")
        self._length = length

    @property
    def length(self) -> int:
        return self._length

    def to_bytes(self) -> bytes:
        self._check_materialize()
        return b"\x00" * self._length

    def byte_at(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(index)
        return 0

    def slice(self, start: int, stop: int) -> "Data":
        start = max(0, start)
        stop = min(self._length, stop)
        if stop <= start:
            return EMPTY
        return ZeroData(stop - start)

    def fingerprint(self) -> bytes:
        if self._length <= MATERIALIZE_LIMIT:
            return super().fingerprint()
        return hashlib.md5(f"zero:{self._length}".encode()).digest()

    def checksum16(self) -> int:
        return 0

    def __repr__(self):
        return f"ZeroData(len={self._length})"


class CompositeData(Data):
    """Concatenation of parts; flattened and hole-aware."""

    __slots__ = ("parts", "_length")

    def __init__(self, parts: List[Data]):
        self.parts = parts
        self._length = sum(p.length for p in parts)

    @property
    def length(self) -> int:
        return self._length

    def to_bytes(self) -> bytes:
        self._check_materialize()
        return b"".join(p.to_bytes() for p in self.parts)

    def byte_at(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(index)
        for part in self.parts:
            if index < part.length:
                return part.byte_at(index)
            index -= part.length
        raise IndexError(index)

    def slice(self, start: int, stop: int) -> "Data":
        start = max(0, start)
        stop = min(self._length, stop)
        if stop <= start:
            return EMPTY
        picked: List[Data] = []
        pos = 0
        for part in self.parts:
            lo = max(start, pos)
            hi = min(stop, pos + part.length)
            if hi > lo:
                picked.append(part.slice(lo - pos, hi - pos))
            pos += part.length
            if pos >= stop:
                break
        return concat(picked)

    def checksum16(self) -> int:
        from repro.net.checksum import combine

        total = pos = 0
        for part in self.parts:
            total = combine(total, pos, part.checksum16())
            pos += part.length
        return total

    def __repr__(self):
        return f"CompositeData(len={self._length}, parts={len(self.parts)})"


EMPTY = RealData(b"")

_pattern_blocks: dict = {}


def _pattern_block(seed: int) -> bytes:
    block = _pattern_blocks.get(seed)
    if block is None:
        chunks = []
        for counter in range(_PATTERN_PERIOD // 16):
            chunks.append(
                hashlib.md5(f"{seed}:{counter}".encode("utf-8")).digest()
            )
        block = b"".join(chunks)
        _pattern_blocks[seed] = block
    return block


_pattern_sums: dict = {}


def _pattern_sum(seed: int) -> int:
    """One's-complement sum of one period of the ``seed`` stream."""
    total = _pattern_sums.get(seed)
    if total is None:
        from repro.net.checksum import ones_sum

        total = _pattern_sums[seed] = ones_sum(_pattern_block(seed))
    return total


def concat(parts: Iterable[Data]) -> Data:
    """Concatenate payloads, flattening nested composites and merging holes."""
    flat: List[Data] = []
    for part in parts:
        if part.length == 0:
            continue
        if isinstance(part, CompositeData):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    # Merge adjacent small real chunks to bound nesting.
    merged: List[Data] = []
    for part in flat:
        prev = merged[-1] if merged else None
        if (
            isinstance(part, RealData)
            and isinstance(prev, RealData)
            and prev.length + part.length <= 1 << 16
        ):
            merged[-1] = RealData(prev.to_bytes() + part.to_bytes())
        elif (
            isinstance(part, ZeroData)
            and isinstance(prev, ZeroData)
        ):
            merged[-1] = ZeroData(prev.length + part.length)
        elif (
            isinstance(part, PatternData)
            and isinstance(prev, PatternData)
            and prev.seed == part.seed
            and prev.offset + prev.length == part.offset
        ):
            merged[-1] = PatternData(
                prev.length + part.length, prev.seed, prev.offset
            )
        else:
            merged.append(part)
    if len(merged) == 1:
        return merged[0]
    return CompositeData(merged)
