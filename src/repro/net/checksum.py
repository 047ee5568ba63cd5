"""Internet (one's-complement) checksums with incremental update.

The µproxy rewrites a handful of bytes per packet (addresses, ports, some
attribute fields) and must restore a valid UDP checksum.  Recomputing over
the whole datagram would cost time proportional to packet size; the paper's
prototype instead adjusts the checksum *differentially*, "derived from the
FreeBSD implementation of Network Address Translation".  This module
implements both the full RFC 1071 sum and the RFC 1624 incremental update,
and the tests verify they always agree.
"""

from __future__ import annotations

__all__ = [
    "ones_sum",
    "fold",
    "ones_add",
    "swap16",
    "combine",
    "finalize",
    "checksum",
    "verify",
    "update_checksum",
]

_MOD = 0xFFFF


def ones_add(a: int, b: int) -> int:
    """One's-complement 16-bit addition (end-around carry)."""
    total = a + b
    return (total & _MOD) + (total >> 16)


def swap16(value: int) -> int:
    """Swap the two bytes of a 16-bit value."""
    return ((value & 0xFF) << 8) | (value >> 8)


def fold(total: int) -> int:
    """Fold a non-negative sum of 16-bit words into one's complement.

    Because 2**16 == 1 (mod 0xFFFF), end-around-carry folding of any sum is
    its residue mod 0xFFFF, except that a non-zero multiple of 0xFFFF folds
    to 0xFFFF, never to 0: only an all-zero sum is 0.
    """
    return (total - 1) % _MOD + 1 if total else 0


def ones_sum(data: bytes) -> int:
    """RFC 1071 one's-complement sum of ``data`` (odd tail padded with 0).

    Read as one big-endian integer, ``data`` weights each 16-bit word by a
    power of 2**16 == 1 (mod 0xFFFF), so folding that integer sums the
    words.  An odd length is padded with a zero byte by shifting left 8 bits.
    """
    return fold(int.from_bytes(data, "big") << ((len(data) & 1) << 3))


def combine(sum_a: int, len_a: int, sum_b: int) -> int:
    """Sum of block A followed by block B, given their individual sums.

    If A has odd length, B's bytes land at odd offsets, which in one's
    complement arithmetic is a byte swap of its sum.
    """
    if len_a % 2:
        sum_b = swap16(sum_b)
    return ones_add(sum_a, sum_b)


def finalize(total: int) -> int:
    """Turn a one's-complement sum into the checksum field value.

    In one's complement 0x0000 and 0xFFFF both represent zero; as in UDP
    (where a transmitted 0 means "no checksum"), a computed 0 is sent as
    0xFFFF so all code paths agree on a canonical representation.
    """
    result = (~fold(total)) & _MOD
    return result if result != 0 else _MOD


def checksum(data: bytes) -> int:
    """Full checksum of ``data`` (the value stored in a checksum field)."""
    return finalize(ones_sum(data))


def verify(data: bytes, cksum: int) -> bool:
    """True iff ``cksum`` is a valid checksum field for ``data``.

    Valid means data-sum plus checksum folds to all-ones.
    """
    return ones_add(ones_sum(data), cksum) == 0xFFFF


def update_checksum(
    cksum: int, old: bytes, new: bytes, odd_offset: bool = False
) -> int:
    """RFC 1624 incremental update: replace ``old`` with ``new``.

    ``cksum`` is the current checksum *field* value; ``old`` and ``new`` are
    equal-length byte strings at the same position; ``odd_offset`` says the
    replacement starts at an odd byte offset within the checksummed region.
    Returns the new checksum field value.  Cost is proportional to the bytes
    replaced, independent of the message size.
    """
    if len(old) != len(new):
        raise ValueError(
            f"incremental update requires equal lengths ({len(old)} != {len(new)})"
        )
    old_sum = ones_sum(old)
    new_sum = ones_sum(new)
    if odd_offset:
        old_sum = swap16(old_sum)
        new_sum = swap16(new_sum)
    # HC' = ~(~HC + ~m + m')   (RFC 1624, eqn. 3)
    total = ones_add((~cksum) & _MOD, (~old_sum) & _MOD)
    total = ones_add(total, new_sum)
    result = (~total) & _MOD
    return result if result != 0 else _MOD
