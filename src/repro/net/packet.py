"""UDP-like datagrams with split header and body.

A packet's ``header`` is real bytes (the RPC/NFS headers the µproxy decodes
and rewrites); its ``body`` is a lazy :class:`~repro.util.bytesim.Data`
payload (bulk read/write data).  The checksum covers a pseudo-header (packed
source and destination addresses), the header bytes, and the body — so
address rewrites, like real NAT, must adjust it.
"""

from __future__ import annotations

from typing import Optional

from repro.util.bytesim import EMPTY, Data
from .address import Address
from .checksum import combine, finalize, ones_add, ones_sum, update_checksum

__all__ = ["Packet", "UDP_IP_OVERHEAD", "PSEUDO_HEADER_LEN"]

# Bytes of IP + UDP header per datagram charged on the wire.
UDP_IP_OVERHEAD = 28

# src.packed (6) + dst.packed (6); both even offsets for checksum updates.
PSEUDO_HEADER_LEN = 12


class Packet:
    """A datagram in flight.

    Packets are mutated only by µproxy rewrite operations (which maintain
    the checksum incrementally); everything else treats them as immutable.
    """

    __slots__ = ("src", "dst", "header", "body", "cksum", "trace_id")

    def __init__(
        self,
        src: Address,
        dst: Address,
        header: bytes,
        body: Data = EMPTY,
        cksum: Optional[int] = None,
        trace_id: int = 0,
    ):
        self.src = src
        self.dst = dst
        self.header = header
        self.body = body
        self.cksum = cksum
        self.trace_id = trace_id

    @property
    def size(self) -> int:
        """Datagram size on the wire (headers + payload + UDP/IP overhead)."""
        return UDP_IP_OVERHEAD + len(self.header) + self.body.length

    def clone(self) -> "Packet":
        """An independent copy (fault-injected duplicate delivery).

        Header bytes and the lazy body are immutable values, so a shallow
        copy suffices; what matters is that in-place rewrites (µproxy NAT)
        on one copy cannot leak into the other.
        """
        return Packet(
            self.src, self.dst, self.header, self.body,
            cksum=self.cksum, trace_id=self.trace_id,
        )

    # -- checksum ------------------------------------------------------------

    def _ones_total(self) -> int:
        """One's-complement sum of pseudo-header, header and body."""
        total = ones_sum(self.src.packed + self.dst.packed + self.header)
        if self.body.length:
            total = combine(
                total, PSEUDO_HEADER_LEN + len(self.header),
                self.body.checksum16(),
            )
        return total

    def compute_checksum(self) -> int:
        return finalize(self._ones_total())

    def fill_checksum(self) -> "Packet":
        self.cksum = self.compute_checksum()
        return self

    def checksum_ok(self) -> bool:
        """Validate the checksum; packets without one (None) pass."""
        if self.cksum is None:
            return True
        return ones_add(self._ones_total(), self.cksum) == 0xFFFF

    # -- rewriting (µproxy fast paths) ----------------------------------------

    def rewrite_dst(self, new_dst: Address) -> None:
        """Redirect the packet, adjusting the checksum differentially."""
        if self.cksum is not None:
            self.cksum = update_checksum(
                self.cksum, self.dst.packed, new_dst.packed, odd_offset=False
            )
        self.dst = new_dst

    def rewrite_src(self, new_src: Address) -> None:
        """Masquerade the packet source, adjusting the checksum."""
        if self.cksum is not None:
            self.cksum = update_checksum(
                self.cksum, self.src.packed, new_src.packed, odd_offset=False
            )
        self.src = new_src

    def rewrite_header(self, offset: int, new_bytes: bytes) -> None:
        """Replace header bytes at ``offset``, adjusting the checksum."""
        old = self.header[offset : offset + len(new_bytes)]
        if len(old) != len(new_bytes):
            raise ValueError("header rewrite out of bounds")
        if self.cksum is not None:
            # Header starts after the 12-byte pseudo-header (even), so the
            # in-checksum offset parity equals the header offset parity.
            self.cksum = update_checksum(
                self.cksum, old, new_bytes, odd_offset=bool(offset % 2)
            )
        self.header = (
            self.header[:offset] + new_bytes + self.header[offset + len(new_bytes):]
        )

    def __repr__(self):
        return (
            f"Packet({self.src} -> {self.dst}, header={len(self.header)}B, "
            f"body={self.body.length}B)"
        )
