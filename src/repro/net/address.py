"""Network addresses.

An :class:`Address` is a (host, port) endpoint.  Each address packs to a
fixed 6-byte representation (4-byte pseudo-IP derived from the host name plus
a 2-byte port) that participates in packet checksums, so rewriting an address
requires the same differential checksum adjustment a real NAT performs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict

__all__ = ["Address"]

#: Host name -> its 4-byte pseudo-IPv4.  Addresses are built afresh for
#: every packet, so the MD5 is kept per host name, not per object; there
#: is one entry per simulated host name.
_PSEUDO_IP: Dict[str, bytes] = {}


@dataclass(frozen=True, order=True)
class Address:
    host: str
    port: int

    def __post_init__(self):
        if not 0 <= self.port <= 0xFFFF:
            raise ValueError(f"port out of range: {self.port}")

    @property
    def packed(self) -> bytes:
        """6-byte wire form: pseudo-IPv4 (hash of host name) + port."""
        ip = _PSEUDO_IP.get(self.host)
        if ip is None:
            ip = hashlib.md5(self.host.encode("utf-8")).digest()[:4]
            _PSEUDO_IP[self.host] = ip
        return ip + self.port.to_bytes(2, "big")

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"
