"""Name-space routing configuration, shared by µproxies and directory
servers.

Two policies from §3.2:

- **mkdir switching**: name operations route to the directory server that
  manages the parent directory (its *home site*, embedded in the fhandle);
  with probability ``p`` a mkdir is redirected to a site chosen by hashing
  (parent fhandle, name), placing the new directory — and its descendants —
  elsewhere.  Races over a name involve at most two sites.

- **name hashing**: every name operation routes by MD5(parent fileid, name),
  making the volume one global distributed hash table of name entries.

Both µproxy and servers evaluate the same functions; a server that receives
a request whose logical site it does not host answers MISDIRECTED, which is
how stale µproxy routing tables are detected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nfs.fhandle import FHandle
from repro.util.hashing import md5_u64

__all__ = ["NameConfig", "MKDIR_SWITCHING", "NAME_HASHING"]

MKDIR_SWITCHING = "mkdir-switching"
NAME_HASHING = "name-hashing"


@dataclass
class NameConfig:
    """Volume-wide name service parameters."""

    mode: str = MKDIR_SWITCHING
    num_logical_sites: int = 64
    mkdir_p: float = 0.25  # redirection probability (mkdir switching)

    def __post_init__(self):
        if self.mode not in (MKDIR_SWITCHING, NAME_HASHING):
            raise ValueError(f"unknown name-routing mode: {self.mode}")
        if not 0 <= self.mkdir_p <= 1:
            raise ValueError(f"mkdir_p out of range: {self.mkdir_p}")
        if self.num_logical_sites < 1:
            raise ValueError("need at least one logical site")

    # -- routing functions -------------------------------------------------

    def entry_hash_site(self, parent_fileid: int, name: str) -> int:
        """The logical site that owns name entry (parent, name) under name
        hashing; also the target chosen for redirected mkdirs."""
        digest = md5_u64(
            parent_fileid.to_bytes(8, "big") + name.encode("utf-8")
        )
        return digest % self.num_logical_sites

    def entry_site(self, parent_fh: FHandle, name: str) -> int:
        """Where the name entry (parent, name) lives."""
        if self.mode == NAME_HASHING:
            return self.entry_hash_site(parent_fh.fileid, name)
        return parent_fh.home_site

    def mkdir_coin(self, parent_fileid: int, name: str) -> float:
        """Deterministic uniform [0,1) draw for the mkdir-switching decision.

        Derived from (parent, name) so the µproxy and the directory servers
        independently agree on the placement without extending the NFS
        protocol, and so experiments are reproducible.
        """
        digest = md5_u64(
            b"coin:" + parent_fileid.to_bytes(8, "big") + name.encode("utf-8")
        )
        return (digest & 0xFFFFFFFF) / 2**32

    def mkdir_site(self, parent_fh: FHandle, name: str) -> int:
        """Where a new directory's attribute cell (its home) is placed.

        Under mkdir switching the µproxy redirects with probability ``p``;
        under name hashing every directory's home is its entry-hash site.
        """
        if self.mode == NAME_HASHING:
            return self.entry_hash_site(parent_fh.fileid, name)
        if self.mkdir_coin(parent_fh.fileid, name) < self.mkdir_p:
            return self.entry_hash_site(parent_fh.fileid, name)
        return parent_fh.home_site

    def readdir_spans_sites(self) -> bool:
        """Under name hashing a directory's entries span all sites."""
        return self.mode == NAME_HASHING
