"""Cluster-level parameter bundles.

Defaults reproduce the paper's testbed: eight-disk Dell 4400 storage nodes,
450 MHz PC file managers and clients, switched Gigabit Ethernet with jumbo
frames, one directory server, two small-file servers, and a variable number
of storage nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.placement import IoPolicy
from repro.dirsvc.config import MKDIR_SWITCHING, NameConfig
from repro.net.network import NetParams
from repro.nfs.client import ClientParams
from repro.smallfile.server import SmallFileParams
from repro.storage.node import StorageNodeParams

__all__ = ["ClusterParams"]


@dataclass
class ClusterParams:
    num_storage_nodes: int = 8
    num_dir_servers: int = 1
    num_sf_servers: int = 2
    num_coordinators: int = 1
    dir_logical_sites: int = 64
    sf_logical_sites: int = 64
    #: logical bulk-storage sites (the rebalancing granularity: ~1/Nth of
    #: blocks move per joined/removed node).  ``None`` means one site per
    #: storage node — bindings identical to the pre-table behaviour.
    storage_logical_sites: Optional[int] = None
    name_mode: str = MKDIR_SWITCHING
    mkdir_p: float = 0.25
    mirror_files: bool = False  # mint FLAG_MIRRORED into new regular files
    io: IoPolicy = field(default_factory=IoPolicy)
    net: NetParams = field(default_factory=NetParams)
    storage: StorageNodeParams = field(default_factory=StorageNodeParams)
    smallfile: SmallFileParams = field(default_factory=SmallFileParams)
    client: ClientParams = field(default_factory=ClientParams)

    def name_config(self) -> NameConfig:
        return NameConfig(
            mode=self.name_mode,
            num_logical_sites=self.dir_logical_sites,
            mkdir_p=self.mkdir_p,
        )
