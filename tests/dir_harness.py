"""Test harness for driving directory servers directly over RPC.

Performs the same routing computations the µproxy performs (entry-site /
mkdir-site / home-site), so directory-server behaviour can be tested before
and independently of the µproxy itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dirsvc import (
    BackingRegistry,
    DirectoryServer,
    DirServerParams,
    NameConfig,
    SiteState,
    make_root_cell,
)
from repro.dirsvc.server import COOKIE_SITE_SHIFT
from repro.net import Address, NetParams, Network
from repro.nfs import proto
from repro.nfs.fhandle import FHandle
from repro.nfs.types import Sattr3
from repro.rpc import RpcClient
from repro.sim import Simulator


class DirHarness:
    def __init__(
        self,
        num_servers: int = 1,
        mode: str = "mkdir-switching",
        num_sites: int = 8,
        mkdir_p: float = 0.25,
        coordinator: Optional[Address] = None,
        sim: Optional[Simulator] = None,
        net: Optional[Network] = None,
        params: Optional[DirServerParams] = None,
    ):
        self.sim = sim or Simulator()
        self.net = net or Network(self.sim, NetParams())
        self.config = NameConfig(
            mode=mode, num_logical_sites=num_sites, mkdir_p=mkdir_p
        )
        self.backing = BackingRegistry(self.sim)
        # Seed the volume root at logical site 0.
        root_state = SiteState(0)
        root_state.put_attr_cell(make_root_cell())
        self.backing.site("dir", 0).checkpoint(root_state.snapshot())
        self.root_fh = make_root_cell().to_fh(1)

        self.site_map: Dict[int, int] = {
            s: s % num_servers for s in range(num_sites)
        }
        self.servers: List[DirectoryServer] = []
        for i in range(num_servers):
            host = self.net.add_host(f"dir{i}")
            sites = [s for s, owner in self.site_map.items() if owner == i]
            self.servers.append(
                DirectoryServer(
                    self.sim, host, self.config, self.backing, sites,
                    peer_lookup=self.address_of_site,
                    coordinator=coordinator,
                    params=params,
                )
            )
        client_host = self.net.add_host("client")
        self.client = RpcClient(client_host, 700)

    def address_of_site(self, site: int) -> Address:
        return self.servers[self.site_map[site]].address

    # -- RPC plumbing ------------------------------------------------------

    def call(self, site: int, procnum: int, args: bytes):
        dec, _body = yield from self.client.call(
            self.address_of_site(site), proto.NFS_PROGRAM, proto.NFS_V3,
            procnum, args,
        )
        return dec

    # -- NFS convenience ops (routing like the µproxy) -----------------------

    def lookup(self, dir_fh: FHandle, name: str):
        site = self.config.entry_site(dir_fh, name)
        dec = yield from self.call(
            site, proto.PROC_LOOKUP, proto.DirOpArgs(dir_fh.pack(), name).encode()
        )
        return proto.LookupRes.decode(dec)

    def create(self, dir_fh: FHandle, name: str, mode=1, sattr=None):
        site = self.config.entry_site(dir_fh, name)
        dec = yield from self.call(
            site, proto.PROC_CREATE,
            proto.CreateArgs(dir_fh.pack(), name, mode, sattr or Sattr3()).encode(),
        )
        return proto.CreateRes.decode(dec)

    def mkdir(self, dir_fh: FHandle, name: str, sattr=None):
        site = self.config.mkdir_site(dir_fh, name)
        dec = yield from self.call(
            site, proto.PROC_MKDIR,
            proto.MkdirArgs(dir_fh.pack(), name, sattr or Sattr3()).encode(),
        )
        return proto.MkdirRes.decode(dec)

    def symlink(self, dir_fh: FHandle, name: str, path: str):
        site = self.config.entry_site(dir_fh, name)
        dec = yield from self.call(
            site, proto.PROC_SYMLINK,
            proto.SymlinkArgs(dir_fh.pack(), name, Sattr3(), path).encode(),
        )
        return proto.SymlinkRes.decode(dec)

    def readlink(self, fh: FHandle):
        dec = yield from self.call(
            fh.home_site, proto.PROC_READLINK, proto.FhArgs(fh.pack()).encode()
        )
        return proto.ReadlinkRes.decode(dec)

    def remove(self, dir_fh: FHandle, name: str):
        site = self.config.entry_site(dir_fh, name)
        dec = yield from self.call(
            site, proto.PROC_REMOVE, proto.DirOpArgs(dir_fh.pack(), name).encode()
        )
        return proto.RemoveRes.decode(dec)

    def rmdir(self, dir_fh: FHandle, name: str):
        site = self.config.entry_site(dir_fh, name)
        dec = yield from self.call(
            site, proto.PROC_RMDIR, proto.DirOpArgs(dir_fh.pack(), name).encode()
        )
        return proto.RemoveRes.decode(dec)

    def rename(self, from_dir: FHandle, from_name: str, to_dir: FHandle, to_name: str):
        site = self.config.entry_site(to_dir, to_name)
        dec = yield from self.call(
            site, proto.PROC_RENAME,
            proto.RenameArgs(
                from_dir.pack(), from_name, to_dir.pack(), to_name
            ).encode(),
        )
        return proto.RenameRes.decode(dec)

    def link(self, fh: FHandle, dir_fh: FHandle, name: str):
        site = self.config.entry_site(dir_fh, name)
        dec = yield from self.call(
            site, proto.PROC_LINK,
            proto.LinkArgs(fh.pack(), dir_fh.pack(), name).encode(),
        )
        return proto.LinkRes.decode(dec)

    def getattr(self, fh: FHandle):
        dec = yield from self.call(
            fh.home_site, proto.PROC_GETATTR, proto.FhArgs(fh.pack()).encode()
        )
        return proto.GetattrRes.decode(dec)

    def setattr(self, fh: FHandle, sattr: Sattr3, guard=None):
        dec = yield from self.call(
            fh.home_site, proto.PROC_SETATTR,
            proto.SetattrArgs(fh.pack(), sattr, guard).encode(),
        )
        return proto.SetattrRes.decode(dec)

    def readdir_all(self, dir_fh: FHandle):
        """Iterate a directory across all logical sites, like the µproxy."""
        names = []
        if self.config.readdir_spans_sites():
            sites = [dir_fh.home_site] + [
                s for s in range(self.config.num_logical_sites)
                if s != dir_fh.home_site
            ]
        else:
            sites = [dir_fh.home_site]
        for site in sites:
            cookie = site << COOKIE_SITE_SHIFT
            if site == dir_fh.home_site:
                cookie = 0
            while True:
                dec = yield from self.call(
                    site, proto.PROC_READDIR,
                    proto.ReaddirArgs(dir_fh.pack(), cookie, 0, 4096).encode(),
                )
                res = proto.ReaddirRes.decode(dec)
                if res.status != 0:
                    return res.status, names
                names.extend(e.name for e in res.entries)
                if res.eof:
                    break
                cookie = res.entries[-1].cookie
        return 0, names

    def run(self, gen):
        return self.sim.run_process(gen)
