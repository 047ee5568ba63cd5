"""Configuration service: the external source of µproxy routing tables.

The µproxy's routing tables are soft state ("the mapping is determined
externally, so the µproxy never modifies the tables", §3).  This small RPC
service is that external source: reconfiguration updates the tables here,
and µproxies lazily reload after a server answers MISDIRECTED.

Every reconfiguration — a single-site rebind or an atomically installed
:class:`~repro.reconfig.plan.RebindPlan` — bumps a cluster-wide **epoch**
that is stamped onto every table it touches.  Fetches are *conditional*:
a µproxy asks ``get(table, min_version)`` and the service answers
``NOT_MODIFIED`` when the caller is already fresh, instead of JSON-dumping
every table on every fetch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.net import Address, Host
from repro.rpc import RpcServer
from repro.rpc.xdr import Decoder, Encoder
from repro.core.routing import RoutingTable
from repro.util.bytesim import EMPTY

__all__ = [
    "ConfigService",
    "ConfigFetch",
    "decode_tables",
    "encode_config_get",
    "SLICE_CONFIG_PROGRAM",
    "CONFIG_GET",
    "CONFIG_PORT",
    "CONFIG_OK",
    "CONFIG_NOT_MODIFIED",
    "ALL_TABLES",
]

SLICE_CONFIG_PROGRAM = 395903
CONFIG_V1 = 1
CONFIG_GET = 1
CONFIG_PORT = 7049

#: fetch-reply status codes
CONFIG_OK = 0
CONFIG_NOT_MODIFIED = 1

#: wildcard table name: fetch every table, conditioned on the epoch
ALL_TABLES = "*"


def encode_config_get(table: str = ALL_TABLES, min_version: int = 0) -> bytes:
    """Encode a CONFIG_GET request body.

    ``table`` names a single routing table, or ``"*"`` for all of them.
    ``min_version`` makes the fetch conditional: the service answers
    ``NOT_MODIFIED`` when the named table's version (or, for ``"*"``,
    the cluster epoch) is still <= ``min_version``.  ``0`` fetches
    unconditionally.
    """
    enc = Encoder()
    enc.string(table)
    enc.u64(min_version)
    return enc.to_bytes()


@dataclass
class ConfigFetch:
    """Decoded CONFIG_GET reply."""

    status: int
    epoch: int
    tables: Dict[str, RoutingTable] = field(default_factory=dict)

    @property
    def modified(self) -> bool:
        return self.status == CONFIG_OK


class ConfigService:
    """Authoritative registry of named routing tables."""

    def __init__(self, sim, host: Host, port: int = CONFIG_PORT,
                 tracer=None):
        self.sim = sim
        self.host = host
        self.tables: Dict[str, RoutingTable] = {}
        self.server = RpcServer(host, port)
        self.server.register(SLICE_CONFIG_PROGRAM, self._service)
        self.fetches = 0
        self.not_modified = 0
        #: cluster-wide reconfiguration epoch; bumped once per installed
        #: change (single rebind or whole RebindPlan), never per table.
        self.epoch = 1
        self.tracer = tracer

    @property
    def address(self):
        return self.server.address

    def set_table(self, name: str, table: RoutingTable) -> None:
        table.epoch = self.epoch
        self.tables[name] = table

    def get_table(self, name: str) -> RoutingTable:
        return self.tables[name]

    def rebind(self, name: str, site: int, address) -> int:
        """Reconfiguration: point one logical site at a new server.

        Bumps the cluster epoch and the table's version; returns the new
        epoch.  The target version is computed here from the installed
        table so two same-generation rebinds serialize through the
        service instead of colliding.
        """
        table = self.tables[name]
        self.epoch += 1
        table.rebind(site, address, table.version + 1)
        table.epoch = self.epoch
        if self.tracer is not None:
            self.tracer.rebind_installed(
                self.epoch, moves=[(name, site)],
            )
        return self.epoch

    def install(self, new_entries: Dict[str, Sequence[Address]]) -> int:
        """Atomically install new entry lists for several tables.

        All tables change under a *single* epoch bump — a µproxy either
        sees the whole new generation or the whole old one.  Returns the
        new epoch.
        """
        self.epoch += 1
        moves = []
        for name, entries in new_entries.items():
            table = self.tables[name]
            old = list(table.entries)
            table.replace(list(entries), table.version + 1, epoch=self.epoch)
            for site, addr in enumerate(table.entries):
                if site >= len(old) or old[site] != addr:
                    moves.append((name, site))
        if self.tracer is not None:
            self.tracer.rebind_installed(self.epoch, moves=moves)
        return self.epoch

    def _service(self, proc: int, dec: Decoder, body, src):
        yield from ()
        if proc != CONFIG_GET:
            from repro.rpc.endpoint import RpcAcceptError
            from repro.rpc.messages import PROC_UNAVAIL

            raise RpcAcceptError(PROC_UNAVAIL)
        self.fetches += 1
        # Legacy unconditional fetch: empty body == get("*", 0).
        if dec.remaining == 0:
            name, min_version = ALL_TABLES, 0
        else:
            name = dec.string(256)
            min_version = dec.u64()
        enc = Encoder()
        if name == ALL_TABLES:
            fresh = min_version >= self.epoch
            doc = {n: t.to_wire() for n, t in self.tables.items()}
        else:
            table = self.tables.get(name)
            if table is None:
                from repro.rpc.endpoint import RpcAcceptError
                from repro.rpc.messages import GARBAGE_ARGS

                raise RpcAcceptError(GARBAGE_ARGS)
            fresh = min_version >= table.version
            doc = {name: table.to_wire()}
        if fresh and min_version > 0:
            self.not_modified += 1
            enc.u32(CONFIG_NOT_MODIFIED)
            enc.u64(self.epoch)
            return enc.to_bytes(), EMPTY
        enc.u32(CONFIG_OK)
        enc.u64(self.epoch)
        enc.string(json.dumps(doc, separators=(",", ":")))
        return enc.to_bytes(), EMPTY


def decode_tables(dec: Decoder) -> ConfigFetch:
    """Decode a CONFIG_GET reply into a :class:`ConfigFetch`.

    ``fetch.tables`` is empty when the reply is ``NOT_MODIFIED``.
    """
    status = dec.u32()
    epoch = dec.u64()
    if status == CONFIG_NOT_MODIFIED:
        return ConfigFetch(status, epoch)
    doc = json.loads(dec.string(1 << 20))
    return ConfigFetch(
        status, epoch,
        {name: RoutingTable.from_wire(w) for name, w in doc.items()},
    )
