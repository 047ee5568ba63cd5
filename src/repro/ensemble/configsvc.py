"""Configuration service: the external source of µproxy routing tables.

The µproxy's routing tables are soft state ("the mapping is determined
externally, so the µproxy never modifies the tables", §3).  This small RPC
service is that external source: reconfiguration updates the tables here,
and µproxies lazily reload after a server answers MISDIRECTED.

Every reconfiguration — a single-site rebind or an atomically installed
:class:`~repro.reconfig.plan.RebindPlan` — bumps a cluster-wide **epoch**
that is stamped onto every table it touches.  Fetches are *conditional*:
a µproxy asks ``get(table, min_version)`` and the service answers
``NOT_MODIFIED`` when the caller is already fresh, instead of sending
every table on every fetch.

Both messages are declared XDR records: a fetched table travels as its
name, version, epoch and (host, port) entries.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping, NamedTuple, Sequence

from repro.net import Address, Host
from repro.rpc import RpcServer
from repro.rpc import xdr
from repro.rpc.xdr import Decoder, XdrError
from repro.core.routing import RoutingTable
from repro.util.bytesim import EMPTY

__all__ = [
    "ConfigService",
    "ConfigFetch",
    "ConfigGetArgs",
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


@xdr.record(xdr.string(256), xdr.U64)
class ConfigGetArgs(NamedTuple):
    """CONFIG_GET arguments.

    ``table`` names a single routing table, or ``"*"`` for all of them.
    ``min_version`` makes the fetch conditional: the service answers
    ``NOT_MODIFIED`` when the named table's version (or, for ``"*"``,
    the cluster epoch) is still <= ``min_version``.  ``0`` fetches
    unconditionally.
    """

    table: str = ALL_TABLES
    min_version: int = 0


_TABLES = xdr.array(xdr.tuple_of(
    xdr.string(256), xdr.U64, xdr.U64,
    xdr.array(xdr.tuple_of(xdr.string(255), xdr.U32)),
))


def _put_tables(enc, tables: Mapping[str, RoutingTable]) -> None:
    _TABLES.put(enc, [
        (name, table.version, table.epoch,
         [(addr.host, addr.port) for addr in table.entries])
        for name, table in tables.items()
    ])


def _get_tables(dec: Decoder) -> Dict[str, RoutingTable]:
    try:
        return {
            name: RoutingTable([Address(host, port) for host, port in entries],
                               version, epoch)
            for name, version, epoch, entries in _TABLES.get(dec)
        }
    except ValueError as exc:  # an empty table or a port past 16 bits
        raise XdrError(f"bad routing table: {exc}") from None


@xdr.record(xdr.U32, xdr.U64, xdr.ok(xdr.Field(_put_tables, _get_tables)))
class ConfigFetch(NamedTuple):
    """CONFIG_GET reply: the tables follow only a CONFIG_OK status."""

    status: int
    epoch: int
    tables: Mapping[str, RoutingTable] = MappingProxyType({})

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
        name, min_version = ConfigGetArgs.decode(dec)
        if name == ALL_TABLES:
            fresh = min_version >= self.epoch
            tables = self.tables
        else:
            table = self.tables.get(name)
            if table is None:
                from repro.rpc.endpoint import RpcAcceptError
                from repro.rpc.messages import GARBAGE_ARGS

                raise RpcAcceptError(GARBAGE_ARGS)
            fresh = min_version >= table.version
            tables = {name: table}
        if fresh and min_version > 0:
            self.not_modified += 1
            return ConfigFetch(CONFIG_NOT_MODIFIED, self.epoch).encode(), EMPTY
        return ConfigFetch(CONFIG_OK, self.epoch, tables).encode(), EMPTY
