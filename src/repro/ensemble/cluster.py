"""Slice ensemble builder.

Wires together the full Figure-1 architecture on a simulated switched LAN:
network storage nodes, block-service coordinators, directory servers,
small-file servers, the configuration service, and — per client — a µproxy
interposed on the client host's network path to the virtual NFS server.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.core import CostModel, ProxyParams, RoutingTable, UProxy
from repro.core.placement import StaticPlacement
from repro.dirsvc import (
    BackingRegistry,
    DirectoryServer,
    NameConfig,
    SiteState,
    make_root_cell,
)
from repro.net import Address, Network
from repro.nfs.client import ClientParams, NfsClient
from repro.sim import Simulator
from repro.smallfile import SmallFileServer
from repro.storage.coordinator import Coordinator
from repro.storage.disk import LogDevice
from repro.storage.node import StorageNode
from .configsvc import ConfigService
from .params import ClusterParams

__all__ = ["SliceCluster"]


class SliceCluster:
    """One complete Slice ensemble plus its clients."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        params: Optional[ClusterParams] = None,
        tracer=None,
    ):
        self.sim = sim or Simulator()
        self.params = params or ClusterParams()
        if tracer is None and os.environ.get("REPRO_TRACE"):
            from repro.obs import Tracer

            tracer = Tracer()
        self.tracer = tracer
        p = self.params
        self.net = Network(self.sim, p.net, tracer=tracer)
        self.name_config: NameConfig = p.name_config()
        self.virtual = Address("slice-fs", 2049)

        # -- storage nodes ---------------------------------------------------
        self.storage_nodes: List[StorageNode] = []
        self._next_store_index = 0
        for _ in range(p.num_storage_nodes):
            self._new_storage_node()
        self.storage_addrs = [n.address for n in self.storage_nodes]

        # -- shared backing state for dataless managers ------------------------
        self.backing = BackingRegistry(self.sim)
        root_state = SiteState(0)
        root_state.put_attr_cell(make_root_cell())
        self.backing.site("dir", 0).checkpoint(root_state.snapshot())

        # -- small-file servers ------------------------------------------------
        self.sf_servers: List[SmallFileServer] = []
        for i in range(p.num_sf_servers):
            host = self.net.add_host(f"sf{i}")
            sites = [
                s for s in range(p.sf_logical_sites)
                if s % p.num_sf_servers == i
            ]
            self.sf_servers.append(
                SmallFileServer(
                    self.sim, host, self.backing, sites, self.storage_addrs,
                    p.sf_logical_sites, p.smallfile, tracer=tracer,
                )
            )

        # -- coordinators ------------------------------------------------------
        data_sites = self.storage_addrs + [s.address for s in self.sf_servers]
        self.coordinators: List[Coordinator] = []
        for i in range(p.num_coordinators):
            host = self.net.add_host(f"coord{i}")
            self.coordinators.append(
                Coordinator(
                    self.sim, host, data_sites, p.num_storage_nodes,
                    tracer=tracer,
                )
            )
        self.coordinator_addrs = [c.address for c in self.coordinators]

        # -- directory servers ---------------------------------------------------
        self.dir_servers: List[DirectoryServer] = []
        for i in range(p.num_dir_servers):
            host = self.net.add_host(f"dir{i}")
            sites = [
                s for s in range(p.dir_logical_sites)
                if s % p.num_dir_servers == i
            ]
            server = DirectoryServer(
                self.sim, host, self.name_config, self.backing, sites,
                peer_lookup=self._dir_addr_for_site,
                coordinators=self.coordinator_addrs,
                mirror_files=p.mirror_files,
                tracer=tracer,
            )
            self.dir_servers.append(server)

        # -- routing tables & configuration service ---------------------------------
        self.dir_table = RoutingTable(
            [
                self.dir_servers[s % p.num_dir_servers].address
                for s in range(p.dir_logical_sites)
            ]
        )
        self.sf_table = RoutingTable(
            [
                self.sf_servers[s % p.num_sf_servers].address
                for s in range(p.sf_logical_sites)
            ]
        ) if self.sf_servers else None
        self.storage_logical_sites = (
            p.storage_logical_sites or p.num_storage_nodes
        )
        self.storage_table = RoutingTable(
            [
                self.storage_addrs[s % p.num_storage_nodes]
                for s in range(self.storage_logical_sites)
            ]
        )
        config_host = self.net.add_host("configsvc")
        self.configsvc = ConfigService(self.sim, config_host, tracer=tracer)
        self.configsvc.set_table("dir", self.dir_table)
        if self.sf_table is not None:
            self.configsvc.set_table("sf", self.sf_table)
        self.configsvc.set_table("storage", self.storage_table)
        self._arm_site_checks()

        self.root_fh = make_root_cell().to_fh(1).pack()
        self.clients: List[Tuple[NfsClient, UProxy]] = []
        self._telemetry = None  # TimeSeriesSampler once start_telemetry()

    # -- telemetry ----------------------------------------------------------

    def _scoped_components(self):
        """``("<scope>:<host>.", component)`` for every live component.

        The lists are walked on every call, so whatever any ``add_*``
        method brought up is included.
        """
        groups = (
            ("storage", self.storage_nodes),
            ("uproxy", [proxy for _client, proxy in self.clients]),
            ("dirsvc", self.dir_servers),
            ("sf", self.sf_servers),
            ("coord", self.coordinators),
        )
        for scope, components in groups:
            for component in components:
                yield f"{scope}:{component.host.name}.", component

    def gauges(self) -> Dict[str, float]:
        """Every component's current readings as ``"scope.name"`` keys.

        Scopes are ``storage:<host>``, ``uproxy:<host>``, ``dirsvc:<host>``,
        ``sf:<host>``, ``coord:<host>`` and ``net`` (per-host switch port
        and NIC), plus ``coord.intents_open`` from the tracer's intent
        ledger when there is one.
        """
        out: Dict[str, float] = {}
        for prefix, component in self._scoped_components():
            for name, value in component.gauges().items():
                out[prefix + name] = value
        if self.tracer is not None:
            out["coord.intents_open"] = self.tracer.open_intent_count
        for name, host in self.net.hosts.items():
            port = self.net.output_port(name)
            out[f"net.port_{name}_queue"] = port.queue_length
            out[f"net.port_{name}_util"] = port.utilization()
            out[f"net.nic_{name}_queue"] = (
                host.nic_tx.queue_length + host.nic_tx.in_use
            )
        return out

    def counters(self) -> Dict[str, int]:
        """Every component's cumulative counts as ``"scope.name"`` keys.

        Same scopes as :meth:`gauges`, plus the fabric totals under
        ``net`` and, when traced, the tracer's route, absorb and split
        counts (``uproxy.route.<reason>``, ...).
        """
        out: Dict[str, int] = {}
        for prefix, component in self._scoped_components():
            for name, value in component.counters().items():
                out[prefix + name] = value
        for name, value in self.net.counters().items():
            out["net." + name] = value
        if self.tracer is not None:
            out.update(self.tracer.counts)
        return out

    def start_telemetry(self, interval: float = 0.05, maxlen: int = 512):
        """Arm time-series telemetry on this cluster, traced or not.

        Starts a :class:`~repro.obs.timeseries.TimeSeriesSampler` that
        records :meth:`gauges` every ``interval`` simulated seconds, plus
        the per-second rate of every :meth:`counters` entry.  Idempotent;
        returns the sampler.
        """
        from repro.obs.timeseries import TimeSeriesSampler

        if self._telemetry is None:
            self._telemetry = TimeSeriesSampler(
                self.sim, self.gauges, self.counters,
                interval=interval, maxlen=maxlen,
            ).start()
        return self._telemetry

    @property
    def telemetry(self):
        """The running sampler, or None before :meth:`start_telemetry`."""
        return self._telemetry

    @property
    def dir_log_devices(self) -> List[LogDevice]:
        """Each directory server's log spindle, in server order."""
        return [server.core.log_device for server in self.dir_servers]

    # -- wiring helpers -----------------------------------------------------

    def _new_storage_node(self) -> StorageNode:
        """Bring up one more storage-node host (unbound to any site yet)."""
        i = self._next_store_index
        self._next_store_index += 1
        host = self.net.add_host(f"store{i}", cpu_speedup=1.6)
        node = StorageNode(self.sim, host, self.params.storage,
                           tracer=self.tracer)
        self.storage_nodes.append(node)
        return node

    def _arm_site_checks(self) -> None:
        """(Re)derive every node's hosted-site set from the storage table.

        Each node gets its own placement sized to the routing table, so it
        recomputes exactly the (file, block) -> site mapping the µproxies
        use and can answer MISDIRECTED for sites it no longer hosts."""
        for node in self.storage_nodes:
            placement = StaticPlacement(
                self.storage_table.num_sites, self.params.io
            )
            node.configure_sites(
                self.storage_table.sites_of(node.address),
                placement, self.params.io,
            )

    def _dir_addr_for_site(self, site: int) -> Address:
        return self.dir_table.lookup(site)

    def storage_node_at(self, address: Address) -> StorageNode:
        """The storage node bound to a physical address."""
        for node in self.storage_nodes:
            if node.address == address:
                return node
        raise KeyError(f"no storage node at {address}")

    # -- clients ----------------------------------------------------------

    def add_client(
        self,
        name: Optional[str] = None,
        *,
        client_params: Optional[ClientParams] = None,
        proxy_params: Optional[ProxyParams] = None,
        cost: Optional[CostModel] = None,
        port: int = 700,
    ) -> Tuple[NfsClient, UProxy]:
        """Attach a client host with an interposed µproxy; returns both."""
        name = name or f"client{len(self.clients)}"
        host = self.net.add_host(name)
        proxy = UProxy(
            self.sim, host, self.virtual, self.name_config, self.params.io,
            self.dir_table.copy(),
            self.sf_table.copy() if self.sf_table is not None else None,
            storage_table=self.storage_table.copy(),
            coordinators=self.coordinator_addrs,
            configsvc=self.configsvc.address,
            cost=cost,
            params=proxy_params,
            proxy_id=len(self.clients) + 1,
            tracer=self.tracer,
        )
        cp = client_params or self.params.client
        client = NfsClient(self.sim, host, self.virtual, port=port, params=cp)
        self.clients.append((client, proxy))
        return client, proxy

    # -- reconfiguration ------------------------------------------------------

    def add_storage_node(self):
        """Elastic scale-out: bring up one more storage node.

        Spawns the node (initially hosting no sites) and returns the
        :class:`~repro.reconfig.plan.RebindPlan` that rebinds ~1/Nth of
        the storage sites onto it.  Nothing changes until the plan is
        executed — run ``cluster.rebalance(plan)`` (a generator) while
        the cluster keeps serving clients.
        """
        from repro.reconfig import plan_add_server

        node = self._new_storage_node()
        node.configure_sites(
            [], StaticPlacement(self.storage_table.num_sites, self.params.io),
            self.params.io,
        )
        self.storage_addrs.append(node.address)
        return plan_add_server("storage", self.storage_table, node.address)

    def remove_storage_node(self, node):
        """Elastic scale-in: plan the drain of one storage node.

        Returns the plan respreading the node's sites over the remaining
        nodes; after ``cluster.rebalance(plan)`` completes the node hosts
        nothing and can be powered off.
        """
        from repro.reconfig import plan_remove_server

        address = node.address if isinstance(node, StorageNode) else node
        return plan_remove_server("storage", self.storage_table, address)

    def rebalance(self, plan):
        """Generator: execute a storage RebindPlan against the live cluster.

        Installs the plan atomically at the configuration service (one
        epoch bump) and migrates the affected objects while clients keep
        running; see :class:`repro.reconfig.Rebalancer`.
        """
        from repro.reconfig import Rebalancer

        if not hasattr(self, "_rebalancer"):
            self._rebalancer = Rebalancer(self)
        return self._rebalancer.apply(plan)

    def add_dir_server(self):
        """Scale out the directory service by one manager (synchronous);
        stale µproxies learn via MISDIRECTED.  Returns the applied plan."""
        p = self.params
        host = self.net.add_host(f"dir{len(self.dir_servers)}")
        server = DirectoryServer(
            self.sim, host, self.name_config, self.backing, [],
            peer_lookup=self._dir_addr_for_site,
            coordinators=self.coordinator_addrs,
            mirror_files=p.mirror_files,
            tracer=self.tracer,
        )
        return self._add_manager("dir", self.dir_servers, self.dir_table, server)

    def add_sf_server(self):
        """Scale out the small-file service by one server (synchronous).
        Returns the applied plan."""
        if self.sf_table is None:
            raise ValueError("cluster has no small-file service")
        p = self.params
        host = self.net.add_host(f"sf{len(self.sf_servers)}")
        server = SmallFileServer(
            self.sim, host, self.backing, [], self.storage_addrs,
            p.sf_logical_sites, p.smallfile, tracer=self.tracer,
        )
        return self._add_manager("sf", self.sf_servers, self.sf_table, server)

    def _add_manager(self, kind: str, servers: List, table: RoutingTable,
                     server):
        """Add ``server`` and move it its share of ``kind`` sites under one
        epoch bump.  Each move is an unload/load pair, no bulk copy: the
        sites live in the backing registry (a small-file zone's data is
        striped across the storage nodes)."""
        from repro.reconfig import plan_add_server

        servers.append(server)
        plan = plan_add_server(kind, table, server.address)
        for move in plan.moves_for(kind):
            old_server = next(s for s in servers if s.address == move.src)
            old_server.core.unload(move.site)
            server.core.load(move.site)
        self.configsvc.install(plan.tables)
        return plan

    def move_dir_site(self, site: int, to_server: int) -> int:
        """Migrate one logical directory site to another physical server.

        Updates the authoritative table at the config service only; stale
        µproxies learn via MISDIRECTED.  Returns the number of cells moved.
        """
        old_addr = self.dir_table.lookup(site)
        old_server = next(
            s for s in self.dir_servers if s.address == old_addr
        )
        moved = old_server.core.unload(site).cell_count()
        target = self.dir_servers[to_server]
        target.core.load(site)
        self.configsvc.rebind("dir", site, target.address)
        return moved

    def run(self, gen, name: str = "driver"):
        """Run a generator to completion on the cluster's simulator."""
        return self.sim.run_process(gen, name)
