"""Slice ensemble builder.

Wires together the full Figure-1 architecture on a simulated switched LAN:
network storage nodes, block-service coordinators, directory servers,
small-file servers, the configuration service, and — per client — a µproxy
interposed on the client host's network path to the virtual NFS server.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

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
                    p.coordinator, tracer=tracer,
                )
            )
        self.coordinator_addrs = [c.address for c in self.coordinators]

        # -- directory servers ---------------------------------------------------
        self.dir_servers: List[DirectoryServer] = []
        self.dir_log_devices: List["LogDevice"] = []
        for i in range(p.num_dir_servers):
            host = self.net.add_host(f"dir{i}")
            sites = [
                s for s in range(p.dir_logical_sites)
                if s % p.num_dir_servers == i
            ]
            server = DirectoryServer(
                self.sim, host, self.name_config, self.backing, sites,
                peer_lookup=self._dir_addr_for_site,
                coordinator=self.coordinator_addrs[0] if self.coordinators else None,
                params=p.dirsvc,
                mirror_files=p.mirror_files,
                tracer=tracer,
            )
            self.dir_servers.append(server)
            # Each manager journals to its own dedicated log spindle; all of
            # its logical sites' flushes append to the one sequential stream.
            device = LogDevice(self.sim)
            self.dir_log_devices.append(device)
            for site in sites:
                log = self.backing.site("dir", site).log
                log.write_cost = device.cost_fn()

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

    def start_telemetry(self, interval: float = 0.05, maxlen: int = 512):
        """Arm time-series telemetry on this (traced) cluster.

        Installs the standard gauge set for every component (see
        :func:`repro.obs.timeseries.install_cluster_gauges`) and starts a
        :class:`~repro.obs.timeseries.TimeSeriesSampler` ticking every
        ``interval`` simulated seconds.  Idempotent; returns the sampler.
        Components added later (clients, scale-out storage nodes) are
        instrumented automatically.
        """
        if self.tracer is None:
            raise ValueError(
                "telemetry needs a traced cluster: "
                "SliceCluster(tracer=Tracer()) or REPRO_TRACE=1"
            )
        from repro.obs.timeseries import (
            TimeSeriesSampler,
            install_cluster_gauges,
        )

        install_cluster_gauges(self)
        if self._telemetry is None:
            self._telemetry = TimeSeriesSampler(
                self.sim, self.tracer.metrics,
                interval=interval, maxlen=maxlen,
            ).start()
        return self._telemetry

    @property
    def telemetry(self):
        """The running sampler, or None before :meth:`start_telemetry`."""
        return self._telemetry

    def _watch_new_component(self) -> None:
        """Re-install gauges after topology growth (no-op when untraced)."""
        # getattr: _new_storage_node runs during __init__, before the
        # _telemetry attribute exists.
        if getattr(self, "_telemetry", None) is not None:
            from repro.obs.timeseries import install_cluster_gauges

            install_cluster_gauges(self)

    # -- wiring helpers -----------------------------------------------------

    def _new_storage_node(self) -> StorageNode:
        """Bring up one more storage-node host (unbound to any site yet)."""
        i = self._next_store_index
        self._next_store_index += 1
        host = self.net.add_host(f"store{i}", cpu_speedup=1.6)
        node = StorageNode(self.sim, host, self.params.storage,
                           tracer=self.tracer)
        self.storage_nodes.append(node)
        self._watch_new_component()
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
            self.storage_addrs,
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
        self._watch_new_component()
        return client, proxy

    # -- reconfiguration ------------------------------------------------------

    @classmethod
    def from_spec(cls, spec) -> "SliceCluster":
        """Build a cluster from a declarative :class:`repro.api.ClusterSpec`."""
        from repro.api import build

        return build(spec, cluster_cls=cls)

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
        """Scale out the directory service by one manager (synchronous).

        Directory cells live in the shared backing registry, so moving a
        logical site is an unload/load pair — no bulk copy.  The whole
        plan installs under a single epoch bump; stale µproxies learn via
        MISDIRECTED.  Returns the applied plan.
        """
        from repro.reconfig import plan_add_server

        p = self.params
        host = self.net.add_host(f"dir{len(self.dir_servers)}")
        server = DirectoryServer(
            self.sim, host, self.name_config, self.backing, [],
            peer_lookup=self._dir_addr_for_site,
            coordinator=self.coordinator_addrs[0] if self.coordinators else None,
            params=p.dirsvc,
            mirror_files=p.mirror_files,
            tracer=self.tracer,
        )
        self.dir_servers.append(server)
        device = LogDevice(self.sim)
        self.dir_log_devices.append(device)
        plan = plan_add_server("dir", self.dir_table, server.address)
        for move in plan.moves_for("dir"):
            old_server = next(
                s for s in self.dir_servers if s.address == move.src
            )
            old_server.unload_site(move.site)
            server.load_site(move.site)
            log = self.backing.site("dir", move.site).log
            log.write_cost = device.cost_fn()
        self.configsvc.install(plan.tables)
        return plan

    def add_sf_server(self):
        """Scale out the small-file service by one server (synchronous).

        Small-file zones also live in the backing registry (their data is
        striped across the storage nodes), so site moves are unload/load
        pairs with no bulk copy.  Returns the applied plan.
        """
        from repro.reconfig import plan_add_server

        if self.sf_table is None:
            raise ValueError("cluster has no small-file service")
        p = self.params
        host = self.net.add_host(f"sf{len(self.sf_servers)}")
        server = SmallFileServer(
            self.sim, host, self.backing, [], self.storage_addrs,
            p.sf_logical_sites, p.smallfile, tracer=self.tracer,
        )
        self.sf_servers.append(server)
        plan = plan_add_server("sf", self.sf_table, server.address)
        for move in plan.moves_for("sf"):
            old_server = next(
                s for s in self.sf_servers if s.address == move.src
            )
            old_server.unload_site(move.site)
            server.load_site(move.site)
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
        moved = old_server.unload_site(site)
        target = self.dir_servers[to_server]
        target.load_site(site)
        log = self.backing.site("dir", site).log
        log.write_cost = self.dir_log_devices[to_server].cost_fn()
        self.configsvc.rebind("dir", site, target.address)
        return moved

    def run(self, gen, name: str = "driver"):
        """Run a generator to completion on the cluster's simulator."""
        return self.sim.run_process(gen, name)
