"""Slice: interposed request routing for scalable network storage.

A complete reproduction of Anderson, Chase & Vahdat (OSDI 2000).  The
public API surface:

- :class:`repro.ensemble.cluster.SliceCluster` — build a whole ensemble
  (storage nodes, coordinators, directory servers, small-file servers,
  config service) and attach clients with interposed µproxies.
- :class:`repro.ensemble.params.ClusterParams` — testbed configuration.
- :class:`repro.core.UProxy` — the request-routing packet filter itself.
- :class:`repro.nfs.client.NfsClient` — the NFS V3 client.
- ``repro.workloads`` — untar, dd, and SPECsfs97-style generators.

Quickstart::

    from repro import SliceCluster, ClusterParams

    cluster = SliceCluster(params=ClusterParams(num_storage_nodes=8))
    client, uproxy = cluster.add_client()

    def session():
        made = yield from client.mkdir(cluster.root_fh, "home")
        ...

    cluster.run(session())
"""

from repro.core import CostModel, IoPolicy, ProxyParams, RoutingTable, UProxy
from repro.dirsvc import MKDIR_SWITCHING, NAME_HASHING, NameConfig
from repro.ensemble.baseline import BaselineParams, MonolithicServer
from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.nfs.client import ClientParams, NfsClient
from repro.reconfig import Rebalancer, RebindPlan
from repro.sim import Simulator

__version__ = "1.1.0"

__all__ = [
    "BaselineParams",
    "ClientParams",
    "ClusterParams",
    "CostModel",
    "IoPolicy",
    "MKDIR_SWITCHING",
    "MonolithicServer",
    "NAME_HASHING",
    "NameConfig",
    "NfsClient",
    "ProxyParams",
    "Rebalancer",
    "RebindPlan",
    "RoutingTable",
    "SliceCluster",
    "Simulator",
    "UProxy",
    "__version__",
]
