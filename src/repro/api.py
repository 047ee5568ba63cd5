"""Declarative front door for building Slice ensembles.

Most experiments want "a cluster with N storage nodes, a tracer, maybe a
fault plan" without reaching into the wiring.  :class:`ClusterSpec` is the
one-stop description and :func:`build` (or the equivalent
``SliceCluster.from_spec``) turns it into a running ensemble::

    from repro.api import ClusterSpec, build

    spec = ClusterSpec(storage_nodes=4, storage_sites=32, trace=True)
    cluster = build(spec)
    client, _ = cluster.add_client()
    ...
    spec_report = cluster.tracer.summary()

The spec is intentionally small: common knobs are first-class fields and
everything else is reachable through ``params`` (a full
:class:`~repro.ensemble.params.ClusterParams` override) without giving up
the declarative shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ensemble.params import ClusterParams

__all__ = ["ClusterSpec", "build"]


@dataclass
class ClusterSpec:
    """Declarative description of one Slice ensemble."""

    #: component counts
    storage_nodes: int = 8
    dir_servers: int = 1
    sf_servers: int = 2
    coordinators: int = 1
    #: logical bulk-storage sites (None = one per node; set higher — e.g.
    #: 8x the node count — to make online rebalancing fine-grained)
    storage_sites: Optional[int] = None
    #: behaviour knobs
    mirror_files: bool = False
    use_block_maps: bool = False
    #: sets ``params.net.verify_checksums`` (off = NIC checksum offload)
    verify_checksums: bool = True
    #: observability: attach a Tracer (and run the TraceChecker afterwards)
    trace: bool = False
    #: deterministic chaos: a repro.faults.FaultPlan armed on the network
    fault_plan: object = None
    #: escape hatch: a fully-built ClusterParams overriding every count
    #: and knob above except ``trace`` / ``fault_plan``
    params: Optional[ClusterParams] = None

    def to_params(self) -> ClusterParams:
        """Materialize the ClusterParams this spec describes."""
        if self.params is not None:
            return self.params
        params = ClusterParams(
            num_storage_nodes=self.storage_nodes,
            num_dir_servers=self.dir_servers,
            num_sf_servers=self.sf_servers,
            num_coordinators=self.coordinators,
            storage_logical_sites=self.storage_sites,
            mirror_files=self.mirror_files,
        )
        params.io.use_block_maps = self.use_block_maps
        params.net.verify_checksums = self.verify_checksums
        return params


def build(spec: ClusterSpec, cluster_cls=None):
    """Build a :class:`~repro.ensemble.cluster.SliceCluster` from a spec."""
    from repro.ensemble.cluster import SliceCluster

    cluster_cls = cluster_cls or SliceCluster
    tracer = None
    if spec.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    cluster = cluster_cls(params=spec.to_params(), tracer=tracer)
    if spec.fault_plan is not None:
        from repro.faults.injector import FaultInjector

        cluster.net.fault_injector = FaultInjector(
            plan=spec.fault_plan, epoch=cluster.sim.now, tracer=tracer
        )
    return cluster
