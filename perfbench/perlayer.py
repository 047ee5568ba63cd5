"""Per-layer counters of one traced repetition, read from public state.

:func:`snapshot` reads cumulative counters of every component once;
:func:`layer_metrics` turns two snapshots (taken around the measured
phase) plus the layer clock into the per-layer metrics.
"""

from __future__ import annotations

from typing import Dict, List

from metrics import Metric, ratio


def classify(workload, instr) -> None:
    """Tell the instrumentation which resources to sum waits for."""
    c = workload.cluster
    instr.classify_resources({
        "net.port": [c.net.output_port(n) for n in c.net.hosts],
        "dirsvc.cpu": [s.host.cpu for s in c.dir_servers],
        "smallfile.cpu": [s.host.cpu for s in c.sf_servers],
        "storage.cpu": [n.host.cpu for n in c.storage_nodes],
        "storage.disk": [d.arm for n in c.storage_nodes
                         for d in n.array.disks],
        "wal.disk": [d.disk.arm for d in c.dir_log_devices],
    })


def _logs(cluster) -> List:
    p = cluster.params
    logs = [
        cluster.backing.site(kind, site).log
        for kind, count in (("dir", p.dir_logical_sites),
                            ("sf", p.sf_logical_sites))
        for site in range(count)
        if (kind, site) in cluster.backing
    ]
    return logs + [coord.log for coord in cluster.coordinators]


def snapshot(workload, instr) -> Dict[str, float]:
    c = workload.cluster
    net = c.net
    proxies = [proxy for _client, proxy in c.clients]
    nodes = c.storage_nodes
    disks = [d for n in nodes for d in n.array.disks]
    logs = _logs(c)
    s: Dict[str, float] = {
        "now": c.sim.now,
        "net.packets": net.packets_delivered,
        "net.bytes": net.bytes_delivered,
        "net.packets_dropped": net.packets_dropped,
        "net.checksum_bytes": instr.checksum_bytes,
        "nfs.ops_sent": sum(client.ops_sent for client, _p in c.clients),
        "rpc.retransmissions": sum(r.retransmissions for r in instr.rpc_clients),
        "rpc.duplicates_replayed": sum(
            r.duplicates_replayed for r in instr.rpc_servers),
        "core.requests_routed": sum(p.requests_routed for p in proxies),
        "core.replies_returned": sum(p.replies_returned for p in proxies),
        "core.synthesized": sum(p.synthesized for p in proxies),
        "core.attr_hits": sum(p.attr_cache.hits for p in proxies),
        "core.attr_misses": sum(p.attr_cache.misses for p in proxies),
        "core.bmap_hits": sum(p.block_maps.hits for p in proxies),
        "core.bmap_misses": sum(p.block_maps.misses for p in proxies),
        "dirsvc.ops_served": sum(d.ops_served for d in c.dir_servers),
        "dirsvc.cross_site_ops": sum(d.cross_site_ops for d in c.dir_servers),
        "dirsvc.cpu_busy": sum(d.host.cpu.busy_time() for d in c.dir_servers),
        "wal.syncs": sum(log.syncs for log in logs),
        "wal.records": sum(log.stable_count for log in logs),
        "wal.bytes_logged": sum(log.bytes_logged for log in logs),
        "smallfile.reads": sum(s.reads for s in c.sf_servers),
        "smallfile.writes": sum(s.writes for s in c.sf_servers),
        "smallfile.backing_reads": sum(s.backing_reads for s in c.sf_servers),
        "smallfile.cpu_busy": sum(s.host.cpu.busy_time() for s in c.sf_servers),
        "storage.ops": sum(n.reads + n.writes for n in nodes),
        "storage.user_bytes": sum(n.bytes_read + n.bytes_written for n in nodes),
        "storage.cache_hits": sum(n.cache.hits for n in nodes),
        "storage.cache_misses": sum(n.cache.misses for n in nodes),
        "storage.seeks": sum(d.seeks for d in disks),
        "storage.disk_bytes": sum(d.bytes_moved for d in disks),
        "storage.cpu_busy": sum(n.host.cpu.busy_time() for n in nodes),
        "coord.intents_logged": sum(k.intents_logged for k in c.coordinators),
    }
    for name, stats in net.link_stats().items():
        s[f"port:{name}"] = stats["busy_time"]
    for i, disk in enumerate(disks):
        s[f"disk:{i}"] = disk.arm.busy_time()
    for i, device in enumerate(c.dir_log_devices):
        s[f"log:{i}"] = device.disk.arm.busy_time()
    return s


def _max_util(before, after, prefix: str, elapsed: float) -> float:
    return max(
        [(after[k] - before.get(k, 0.0)) / elapsed
         for k in after if k.startswith(prefix)] or [0.0]
    )


def layer_metrics(workload, instr, before, after, untraced_wall: float,
                  traced_wall: float) -> List[Metric]:
    d = {k: after[k] - before.get(k, 0) for k in after}
    elapsed = d["now"]
    self_s = instr.clock.self_s
    calls = instr.clock.calls
    wait = instr.resource_wait
    c = workload.cluster
    cycles = workload.cycles_per_packet()
    steps = calls["sim.steps"]
    attr_base = d["core.attr_hits"] + d["core.attr_misses"]
    bmap_base = d["core.bmap_hits"] + d["core.bmap_misses"]
    cache_base = d["storage.cache_hits"] + d["storage.cache_misses"]
    nodes = len(c.storage_nodes)
    m = [
        Metric("sim.steps", steps, "count"),
        Metric("sim.self_s", self_s["sim"], "s"),
        Metric("sim.steps_per_wall_s", steps / untraced_wall, "1/s",
               "steps / untraced measured wall time"),
        Metric("sim.resource_wait_ms", sum(wait.values()) * 1e3, "ms",
               "simulated, all resources"),
        Metric("rpc.xdr_self_s", self_s["rpc.xdr"], "s"),
        Metric("rpc.self_s", self_s["rpc"], "s", "excluding XDR"),
        Metric("rpc.calls", calls["rpc.calls"], "count"),
        Metric("rpc.retransmissions", d["rpc.retransmissions"], "count"),
        Metric("rpc.duplicates_replayed", d["rpc.duplicates_replayed"],
               "count"),
        Metric("nfs.codec_self_s", self_s["nfs.codec"], "s"),
        Metric("nfs.client_self_s", self_s["nfs.client"], "s"),
        Metric("nfs.ops_sent", d["nfs.ops_sent"], "count"),
        Metric("net.checksum_bytes", d["net.checksum_bytes"], "bytes"),
        Metric("net.checksum_self_s", self_s["net.checksum"], "s"),
        Metric("net.self_s", self_s["net"], "s", "excluding checksums"),
        Metric("net.packets", d["net.packets"], "count"),
        Metric("net.bytes", d["net.bytes"], "bytes"),
        Metric("net.port_util_max", _max_util(before, after, "port:", elapsed),
               "fraction"),
        Metric("net.port_wait_ms", wait["net.port"] * 1e3, "ms"),
        Metric("net.packets_dropped", d["net.packets_dropped"], "count"),
        Metric("core.self_s", self_s["core"], "s"),
        Metric("core.requests_routed", d["core.requests_routed"], "count"),
        Metric("core.replies_returned", d["core.replies_returned"], "count"),
        Metric("core.synthesized", d["core.synthesized"], "count"),
        Metric("core.attr_cache_hit_ratio", ratio(d["core.attr_hits"],
               attr_base), "fraction", f"of {attr_base} lookups"),
        Metric("core.attr_cache_lookups", attr_base, "count"),
        Metric("core.blockmap_hit_ratio", ratio(d["core.bmap_hits"],
               bmap_base), "fraction", f"of {bmap_base} lookups"),
        Metric("core.blockmap_lookups", bmap_base, "count"),
    ]
    m += [
        Metric(f"core.cycles_per_packet.{phase}", value, "cycles",
               "CostModel, measured phase")
        for phase, value in cycles.items()
    ]
    dir_cpus = len(c.dir_servers)
    sf_cpus = len(c.sf_servers)
    m += [
        Metric("dirsvc.ops_served", d["dirsvc.ops_served"], "count"),
        Metric("dirsvc.cross_site_ops", d["dirsvc.cross_site_ops"], "count"),
        Metric("dirsvc.cpu_util", ratio(d["dirsvc.cpu_busy"],
               elapsed * dir_cpus), "fraction"),
        Metric("dirsvc.cpu_wait_ms", wait["dirsvc.cpu"] * 1e3, "ms"),
        Metric("dirsvc.self_s", self_s["dirsvc"], "s"),
        Metric("wal.syncs", d["wal.syncs"], "count"),
        Metric("wal.records_per_sync", ratio(d["wal.records"], d["wal.syncs"]),
               "records", f"{d['wal.records']} records"),
        Metric("wal.bytes_logged", d["wal.bytes_logged"], "bytes"),
        Metric("wal.log_util", _max_util(before, after, "log:", elapsed),
               "fraction", "busiest log device"),
        Metric("wal.self_s", self_s["wal"], "s"),
        Metric("smallfile.reads", d["smallfile.reads"], "count"),
        Metric("smallfile.writes", d["smallfile.writes"], "count"),
        Metric("smallfile.backing_reads", d["smallfile.backing_reads"],
               "count"),
        Metric("smallfile.backing_reads_per_read", ratio(
               d["smallfile.backing_reads"], d["smallfile.reads"]), "ratio",
               f"of {d['smallfile.reads']} reads"),
        Metric("smallfile.cpu_util", ratio(d["smallfile.cpu_busy"],
               elapsed * sf_cpus), "fraction"),
        Metric("smallfile.self_s", self_s["smallfile"], "s"),
        Metric("storage.ops", d["storage.ops"], "count"),
        Metric("storage.cache_hit_ratio", ratio(d["storage.cache_hits"],
               cache_base), "fraction", f"of {cache_base} lookups"),
        Metric("storage.disk_util_max", _max_util(before, after, "disk:",
               elapsed), "fraction"),
        Metric("storage.disk_wait_ms", wait["storage.disk"] * 1e3, "ms"),
        Metric("storage.seeks", d["storage.seeks"], "count"),
        Metric("storage.disk_bytes_per_user_byte", ratio(
               d["storage.disk_bytes"], d["storage.user_bytes"]), "ratio",
               f"of {d['storage.user_bytes']} user bytes"),
        Metric("storage.cpu_util", ratio(d["storage.cpu_busy"],
               elapsed * nodes), "fraction"),
        Metric("storage.self_s", self_s["storage"], "s"),
        Metric("coord.intents_logged", d["coord.intents_logged"], "count"),
        Metric("coord.self_s", self_s["coord"], "s"),
        Metric("driver.self_s", self_s["driver"], "s"),
        Metric("trace.overhead_ratio", traced_wall / untraced_wall, "ratio",
               "timed / untraced wall of the measured phase"),
    ]
    return m
