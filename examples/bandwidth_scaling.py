#!/usr/bin/env python3
"""Bandwidth scaling with storage nodes (the architecture's core pitch).

Writes and reads a striped file with 1, 2, 4, and 8 network storage nodes
and shows aggregate bandwidth growing with the array while clients remain
unchanged — the incremental-scaling property the µproxy's I/O routing
enables (§2.2, Table 2).

Run:  python examples/bandwidth_scaling.py
"""

from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.metrics.report import format_table
from repro.net.network import NetParams
from repro.workloads.bulkio import dd_read, dd_write


def measure(num_nodes: int, num_clients: int = 8, size: int = 8 << 20):
    params = ClusterParams(
        num_storage_nodes=num_nodes,
        num_dir_servers=1,
        num_sf_servers=1,
        # checksum offload, as on the paper's NICs
        net=NetParams(verify_checksums=False),
    )
    cluster = SliceCluster(params=params)
    clients = [
        cluster.add_client(f"c{i}", port=700 + i)[0] for i in range(num_clients)
    ]
    sim = cluster.sim
    handles = {}
    writes = {}
    reads = {}

    def writer(index):
        fh, res = yield from dd_write(
            clients[index], cluster.root_fh, f"dd{index}.bin", size, seed=index
        )
        handles[index] = fh
        writes[index] = res

    def reader(index):
        res = yield from dd_read(clients[index], handles[index], size)
        reads[index] = res

    def phase(fn):
        yield sim.all_of([sim.process(fn(i)) for i in range(num_clients)])

    cluster.run(phase(writer))
    for node in cluster.storage_nodes:  # cold read pass, as measured
        node.cache.clear()
        node._last_local.clear()
        node._prefetched_local.clear()
    cluster.run(phase(reader))
    write_bw = sum(r.nbytes for r in writes.values()) / max(
        r.elapsed for r in writes.values()
    ) / 1e6
    read_bw = sum(r.nbytes for r in reads.values()) / max(
        r.elapsed for r in reads.values()
    ) / 1e6
    return write_bw, read_bw


def main():
    rows = []
    for nodes in (1, 2, 4, 8):
        write_bw, read_bw = measure(nodes)
        rows.append((nodes, f"{write_bw:.0f}", f"{read_bw:.0f}"))
        print(f"  measured {nodes} node(s): "
              f"write {write_bw:.0f} MB/s, read {read_bw:.0f} MB/s")
    print(format_table(
        ["storage nodes", "aggregate write MB/s", "aggregate read MB/s"],
        rows,
        title="Adding storage nodes scales bandwidth (8 clients)",
    ))


if __name__ == "__main__":
    main()
