"""Table 2: bulk I/O bandwidth in the test ensemble.

Paper numbers (MB/s):

                    single client    saturation
    read                 62.5           437
    write                38.9           479
    read-mirrored        52.9           222
    write-mirrored       32.2           251

The single-client column uses one dd stream (client-CPU / read-ahead
bound); the saturation column drives the storage array with enough client
hosts to saturate it.  Reads are measured cold (the paper's nodes sourced
reads from their disks).  Checksums are disabled as on the paper's
offloading NICs.
"""

import pytest

from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.metrics.report import format_table
from repro.net.network import NetParams
from repro.workloads.bulkio import dd_read, dd_write

from conftest import SCALE, run_once

PAPER = {
    ("read", "single"): 62.5, ("read", "sat"): 437.0,
    ("write", "single"): 38.9, ("write", "sat"): 479.0,
    ("read-mirrored", "single"): 52.9, ("read-mirrored", "sat"): 222.0,
    ("write-mirrored", "single"): 32.2, ("write-mirrored", "sat"): 251.0,
}

SINGLE_FILE_BYTES = max(8 << 20, int((1.25 * (1 << 30)) * SCALE))
SAT_CLIENTS = 16
SAT_FILE_BYTES = max(4 << 20, SINGLE_FILE_BYTES // 8)


def build_cluster(mirror):
    params = ClusterParams(
        num_storage_nodes=8,
        num_dir_servers=1,
        num_sf_servers=2,
        net=NetParams(verify_checksums=False),
        mirror_files=mirror,
    )
    return SliceCluster(params=params)


def chill_caches(cluster):
    """Cold read pass: drop node caches so reads come off the disks."""
    for node in cluster.storage_nodes:
        node.cache.clear()
        node._last_local.clear()
        node._prefetched_local.clear()
        for disk in node.array.disks:
            disk._next_phys = -1


def measure(mirror, num_clients, file_bytes):
    cluster = build_cluster(mirror)
    clients = [
        cluster.add_client(f"c{i}", port=700 + i)[0]
        for i in range(num_clients)
    ]
    sim = cluster.sim
    handles = {}
    write_results = {}
    read_results = {}

    def writer(i):
        fh, res = yield from dd_write(
            clients[i], cluster.root_fh, f"dd{i}.bin", file_bytes, seed=i
        )
        handles[i] = fh
        write_results[i] = res

    def reader(i):
        res = yield from dd_read(clients[i], handles[i], file_bytes)
        read_results[i] = res

    def phase(fn):
        yield sim.all_of([sim.process(fn(i)) for i in range(num_clients)])

    cluster.run(phase(writer))
    chill_caches(cluster)
    cluster.run(phase(reader))

    def aggregate(results):
        total = sum(r.nbytes for r in results.values())
        return total / max(r.elapsed for r in results.values()) / 1e6

    return aggregate(write_results), aggregate(read_results)


def test_table2_bulk_io_bandwidth(benchmark):
    measured = {}

    def experiment():
        for mirror, label in ((False, ""), (True, "-mirrored")):
            w1, r1 = measure(mirror, 1, SINGLE_FILE_BYTES)
            ws, rs = measure(mirror, SAT_CLIENTS, SAT_FILE_BYTES)
            measured[f"read{label}", "single"] = r1
            measured[f"read{label}", "sat"] = rs
            measured[f"write{label}", "single"] = w1
            measured[f"write{label}", "sat"] = ws
        return measured

    run_once(benchmark, experiment)

    rows = []
    for op in ("read", "write", "read-mirrored", "write-mirrored"):
        rows.append((
            op,
            f"{measured[op, 'single']:.1f}",
            f"{PAPER[op, 'single']:.1f}",
            f"{measured[op, 'sat']:.0f}",
            f"{PAPER[op, 'sat']:.0f}",
        ))
    print(format_table(
        ["operation", "single (MB/s)", "paper", "saturation (MB/s)", "paper"],
        rows,
        title=f"Table 2: bulk I/O bandwidth (scale={SCALE})",
    ))

    # Shape assertions: who wins and by roughly what factor.
    assert measured["read", "single"] > measured["write", "single"]
    assert measured["write-mirrored", "single"] < measured["write", "single"]
    # Saturation scales far beyond a single client.
    assert measured["read", "sat"] > 4 * measured["read", "single"]
    assert measured["write", "sat"] > 4 * measured["write", "single"]
    # Mirroring costs roughly 2x at saturation (extra copies / wasted
    # prefetch), within a generous envelope.
    assert 1.5 < measured["read", "sat"] / measured["read-mirrored", "sat"] < 2.6
    assert 1.5 < measured["write", "sat"] / measured["write-mirrored", "sat"] < 2.6
    # Absolute numbers within 35% of the paper for the single-client column.
    for op in ("read", "write", "read-mirrored", "write-mirrored"):
        ratio = measured[op, "single"] / PAPER[op, "single"]
        assert 0.65 < ratio < 1.35, (op, ratio)
