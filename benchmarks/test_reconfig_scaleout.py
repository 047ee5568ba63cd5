"""Online scale-out: a bandwidth-vs-nodes trajectory over live rebinds.

The paper's §2.2 pitch is incremental scaling: add a storage node and
aggregate bandwidth grows, *without* unmounting clients.  This benchmark
measures that end to end through the reconfiguration machinery:

1. build a Slice ensemble from a :class:`repro.ensemble.params.ClusterParams`
   and write a striped file per client;
2. measure aggregate cold-read bandwidth on the initial array;
3. repeatedly ``cluster.add_storage_node()`` + ``cluster.rebalance(plan)``
   — one epoch bump per step, ~1/Nth of the logical sites migrated —
   while the clients keep re-reading their files (every live read must
   come back bit-exact), re-measuring cold-read bandwidth after each step.

The resulting trajectory is printed as a table and dumped to
``BENCH_reconfig.json`` in the working directory so CI can diff the
scaling shape across commits.
"""

import json
import math
from pathlib import Path

from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.metrics.report import format_table
from repro.net import NetParams
from repro.workloads.bulkio import dd_read, dd_write

from conftest import SCALE, run_once, scaled

NODES_START = 1  # saturated single node: scale-out must buy bandwidth
SCALEOUT_STEPS = 2  # 1 -> 2 -> 3 nodes, one epoch bump each
STORAGE_SITES = 24  # divisible by every node count on the trajectory
NUM_CLIENTS = 8
FILE_SIZE = scaled(8 << 20, minimum=512 << 10)
LIVE_READS = 2  # re-read passes per client during each rebalance


def _cold_caches(cluster):
    for node in cluster.storage_nodes:
        node.cache.clear()
        node._last_local.clear()
        node._prefetched_local.clear()


def _read_bandwidth(cluster, clients, handles):
    """Aggregate cold-read MB/s across all clients."""
    _cold_caches(cluster)
    sim = cluster.sim
    reads = {}

    def reader(index):
        res = yield from dd_read(clients[index], handles[index], FILE_SIZE)
        reads[index] = res

    def phase():
        yield sim.all_of(
            [sim.process(reader(i)) for i in range(len(clients))]
        )

    cluster.run(phase())
    return sum(r.nbytes for r in reads.values()) / max(
        r.elapsed for r in reads.values()
    ) / 1e6


def scaleout_experiment():
    params = ClusterParams(
        num_storage_nodes=NODES_START,
        num_dir_servers=1,
        num_sf_servers=1,
        storage_logical_sites=STORAGE_SITES,
        # checksum offload, as on the paper's NICs
        net=NetParams(verify_checksums=False),
    )
    cluster = SliceCluster(params=params)
    sim = cluster.sim
    clients = [
        cluster.add_client(f"c{i}", port=700 + i)[0]
        for i in range(NUM_CLIENTS)
    ]
    handles = {}
    writes = {}

    def writer(index):
        fh, res = yield from dd_write(
            clients[index], cluster.root_fh, f"dd{index}.bin",
            FILE_SIZE, seed=index,
        )
        handles[index] = fh
        writes[index] = res

    def write_phase():
        yield sim.all_of(
            [sim.process(writer(i)) for i in range(NUM_CLIENTS)]
        )

    cluster.run(write_phase())
    write_mbps = sum(r.nbytes for r in writes.values()) / max(
        r.elapsed for r in writes.values()
    ) / 1e6
    trajectory = [{
        "nodes": NODES_START,
        "epoch": cluster.configsvc.epoch,
        "read_mbps": _read_bandwidth(cluster, clients, handles),
    }]
    steps = []
    live_ok = [0]

    def live_reader(index):
        for _ in range(LIVE_READS):
            # verify_seed: every live read must come back bit-exact even
            # while its blocks are mid-flight between nodes.
            res = yield from dd_read(
                clients[index], handles[index], FILE_SIZE, verify_seed=index
            )
            assert res.nbytes == FILE_SIZE, "short live read mid-rebalance"
            live_ok[0] += 1

    def scaleout(plan):
        t0 = sim.now
        readers = [
            sim.process(live_reader(i)) for i in range(NUM_CLIENTS)
        ]
        report = yield from cluster.rebalance(plan)
        rebalance_secs = sim.now - t0
        yield sim.all_of(readers)
        return report, rebalance_secs

    for step in range(SCALEOUT_STEPS):
        nodes_after = NODES_START + step + 1
        epoch_before = cluster.configsvc.epoch
        plan = cluster.add_storage_node()
        report, rebalance_secs = cluster.run(scaleout(plan))
        assert cluster.configsvc.epoch == epoch_before + 1
        assert report.sites_moved == STORAGE_SITES // nodes_after
        steps.append({
            "nodes": nodes_after,
            "sites_moved": report.sites_moved,
            "units_moved": report.units_moved,
            "bytes_moved": report.bytes_moved,
            "rebalance_seconds": rebalance_secs,
        })
        trajectory.append({
            "nodes": nodes_after,
            "epoch": cluster.configsvc.epoch,
            "read_mbps": _read_bandwidth(cluster, clients, handles),
        })

    return {
        "scale": SCALE,
        "file_size": FILE_SIZE,
        "clients": NUM_CLIENTS,
        "storage_sites": STORAGE_SITES,
        "write_mbps_initial": write_mbps,
        "live_reads_ok": live_ok[0],
        "steps": steps,
        "trajectory": trajectory,
    }


def test_reconfig_scaleout_bandwidth(benchmark):
    result = run_once(benchmark, scaleout_experiment)
    # Every live read issued during every rebind window completed.
    assert result["live_reads_ok"] == NUM_CLIENTS * LIVE_READS * SCALEOUT_STEPS
    total_bytes = NUM_CLIENTS * FILE_SIZE
    for step in result["steps"]:
        # Each rebind really moved data, and no more than ~1/Nth of it
        # (slack: stripe-unit rounding at site edges).
        assert step["units_moved"] > 0 and step["bytes_moved"] > 0
        assert step["bytes_moved"] <= math.ceil(
            total_bytes / step["nodes"]
        ) + total_bytes // 8
    # The pitch itself: growing the array online grew aggregate bandwidth.
    assert (
        result["trajectory"][-1]["read_mbps"]
        > result["trajectory"][0]["read_mbps"]
    )
    out = Path("BENCH_reconfig.json")
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    rows = [
        (
            str(point["nodes"]),
            str(point["epoch"]),
            f"{point['read_mbps']:.0f}",
            str(step["sites_moved"]) if step else "-",
            str(step["bytes_moved"]) if step else "-",
            f"{step['rebalance_seconds']:.2f}" if step else "-",
        )
        for point, step in zip(
            result["trajectory"], [None] + result["steps"]
        )
    ]
    print()
    print(format_table(
        ["nodes", "epoch", "read MB/s", "sites moved", "bytes moved",
         "rebalance (sim s)"],
        rows,
        title=(
            f"Online scale-out trajectory under live reads "
            f"({result['live_reads_ok']} live reads, all bit-exact)"
        ),
    ))
    print(f"  wrote {out.resolve()}")
