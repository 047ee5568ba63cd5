"""Ablation benchmarks for design choices the paper calls out.

- MD5 vs cheaper digests for request routing (§4.1: "MD5 yields a
  combination of balanced distribution and low cost").
- The small-file threshold offset (§3.1).
- Synchronous vs piggybacked intention logging at commit (§3.3.2).
- Group commit in the write-ahead log (§2.3 / [10]).
- Routing-table granularity: logical sites bound rebalancing to ~1/N
  (§3.3.1 / [15]).
"""

import time

import pytest

from repro.core.placement import IoPolicy
from repro.core.uproxy import ProxyParams
from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.metrics.report import format_table
from repro.sim import Simulator
from repro.util.hashing import HASHES
from repro.wal import WriteAheadLog

from conftest import SCALE, run_once, scaled


def test_ablation_routing_hash_balance(benchmark):
    """Distribute name keys over 64 logical sites with each digest."""
    num_sites = 64
    keys = [
        (parent, f"file{i}.c")
        for parent in range(scaled(40, minimum=8))
        for i in range(scaled(4000, minimum=500))
    ]

    def experiment():
        report = {}
        for name, fn in HASHES.items():
            start = time.perf_counter()
            buckets = [0] * num_sites
            for parent, fname in keys:
                digest = fn(parent.to_bytes(8, "big") + fname.encode())
                buckets[digest % num_sites] += 1
            elapsed = time.perf_counter() - start
            mean = len(keys) / num_sites
            imbalance = max(buckets) / mean
            report[name] = (imbalance, elapsed / len(keys) * 1e9)
        return report

    report = run_once(benchmark, experiment)
    rows = [
        (name, f"{imb:.3f}", f"{ns:.0f}ns")
        for name, (imb, ns) in report.items()
    ]
    print(format_table(
        ["hash", "max/mean bucket", "cost per key"],
        rows,
        title=f"Ablation: routing digest balance over 64 sites ({len(keys)} keys)",
    ))
    # MD5 balances to within statistical noise of an ideal uniform hash
    # (binomial envelope: mean + ~4 sigma).
    mean_per_bucket = len(keys) / num_sites
    envelope = 1 + 4.5 / mean_per_bucket**0.5
    assert report["md5"][0] < envelope
    # The weak multiplicative hash (djb2 over short structured keys) is
    # measurably worse balanced — the paper's reason for preferring MD5.
    assert report["md5"][0] < report["djb2"][0]


def test_ablation_threshold_offset(benchmark):
    """Sweep the small-file threshold: it trades small-file-server traffic
    against storage-node traffic for a SPECsfs-skewed file population."""
    from repro.util.bytesim import PatternData
    from repro.workloads.fileset import FilesetSpec, build_fileset

    thresholds = [8 << 10, 64 << 10, 256 << 10]
    spec = FilesetSpec(
        num_files=scaled(300, minimum=60), num_dirs=8, num_symlinks=4
    )

    def experiment():
        report = {}
        for threshold in thresholds:
            params = ClusterParams(
                num_storage_nodes=4, num_dir_servers=1, num_sf_servers=2,
                dir_logical_sites=8, sf_logical_sites=8,
            )
            params.io = IoPolicy(threshold=threshold)
            params.smallfile.threshold = threshold
            cluster = SliceCluster(params=params)
            client, _proxy = cluster.add_client()

            def run():
                built = yield from build_fileset(client, cluster.root_fh, spec)
                return built

            fileset = cluster.run(run())
            sf_bytes = sum(
                zone.alloc.allocated_bytes
                for server in cluster.sf_servers
                for zone in server.core.states.values()
            )
            report[threshold] = sf_bytes / max(1, fileset.total_bytes)
        return report

    report = run_once(benchmark, experiment)
    rows = [
        (f"{t >> 10} KB", f"{frac * 100:.0f}%")
        for t, frac in report.items()
    ]
    print(format_table(
        ["threshold", "bytes absorbed by small-file servers"],
        rows,
        title="Ablation: small-file threshold offset",
    ))
    # Raising the threshold absorbs more bytes at the small-file servers.
    small, default, big = (report[t] for t in thresholds)
    assert small < default <= big
    # At the paper's 64 KB default, 94% of files (roughly a third of the
    # bytes) live wholly on the small-file servers; bulk bytes still bypass
    # the managers.
    assert 0.3 < default < 0.9
    assert small < default / 1.5


def test_ablation_intent_logging_mode(benchmark):
    """Commit latency: synchronous intents vs piggybacked (lazy) intents.

    The paper's coordinator protocol "eliminates some message exchanges and
    log writes from the critical path" — lazy intents shave a coordinator
    round-trip off every multi-site commit.
    """
    from repro.util.bytesim import PatternData

    def commit_latency(intent_sync: bool) -> float:
        cluster = SliceCluster(
            params=ClusterParams(
                num_storage_nodes=4, num_dir_servers=1, num_sf_servers=1,
                dir_logical_sites=8, sf_logical_sites=4,
            )
        )
        proxy_params = ProxyParams(intent_sync=intent_sync)
        client, _proxy = cluster.add_client(proxy_params=proxy_params)
        sim = cluster.sim
        latencies = []

        def run():
            for i in range(scaled(30, minimum=10)):
                created = yield from client.create(cluster.root_fh, f"f{i}")
                yield from client.write_file(
                    created.fh, PatternData(256 << 10, seed=i),
                    do_commit=False,
                )
                start = sim.now
                yield from client.commit(created.fh)
                latencies.append(sim.now - start)

        cluster.run(run())
        return sum(latencies) / len(latencies)

    def experiment():
        return {
            "synchronous": commit_latency(True),
            "piggybacked": commit_latency(False),
        }

    report = run_once(benchmark, experiment)
    print(format_table(
        ["intent mode", "mean commit latency"],
        [(k, f"{v * 1e3:.2f}ms") for k, v in report.items()],
        title="Ablation: intention logging on the commit critical path",
    ))
    assert report["piggybacked"] < report["synchronous"]


def test_ablation_group_commit(benchmark):
    """Group commit amortizes log flushes across concurrent updaters."""

    def throughput(writers: int) -> float:
        sim = Simulator()

        def slow_flush(nbytes):
            yield sim.timeout(0.001)  # 1 ms log device write

        log = WriteAheadLog(sim, write_cost=slow_flush)
        done = [0]

        def writer():
            for _ in range(50):
                log.append({"op": "x"})
                yield from log.sync()
                done[0] += 1

        def driver():
            yield sim.all_of([sim.process(writer()) for _ in range(writers)])

        sim.run_process(driver())
        return done[0] / sim.now

    def experiment():
        return {1: throughput(1), 16: throughput(16)}

    report = run_once(benchmark, experiment)
    print(format_table(
        ["concurrent updaters", "synced records/s"],
        [(k, f"{v:.0f}") for k, v in report.items()],
        title="Ablation: group commit (1 ms log device)",
    ))
    # One writer is bounded by the flush latency (~1000/s); sixteen share
    # flushes and push far beyond it.
    assert report[1] < 1100
    assert report[16] > report[1] * 5


def test_ablation_rebalance_granularity(benchmark):
    """Moving one logical site relocates ~1/L of the cells: finer logical
    granularity means finer-grained rebalancing (§3.3.1)."""
    from repro.workloads.untar import UntarSpec, UntarWorkload

    def moved_fraction(num_sites: int) -> float:
        cluster = SliceCluster(
            params=ClusterParams(
                num_storage_nodes=2, num_dir_servers=2, num_sf_servers=1,
                dir_logical_sites=num_sites, sf_logical_sites=4,
                mkdir_p=1.0,
            )
        )
        client, _proxy = cluster.add_client()
        workload = UntarWorkload(
            client, cluster.root_fh,
            UntarSpec(total_entries=scaled(2000, minimum=300)), prefix="p0",
        )
        cluster.run(workload.run())
        total = sum(
            s.cell_count() for srv in cluster.dir_servers
            for s in srv.sites.values()
        )
        # Move the busiest non-root site from server 0 to server 1.
        victim = max(
            (s for s in sorted(cluster.dir_servers[0].core.states) if s != 0),
            key=lambda s: cluster.dir_servers[0].sites[s].cell_count(),
        )
        moved = cluster.move_dir_site(victim, to_server=1)
        return moved / total

    def experiment():
        return {sites: moved_fraction(sites) for sites in (4, 16, 64)}

    report = run_once(benchmark, experiment)
    print(format_table(
        ["logical sites", "fraction moved by one migration"],
        [(k, f"{v * 100:.1f}%") for k, v in report.items()],
        title="Ablation: routing-table granularity vs rebalancing unit",
    ))
    assert report[64] < report[16] < report[4]
    assert report[64] < 0.15
