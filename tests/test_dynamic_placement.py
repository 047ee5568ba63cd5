"""End-to-end tests for dynamic (block-map) I/O routing and the config
service — §3.1's "more flexible placement policies" path."""

import pytest

from repro.core.placement import IoPolicy
from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.nfs.errors import NFS3_OK
from repro.storage.node import object_id_for_fh
from repro.util.bytesim import PatternData


def map_cluster(**overrides):
    params = ClusterParams(
        num_storage_nodes=4, num_dir_servers=1, num_sf_servers=1,
        dir_logical_sites=8, sf_logical_sites=4,
        **overrides,
    )
    params.io = IoPolicy(use_block_maps=True)
    return SliceCluster(params=params)


def test_block_map_write_read_roundtrip():
    cluster = map_cluster()
    client, proxy = cluster.add_client()
    size = 1 << 20
    payload = PatternData(size, seed=4)

    def run():
        created = yield from client.create(cluster.root_fh, "mapped.bin")
        yield from client.write_file(created.fh, payload)
        data = yield from client.read_file(created.fh, size)
        return created.fh, data

    fh, data = cluster.run(run())
    assert data == payload
    # Placement came from the coordinator's maps, cached at the µproxy.
    assert proxy.block_maps.hits > 0
    coord = cluster.coordinators[0]
    assert coord.block_maps  # maps were allocated


def test_block_map_placement_is_sticky_across_proxies():
    """A second client's µproxy fetches the same map and reads the data
    exactly where the first client's writes placed it."""
    cluster = map_cluster()
    writer, _p1 = cluster.add_client("writer")
    reader, p2 = cluster.add_client("reader", port=701)
    size = 512 << 10
    payload = PatternData(size, seed=6)

    def write_side():
        created = yield from writer.create(cluster.root_fh, "shared.bin")
        yield from writer.write_file(created.fh, payload)
        return created.fh

    fh = cluster.run(write_side())

    def read_side():
        looked = yield from reader.lookup(cluster.root_fh, "shared.bin")
        data = yield from reader.read_file(looked.fh, size)
        return data

    data = cluster.run(read_side())
    assert data == payload
    assert p2.block_maps.hits > 0


def test_block_maps_survive_coordinator_restart():
    cluster = map_cluster()
    client, proxy = cluster.add_client()
    size = 256 << 10
    payload = PatternData(size, seed=8)

    def run():
        created = yield from client.create(cluster.root_fh, "durable.bin")
        yield from client.write_file(created.fh, payload)
        coord = cluster.coordinators[0]
        coord.crash()
        yield cluster.sim.timeout(0.2)
        coord.restart()
        # A fresh µproxy (cold map cache) must re-fetch identical placement.
        proxy.block_maps.clear()
        data = yield from client.read_file(created.fh, size)
        return data

    assert cluster.run(run()) == payload


@pytest.mark.parametrize("coordinators", [1, 2])
def test_reclaim_drops_block_maps(coordinators):
    """Files spread over the coordinators by fileid; the directory server
    reclaims each through the one that holds its block map."""
    cluster = map_cluster(num_coordinators=coordinators)
    client, _proxy = cluster.add_client()
    names = [f"gone{i}.bin" for i in range(6)]

    def run():
        fhs = []
        for i, name in enumerate(names):
            created = yield from client.create(cluster.root_fh, name)
            yield from client.write_file(created.fh,
                                         PatternData(256 << 10, seed=i))
            fhs.append(created.fh)
        held = [len(c.block_maps) for c in cluster.coordinators]
        for name in names:
            yield from client.remove(cluster.root_fh, name)
        yield cluster.sim.timeout(2.0)
        return fhs, held

    fhs, held = cluster.run(run())
    assert min(held) > 0  # every coordinator held some of the maps
    keys = {object_id_for_fh(fh) for fh in fhs}
    for coord in cluster.coordinators:
        assert keys.isdisjoint(coord.block_maps)
    for node in cluster.storage_nodes:
        assert all(key not in node.store for key in keys)


def test_config_service_serves_tables():
    from repro.ensemble.configsvc import (
        CONFIG_GET,
        CONFIG_V1,
        SLICE_CONFIG_PROGRAM,
        ConfigFetch,
        ConfigGetArgs,
    )
    from repro.rpc import RpcAcceptError, RpcClient
    from repro.rpc.messages import GARBAGE_ARGS

    cluster = map_cluster()
    prober = RpcClient(cluster.net.add_host("prober"), 950)

    def fetch_all():
        dec, _ = yield from prober.call(
            cluster.configsvc.address, SLICE_CONFIG_PROGRAM, CONFIG_V1,
            CONFIG_GET, ConfigGetArgs().encode(),
        )
        return ConfigFetch.decode(dec)

    def fetch_empty_body():
        try:
            yield from prober.call(
                cluster.configsvc.address, SLICE_CONFIG_PROGRAM, CONFIG_V1,
                CONFIG_GET, b"",
            )
        except RpcAcceptError as exc:
            return exc.accept_stat
        return None

    assert cluster.run(fetch_empty_body()) == GARBAGE_ARGS
    fetch = cluster.run(fetch_all())
    assert fetch.modified
    assert fetch.epoch == cluster.configsvc.epoch
    tables = fetch.tables
    assert set(tables) == {"dir", "sf", "storage"}
    assert tables["dir"].entries == cluster.dir_table.entries
    assert tables["dir"].version == cluster.dir_table.version
    assert tables["storage"].entries == cluster.storage_table.entries
