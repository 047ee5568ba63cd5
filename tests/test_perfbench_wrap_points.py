"""The benchmark's layer timers still find every entry point they wrap.

``perfbench/layers.py`` patches named methods and functions of the program
(``Simulator.step``, ``Decoder.u32``, ``CallHeader.decode``,
``Network.transmit``, ...) and counts simulator steps by wrapping
``Simulator.step``, while ``perfbench/run.py`` counts them as
``sim._eid - len(sim._heap)``.  A renamed or deleted wrap point, or a
kernel path that steps events without ``step``, fails here rather than in
a benchmark run.
"""

from pathlib import Path

import pytest

from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.nfs.errors import NFS3_OK
from repro.sim.engine import Simulator
from repro.util.bytesim import RealData

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    return layers


def drive_nfs_ops():
    """A few name and I/O ops on a small cluster; returns the cluster."""
    cluster = SliceCluster(params=ClusterParams(
        num_storage_nodes=2, num_dir_servers=2, num_sf_servers=1,
        dir_logical_sites=4, sf_logical_sites=2))
    client, _proxy = cluster.add_client()

    def run():
        made = yield from client.mkdir(cluster.root_fh, "d")
        assert made.status == NFS3_OK
        created = yield from client.create(made.fh, "f")
        assert created.status == NFS3_OK
        yield from client.write_file(created.fh, RealData(b"x" * 100))
        found = yield from client.lookup(made.fh, "f")
        assert found.status == NFS3_OK
        yield from client.getattr(found.fh)
        yield from client.readdir(made.fh)

    cluster.run(run())
    return cluster


def test_layer_timers_install_count_every_step_and_remove(layers):
    plain = drive_nfs_ops()
    original_step = vars(Simulator)["step"]
    clock = layers.LayerClock()
    instr = layers.Instrumentation(clock)
    instr.install()
    try:
        assert vars(Simulator)["step"] is not original_step
        timed = drive_nfs_ops()
    finally:
        instr.remove()
    assert vars(Simulator)["step"] is original_step
    sim = timed.sim
    assert sim._eid - len(sim._heap) == clock.calls["sim.steps"] > 0
    # The timers only observe: the timed run is the untimed one.
    assert (sim.now, sim._eid) == (plain.sim.now, plain.sim._eid)
    assert clock.calls["rpc.calls"] > 0
    for layer in ("sim", "rpc.xdr", "rpc", "nfs.codec", "nfs.client", "net",
                  "core", "dirsvc"):
        assert clock.self_s[layer] > 0, layer
