#!/usr/bin/env python3
"""Failure handling across the Slice ensemble.

Demonstrates four of the architecture's recovery stories end to end:

1. a storage node power-loss: uncommitted writes vanish, the write
   verifier changes, and the client transparently re-sends (NFS V3
   commit semantics, virtualized by the µproxy);
2. a mirrored file surviving the permanent loss of one replica;
3. directory-server failover: a surviving server assumes a dead server's
   logical sites from shared backing storage (dataless managers, §2.3);
4. µproxy soft-state loss: everything keeps working because the state is
   reconstructible (§2.1).

Run:  python examples/failure_recovery.py
"""

from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.util.bytesim import PatternData


def main():
    params = ClusterParams(
        num_storage_nodes=4,
        num_dir_servers=2,
        num_sf_servers=2,
        dir_logical_sites=8,
        mirror_files=True,
    )
    cluster = SliceCluster(params=params)
    client, proxy = cluster.add_client()
    root = cluster.root_fh
    size = 1 << 20
    payload = PatternData(size, seed=3)

    def scenario():
        # --- 1. storage node reboot under uncommitted writes -------------
        f1 = yield from client.create(root, "fragile.bin")
        yield from client.write_file(f1.fh, payload, do_commit=False)
        victim = cluster.storage_nodes[0]
        victim.crash()
        yield cluster.sim.timeout(0.05)
        victim.restart()
        print("storage node rebooted with uncommitted data in memory")
        yield from client.write_file(f1.fh, payload)  # commit + redrive
        data = yield from client.read_file(f1.fh, size)
        assert data == payload
        print("  -> verifier mismatch detected, client re-sent, data intact")

        # --- 2. mirrored file loses one replica permanently ---------------
        f2 = yield from client.create(root, "mirrored.bin")
        yield from client.write_file(f2.fh, payload)
        cluster.storage_nodes[1].crash()
        print("one replica host failed permanently")
        data = yield from client.read_file(f2.fh, size)
        assert data == payload
        print("  -> reads failed over to surviving mirrors")
        cluster.storage_nodes[1].restart()

        # --- 3. directory server failover --------------------------------
        for i in range(10):
            res = yield from client.create(root, f"doc{i}")
            assert res.status == 0
        dead = cluster.dir_servers[1]
        dead_sites = sorted(dead.core.states)
        dead.core.crash()
        print(f"directory server dir1 died (hosted sites {dead_sites})")
        for site in dead_sites:
            cluster.dir_servers[0].core.load(site)
            cluster.configsvc.rebind("dir", site, cluster.dir_servers[0].address)
        for i in range(10):
            res = yield from client.lookup(root, f"doc{i}")
            assert res.status == 0
        print("  -> dir0 assumed its sites from shared backing storage; "
              "all lookups succeed")

        # --- 4. µproxy discards all soft state -----------------------------
        proxy.discard_state()
        print("µproxy discarded its soft state (attr cache, pending, tables)")
        data = yield from client.read_file(f2.fh, size)
        attrs = yield from client.getattr(f2.fh)
        assert data == payload and attrs.attr.size == size
        print("  -> end-to-end retransmission and attribute recovery: "
              "clients never noticed")

    cluster.run(scenario())
    print(f"\nsimulated time: {cluster.sim.now:.2f}s — all four scenarios recovered")


if __name__ == "__main__":
    main()
