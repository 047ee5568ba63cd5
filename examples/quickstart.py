#!/usr/bin/env python3
"""Quickstart: build a Slice ensemble, mount it, and use it like a filesystem.

Builds the full architecture of the paper's Figure 1 on a simulated Gigabit
LAN — network storage nodes, a block-service coordinator, directory
servers, small-file servers — and attaches one NFS client whose packets
pass through an interposed µproxy.  Then it exercises the virtual volume:
directories, small files, a large striped file, rename, readdir.

Run:  python examples/quickstart.py
"""

from repro import ClusterParams, SliceCluster
from repro.util.bytesim import PatternData, RealData


def main():
    params = ClusterParams(
        num_storage_nodes=4,
        num_dir_servers=2,
        num_sf_servers=2,
    )
    cluster = SliceCluster(params=params)
    client, proxy = cluster.add_client("workstation")
    root = cluster.root_fh

    def session():
        # Make a home directory and a small file inside it.
        home = yield from client.mkdir(root, "home")
        print(f"mkdir /home            -> status={home.status}")
        note = yield from client.create(home.fh, "notes.txt")
        body = RealData(b"interposed request routing!\n" * 4)
        n = yield from client.write_file(note.fh, body)
        print(f"write /home/notes.txt  -> {n} bytes (via a small-file server)")

        # A large file: the µproxy stripes blocks over every storage node.
        big = yield from client.create(home.fh, "dataset.bin")
        payload = PatternData(4 << 20, seed=7)
        yield from client.write_file(big.fh, payload)
        attrs = yield from client.getattr(big.fh)
        print(f"write /home/dataset.bin -> size={attrs.attr.size >> 20} MB, "
              f"striped over {sum(1 for s in cluster.storage_nodes if s.writes)} storage nodes")

        # Read both back through the same virtual server address.
        text = yield from client.read_file(note.fh, body.length)
        assert text == body
        data = yield from client.read_file(big.fh, 4 << 20)
        assert data == payload
        print("read back              -> contents verified")

        # Ordinary name-space operations work across the ensemble.
        yield from client.rename(home.fh, "notes.txt", home.fh, "notes.md")
        status, entries = yield from client.readdir(home.fh)
        names = sorted(e.name for e in entries if not e.name.startswith("."))
        print(f"readdir /home          -> {names}")

    cluster.run(session())
    print()
    print(f"µproxy routed {proxy.requests_routed} requests, "
          f"absorbed {proxy.commits_absorbed} commits, "
          f"synthesized {proxy.synthesized} replies")
    print(f"simulated time: {cluster.sim.now:.3f}s")


if __name__ == "__main__":
    main()
