"""Small-file site state: checkpoint plus replay equals the live maps and
allocator of a server under load.

Modelled on ``tests/test_dirsvc_state.py``'s property test, but driven
through a real :class:`SmallFileServer`: its flushes write fragments to two
storage nodes and sync a log on the server's own log device, so they take
time, and checkpoints land at random points, some while a flush is under
way.
"""

import copy
import random

import pytest

from repro.nfs.types import FILE_SYNC, UNSTABLE
from repro.smallfile.alloc import FragmentAllocator
from repro.smallfile.server import DelMap, PutMap, SiteZone
from repro.storage import ctrlproto
from repro.util.bytesim import PatternData
from tests.test_smallfile import build, make_fh, replayed, sf_commit, sf_write

SITES = 2
FILES = range(100, 112)


def used(alloc: FragmentAllocator):
    """The byte ranges an allocator holds allocated, merged."""
    free = sorted((off, off + size) for size, offs in alloc.free_lists.items()
                  for off in offs)
    ranges, cursor = [], 0
    for lo, hi in free + [(alloc.bump, alloc.bump)]:
        if lo > cursor:
            ranges.append((cursor, lo))
        cursor = max(cursor, hi)
    return _merged(ranges)


def mapped(zone: SiteZone):
    """The byte ranges a site's maps reference, merged."""
    return _merged(sorted((off, off + size) for rec in zone.maps.values()
                          for off, size in rec.extents.values()))


def _merged(ranges):
    out = []
    for lo, hi in ranges:
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


class _Load:
    """Random writes, commits, removes and truncates from three clients,
    with checkpoints of random sites at random points."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        (self.sim, _net, self.client, self.server, _nodes,
         self.backing) = build(num_sites=SITES)
        self.journaled = []  # (record, a deep copy taken when journaled)
        self.in_flight_checkpoints = 0
        journal = self.server.core.journal

        def captured(pairs):
            self.journaled.extend((record, copy.deepcopy(record))
                                  for _site, record in pairs)
            return journal(pairs)

        self.server.core.journal = captured

    def _ctrl(self, procnum, args):
        yield from self.client.call(
            self.server.address, ctrlproto.SLICE_CTRL_PROGRAM, 1, procnum,
            args.encode())

    def _op(self):
        rng, server = self.rng, self.server
        fh = make_fh(rng.choice(FILES))
        roll = rng.random()
        if roll < 0.55:
            offset = rng.randrange(0, 3 * 8192)
            data = PatternData(rng.randint(1, 12000), seed=rng.randrange(99))
            stable = FILE_SYNC if rng.random() < 0.3 else UNSTABLE
            yield from sf_write(self.client, server, fh, offset, data, stable)
        elif roll < 0.8:
            yield from sf_commit(self.client, server, fh)
        elif roll < 0.9:
            yield from self._ctrl(ctrlproto.CTRL_OBJ_REMOVE,
                                  ctrlproto.ObjArgs(fh))
        else:
            yield from self._ctrl(ctrlproto.CTRL_OBJ_TRUNCATE,
                                  ctrlproto.TruncateArgs(fh, rng.randrange(20000)))

    def _client(self, ops: int):
        for _ in range(ops):
            yield from self._op()
            yield self.sim.timeout(self.rng.choice((0.0, 0.0005, 0.003)))

    def _checkpoints(self):
        rng, core = self.rng, self.server.core
        while True:
            yield self.sim.timeout(rng.uniform(0.0005, 0.02))
            site = rng.randrange(SITES)
            if self.server._flushing:
                self.in_flight_checkpoints += 1
            self.backing.site("sf", site).checkpoint(
                core.states[site].snapshot())

    def run(self, ops: int = 60):
        self.sim.process(self._checkpoints())
        clients = [self.sim.process(self._client(ops)) for _ in range(3)]
        yield self.sim.all_of(clients)
        yield self.sim.timeout(2.0)  # the syncer flushes what is left
        for site in range(SITES):
            yield from self.server.core.log(site).sync()


@pytest.mark.parametrize("seed", range(8))
def test_checkpoint_and_replay_equal_the_live_maps_and_allocator(seed):
    load = _Load(seed)
    load.sim.run_process(load.run())
    assert load.in_flight_checkpoints > 0
    assert not load.server._flushing and not load.server.pending
    kinds = {type(op) for record, _ in load.journaled for op in record["ops"]}
    assert kinds == {PutMap, DelMap}
    for site in range(SITES):
        live = load.server.core.states[site]
        recovered = replayed(load.backing, site)
        assert recovered.maps == live.maps
        assert used(live.alloc) == used(recovered.alloc) == mapped(live)
    # The journal holds each op as it was when journaled.
    assert all(record == copy_ for record, copy_ in load.journaled)


def test_a_snapshot_replays_as_a_record():
    zone = SiteZone(1)
    zone.play({"kind": "group", "txid": None, "ops": [
        PutMap(7, 9000, {0: (0, 8192), 1: (8192, 1024)}),
        PutMap(8, 100, {0: (9216, 128)}), DelMap(7)]})
    rebuilt = SiteZone.recover(zone.snapshot(), [], 1)
    assert rebuilt.maps == zone.maps == {8: PutMap(8, 100, {0: (9216, 128)})}
    assert rebuilt.alloc.allocated_bytes == 128
