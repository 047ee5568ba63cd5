"""The directory server's cookie-ordered READDIR index against the
sort-based pager it replaced.

Each ``SiteState`` keeps one list of ``(cookie, name, key)`` per directory,
in readdir order; a page bisects to the first cookie after the resume
cookie, and eof asks whether any entry follows the last cookie emitted.
The reference below is the earlier pager: it sorts every name cell of the
directory by ``(cookie, name)`` on each call, skips the cookies at or
before the resume cookie, fills the page, and sorts again to ask whether
any cell follows the page.  Seeded runs of creates, removes and
renames (within and across directories) over a name-hashed, two-server
ensemble must give the same entries, cookies and eof from both, for resume
cookies taken mid-directory, between entries and at each site's start;
with the cookie function made coarse so that many names share one cookie,
both must skip the same tied entries.
"""

import random

import pytest

from repro.dirsvc import NAME_HASHING, DirServerParams, SiteState
from repro.dirsvc import state as state_module
from repro.dirsvc.server import COOKIE_SITE_SHIFT
from repro.dirsvc.state import (
    DelName,
    NameCell,
    PutName,
    attr_key_for,
    name_key_for,
)
from repro.nfs import proto
from repro.nfs.errors import NFS3_OK
from repro.nfs.fhandle import FHandle
from repro.nfs.types import NF3REG, Fattr3
from repro.rpc.xdr import Decoder, Encoder

from dir_harness import DirHarness

LOCAL_MASK = (1 << COOKIE_SITE_SHIFT) - 1
SEEDS = range(6)


def md5_cookie(key: bytes) -> int:
    """The readdir cookie of a name-cell key, written out independently of
    ``cookie_of``."""
    return max(3, int.from_bytes(key[:8], "big") >> 16)


def tied_cookie(key: bytes) -> int:
    """A coarse cookie: about one name in four shares each value."""
    return 3 + key[0] % 4


# ---------------------------------------------------------------------------
# The reference: the sort-based pager
# ---------------------------------------------------------------------------


def _as_sent(attr):
    """Attributes as they cross the wire (times in whole nanoseconds)."""
    if attr is None:
        return None
    enc = Encoder()
    attr.encode(enc)
    return Fattr3.decode(Decoder(enc.to_bytes()))


def reference_page(server, dir_fh: FHandle, cookie: int, count: int,
                   plus: bool, cookie_fn):
    """(entries as (fileid, name, cookie, attr, fh), eof) of one page, by
    the sort-based pager."""
    site = dir_fh.home_site if cookie == 0 else cookie >> COOKIE_SITE_SHIFT
    local_cookie = cookie & LOCAL_MASK
    state = server.sites[site]
    budget = max(8, min(count // 32, server.params.readdir_max_entries))
    site_bits = site << COOKIE_SITE_SHIFT
    entries = []

    def cells_of_directory():
        cells = [c for c in state.name_cells.values()
                 if c.parent_fileid == dir_fh.fileid]
        cells.sort(key=lambda c: (
            cookie_fn(name_key_for(c.parent_fileid, c.name)), c.name))
        return [(cookie_fn(name_key_for(c.parent_fileid, c.name)), c)
                for c in cells]

    if site == dir_fh.home_site:
        dir_cell = state.get_attr_cell(dir_fh.key)
        if local_cookie < 1:
            entries.append((dir_fh.fileid, ".", site_bits | 1,
                            _as_sent(dir_cell.to_fattr()) if plus else None,
                            dir_fh.pack() if plus else None))
        if local_cookie < 2:
            entries.append((dir_cell.parent_fileid or dir_fh.fileid, "..",
                            site_bits | 2, None, None))
    for entry_cookie, cell in cells_of_directory():
        if entry_cookie <= local_cookie:
            continue
        if len(entries) >= budget:
            break
        attr = fh = None
        if plus:
            target_state = server.sites.get(cell.target_site)
            if target_state is not None:
                target = target_state.get_attr_cell(
                    attr_key_for(cell.target_fileid))
                if target is not None:
                    attr = _as_sent(target.to_fattr())
            fh = cell.target_fh(server.volume).pack()
        entries.append((cell.target_fileid, cell.name,
                        site_bits | entry_cookie, attr, fh))
    last_local = entries[-1][2] & LOCAL_MASK if entries else local_cookie
    eof = not any(c > last_local for c, _cell in cells_of_directory())
    return entries, eof


# ---------------------------------------------------------------------------
# The runs
# ---------------------------------------------------------------------------


def _readdir(h: DirHarness, dir_fh: FHandle, cookie: int, count: int,
             plus: bool):
    site = dir_fh.home_site if cookie == 0 else cookie >> COOKIE_SITE_SHIFT
    if plus:
        args = proto.ReaddirplusArgs(dir_fh.pack(), cookie, 1, count, count)
        proc = proto.PROC_READDIRPLUS
    else:
        args = proto.ReaddirArgs(dir_fh.pack(), cookie, 1, count)
        proc = proto.PROC_READDIR
    dec = yield from h.call(site, proc, args.encode())
    return proto.ReaddirRes.decode(dec, plus=plus)


def _server_of(h: DirHarness, site: int):
    return h.servers[h.site_map[site]]


def _run(seed: int, cookie_fn) -> int:
    """Returns the number of pages compared."""
    rng = random.Random(seed)
    h = DirHarness(num_servers=2, mode=NAME_HASHING, num_sites=4,
                   params=DirServerParams(readdir_max_entries=10))
    compared = 0

    def check_pages(dirs, seen_cookies):
        nonlocal compared
        dir_fh = rng.choice(dirs)
        for _ in range(4):
            site = rng.randrange(h.config.num_logical_sites)
            starts = [site << COOKIE_SITE_SHIFT | 1]
            if site == dir_fh.home_site:
                starts.append(0)
            starts += [c for c in seen_cookies
                       if c >> COOKIE_SITE_SHIFT == site]
            if starts[-1] & LOCAL_MASK > 2:
                # Between two entries, just past one.
                starts.append(starts[-1] + rng.choice((1, -1)))
            cookie = rng.choice(starts)
            count = rng.choice((0, 256, 320, 4096))
            plus = rng.random() < 0.5
            server = _server_of(h, site)
            expected = reference_page(server, dir_fh, cookie, count, plus,
                                      cookie_fn)
            res = yield from _readdir(h, dir_fh, cookie, count, plus)
            assert res.status == NFS3_OK
            got = [(e.fileid, e.name, e.cookie, e.attr, e.fh)
                   for e in res.entries]
            assert (got, res.eof) == expected
            compared += 1
            seen_cookies.update(e.cookie for e in res.entries)

    def run():
        made = yield from h.mkdir(h.root_fh, "sub")
        assert made.status == NFS3_OK
        dirs = [h.root_fh, FHandle.unpack(made.fh)]
        names = {0: set(), 1: set()}
        seen_cookies = set()
        for step in range(120):
            which = rng.randrange(2)
            dir_fh = dirs[which]
            roll = rng.random()
            if roll < 0.55 or not names[which]:
                name = f"n{rng.randrange(400)}"
                res = yield from h.create(dir_fh, name)
                if res.status == NFS3_OK:
                    names[which].add(name)
            elif roll < 0.8:
                name = rng.choice(sorted(names[which]))
                res = yield from h.remove(dir_fh, name)
                assert res.status == NFS3_OK
                names[which].discard(name)
            else:
                name = rng.choice(sorted(names[which]))
                to = rng.randrange(2)
                new_name = f"r{rng.randrange(400)}"
                while new_name in names[to]:
                    new_name += "x"
                res = yield from h.rename(dir_fh, name, dirs[to], new_name)
                assert res.status == NFS3_OK
                names[which].discard(name)
                names[to].add(new_name)
            if step % 6 == 5:
                yield from check_pages(dirs, seen_cookies)

    h.run(run())
    return compared


@pytest.mark.parametrize("seed", SEEDS)
def test_index_pages_equal_the_sorting_pager(seed):
    assert _run(seed, md5_cookie) == 80


@pytest.mark.parametrize("seed", SEEDS)
def test_index_pages_equal_the_sorting_pager_under_cookie_ties(
        seed, monkeypatch):
    monkeypatch.setattr(state_module, "cookie_of", tied_cookie)
    assert _run(seed, tied_cookie) == 80


# ---------------------------------------------------------------------------
# The index itself
# ---------------------------------------------------------------------------


def _rebuilt_index(state: SiteState) -> dict:
    index = {}
    for key, cell in state.name_cells.items():
        index.setdefault(cell.parent_fileid, []).append(
            (md5_cookie(key), cell.name, key))
    return {parent: sorted(entries) for parent, entries in index.items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_index_is_the_sorted_name_cells(seed):
    """Random puts (fresh and over an existing entry) and deletes (present
    and absent) leave exactly one index entry per name cell, in cookie
    order; a site recovered from a checkpoint rebuilds the same index."""
    rng = random.Random(seed)
    state = SiteState(1)
    for _ in range(400):
        parent = rng.randrange(1, 4)
        name = f"e{rng.randrange(60)}"
        if rng.random() < 0.6:
            cell = NameCell(parent, name, rng.randrange(1, 1 << 40), NF3REG,
                            0, rng.randrange(4))
            state.apply([PutName(cell)])
        else:
            state.apply([DelName(parent, name)])
        assert state.dir_index == _rebuilt_index(state)
    for parent, entries in state.dir_index.items():
        assert state.count_entries(parent) == len(entries)
    recovered = SiteState.recover(state.snapshot(), [], 1)
    assert recovered.dir_index == state.dir_index
