"""Differential property test: the Slice ensemble vs the reference model.

Random operation sequences are applied both to a full Slice cluster
(through the µproxy, over the simulated network) and to the in-memory
reference filesystem.  Statuses, attributes, directory listings, and file
contents must agree — distribution across directory servers, small-file
servers, and storage nodes must be semantically invisible.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dirsvc.config import MKDIR_SWITCHING, NAME_HASHING
from repro.ensemble.cluster import SliceCluster
from repro.ensemble.modelfs import ModelFS
from repro.ensemble.params import ClusterParams
from repro.nfs.fhandle import FHandle
from repro.nfs.types import NF3DIR, Sattr3
from repro.util.bytesim import PatternData

# Clusters created by apply_ops get tracers attached; invariants are
# replay-checked at teardown (see tests/conftest.py).  The fixture is
# function-scoped while hypothesis reuses it across examples — that is
# intentional (clusters accumulate and all are checked), so the
# corresponding health check is suppressed below.
pytestmark = pytest.mark.usefixtures("trace_invariants")

NAMES = [f"n{i}" for i in range(8)]
#: Name operations act in the root or in one fixed subdirectory of it
#: (named outside NAMES, so no op removes or renames it).  Renames and
#: links between the two move files and directories between parents.
PARENTS = ["root", "sub"]
names = st.sampled_from(NAMES)
parents = st.sampled_from(PARENTS)

op_strategy = st.one_of(
    st.tuples(st.just("create"), names, parents),
    st.tuples(st.just("mkdir"), names, parents),
    st.tuples(st.just("remove"), names, parents),
    st.tuples(st.just("rmdir"), names, parents),
    st.tuples(st.just("lookup"), names, parents),
    st.tuples(st.just("rename"), names, names, parents, parents),
    st.tuples(st.just("link"), names, names, parents, parents),
    st.tuples(
        st.just("write"),
        st.sampled_from(NAMES),
        st.integers(0, 100_000),  # offset: crosses the 64 KB threshold
        st.integers(1, 40_000),  # length
    ),
    st.tuples(
        st.just("truncate"), st.sampled_from(NAMES), st.integers(0, 120_000)
    ),
    st.tuples(st.just("readdir"), parents),
    st.tuples(st.just("dotdot"), names, parents),
    st.tuples(st.just("statdirs")),
)


def _in(op, index):
    """The parent an op names at ``index``; ops without one act in the
    root."""
    return op[index] if len(op) > index else "root"


def apply_ops(ops, mode):
    cluster = SliceCluster(
        params=ClusterParams(
            num_storage_nodes=3,
            num_dir_servers=2,
            num_sf_servers=2,
            dir_logical_sites=8,
            sf_logical_sites=4,
            name_mode=mode,
            mkdir_p=0.5,
        )
    )
    client, _proxy = cluster.add_client()
    model = ModelFS()
    sim = cluster.sim
    slice_root = cluster.root_fh
    model_root = model.root_fh()
    # (parent, name) -> (slice_fh, model_fh) for created objects
    handles = {}
    # parent -> (slice_fh, model_fh) of the root and the subdirectory
    dirs = {"root": (slice_root, model_root)}
    divergences = []

    def check(op, field, slice_value, model_value):
        if slice_value != model_value:
            divergences.append((op, field, slice_value, model_value))

    def statdirs(op):
        for parent, (sfh, mfh) in sorted(dirs.items()):
            s_attr = yield from client.getattr(sfh)
            m_attr = model.getattr(mfh)
            check(op, parent + ".status", s_attr.status, m_attr.status)
            if s_attr.status == 0 and m_attr.status == 0:
                check(op, parent + ".nlink", s_attr.attr.nlink,
                      m_attr.attr.nlink)

    def driver():
        sub = yield from client.mkdir(slice_root, "sub")
        msub = model.mkdir(model_root, "sub", Sattr3(), sim.now)
        dirs["sub"] = (sub.fh, msub.fh)
        seed = 0
        for op in ops:
            kind = op[0]
            if kind == "create":
                name, parent = op[1], _in(op, 2)
                sdir, mdir = dirs[parent]
                sres = yield from client.create(sdir, name)
                mres = model.create(mdir, name, 1, Sattr3(), sim.now)
                check(op, "status", sres.status, mres.status)
                if sres.status == 0:
                    handles[parent, name] = (sres.fh, mres.fh)
            elif kind == "mkdir":
                name, parent = op[1], _in(op, 2)
                sdir, mdir = dirs[parent]
                sres = yield from client.mkdir(sdir, name)
                mres = model.mkdir(mdir, name, Sattr3(), sim.now)
                check(op, "status", sres.status, mres.status)
                if sres.status == 0:
                    handles[parent, name] = (sres.fh, mres.fh)
            elif kind == "remove":
                name, parent = op[1], _in(op, 2)
                sdir, mdir = dirs[parent]
                sres = yield from client.remove(sdir, name)
                mres = model.remove(mdir, name, sim.now)
                check(op, "status", sres.status, mres.status)
                if sres.status == 0:
                    # Architectural deviation (documented in DESIGN.md):
                    # data servers accept I/O on handles whose last name is
                    # gone, so the differential test retires the handle.
                    handles.pop((parent, name), None)
            elif kind == "rmdir":
                name, parent = op[1], _in(op, 2)
                sdir, mdir = dirs[parent]
                sres = yield from client.rmdir(sdir, name)
                mres = model.rmdir(mdir, name, sim.now)
                check(op, "status", sres.status, mres.status)
                if sres.status == 0:
                    handles.pop((parent, name), None)
            elif kind == "lookup":
                name, parent = op[1], _in(op, 2)
                sdir, mdir = dirs[parent]
                sres = yield from client.lookup(sdir, name)
                mres = model.lookup(mdir, name)
                check(op, "status", sres.status, mres.status)
                if sres.status == 0 and mres.status == 0:
                    check(op, "ftype", sres.attr.ftype, mres.attr.ftype)
                    check(op, "nlink", sres.attr.nlink, mres.attr.nlink)
                    check(op, "size", sres.attr.size, mres.attr.size)
            elif kind == "rename":
                _k, src, dst = op[:3]
                src_parent, dst_parent = _in(op, 3), _in(op, 4)
                (sfrom, mfrom), (sto, mto) = dirs[src_parent], dirs[dst_parent]
                sres = yield from client.rename(sfrom, src, sto, dst)
                mres = model.rename(mfrom, src, mto, dst, sim.now)
                check(op, "status", sres.status, mres.status)
                if sres.status == 0:
                    moved = handles.pop((src_parent, src), None)
                    if moved is not None:
                        handles[dst_parent, dst] = moved
                    else:
                        handles.pop((dst_parent, dst), None)
            elif kind == "link":
                _k, src, dst = op[:3]
                src_parent, dst_parent = _in(op, 3), _in(op, 4)
                if (src_parent, src) not in handles:
                    continue
                sfh, mfh = handles[src_parent, src]
                sdir, mdir = dirs[dst_parent]
                sres = yield from client.link(sfh, sdir, dst)
                mres = model.link(mfh, mdir, dst, sim.now)
                check(op, "status", sres.status, mres.status)
                if sres.status == 0:
                    handles[dst_parent, dst] = (sfh, mfh)
            elif kind == "write":
                _k, name, offset, length = op
                if ("root", name) not in handles:
                    continue
                sfh, mfh = handles["root", name]
                seed += 1
                data = PatternData(length, seed=seed)
                sres = yield from client.write(sfh, offset, data)
                mres = model.write(mfh, offset, data, 0, 1, sim.now)
                check(op, "status", sres.status, mres.status)
            elif kind == "truncate":
                _k, name, size = op
                if ("root", name) not in handles:
                    continue
                sfh, mfh = handles["root", name]
                sres = yield from client.setattr(sfh, Sattr3(size=size))
                mres = model.setattr(mfh, Sattr3(size=size), None, sim.now)
                check(op, "status", sres.status, mres.status)
                yield sim.timeout(0.5)  # let truncate reclaim settle
            elif kind == "readdir":
                sdir, mdir = dirs[_in(op, 1)]
                s_status, s_entries = yield from client.readdir(sdir)
                mres = model.readdir(mdir, 0, max_entries=512)
                check(op, "status", s_status, mres.status)
                s_names = sorted(e.name for e in s_entries)
                m_names = sorted(e.name for e in mres.entries)
                check(op, "names", s_names, m_names)
            elif kind == "dotdot":
                # ".." of a directory names its parent: the moved
                # directory's parent pointer followed a rename.
                key = (op[2], op[1])
                if key not in handles:
                    continue
                sfh, mfh = handles[key]
                sres = yield from client.lookup(sfh, "..")
                mres = model.lookup(mfh, "..")
                check(op, "status", sres.status, mres.status)
                if sres.status == 0 and mres.status == 0:
                    parent = next(p for p, (_s, m) in dirs.items()
                                  if m == mres.fh)
                    check(op, "parent", FHandle.unpack(sres.fh).fileid,
                          FHandle.unpack(dirs[parent][0]).fileid)
            elif kind == "statdirs":
                yield from statdirs(op)
        yield from statdirs(("final", "dirs"))
        # Final content pass: every live regular file must match bytewise.
        for name, (sfh, mfh) in handles.items():
            m_attr = model.getattr(mfh)
            s_attr = yield from client.getattr(sfh)
            check(("final", name), "status", s_attr.status, m_attr.status)
            if m_attr.status != 0 or m_attr.attr.ftype == NF3DIR:
                continue
            check(("final", name), "size", s_attr.attr.size, m_attr.attr.size)
            size = m_attr.attr.size
            if size and s_attr.attr.size == size:
                s_data = yield from client.read_file(sfh, size)
                m_data = model.file_content(mfh)
                check(("final", name), "content", s_data, m_data)

    cluster.run(driver())
    return divergences


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(st.lists(op_strategy, min_size=1, max_size=15))
def test_slice_matches_model_mkdir_switching(ops):
    divergences = apply_ops(ops, MKDIR_SWITCHING)
    assert not divergences, divergences[:5]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(st.lists(op_strategy, min_size=1, max_size=15))
def test_slice_matches_model_name_hashing(ops):
    divergences = apply_ops(ops, NAME_HASHING)
    assert not divergences, divergences[:5]


def test_slice_matches_model_long_random_sequence():
    """One long deterministic random sequence (cheaper than many examples)."""
    rng = random.Random(42)
    ops = []
    for _ in range(120):
        roll = rng.random()
        name = rng.choice(NAMES)
        if roll < 0.2:
            ops.append(("create", name))
        elif roll < 0.3:
            ops.append(("mkdir", name))
        elif roll < 0.4:
            ops.append(("remove", name))
        elif roll < 0.45:
            ops.append(("rmdir", name))
        elif roll < 0.55:
            ops.append(("lookup", name))
        elif roll < 0.62:
            ops.append(("rename", name, rng.choice(NAMES)))
        elif roll < 0.68:
            ops.append(("link", name, rng.choice(NAMES)))
        elif roll < 0.88:
            ops.append(
                ("write", name, rng.randrange(100_000), rng.randrange(1, 30_000))
            )
        elif roll < 0.94:
            ops.append(("truncate", name, rng.randrange(120_000)))
        else:
            ops.append(("readdir",))
    divergences = apply_ops(ops, MKDIR_SWITCHING)
    assert not divergences, divergences[:5]
