"""The NFS-serving classes answer by one rule from ``proto.PROCS``:

- a procedure number past the table gets PROC_UNAVAIL at the RPC level;
- NULL gets an empty result;
- a procedure the server does not serve gets that procedure's own result
  layout with status NFS3ERR_NOTSUPP, so a client decoding it reads the
  whole reply.

Each server is called directly, not through a µproxy.
"""

import pytest

from repro.ensemble.baseline import BaselineParams, MonolithicServer
from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.nfs import proto
from repro.nfs.errors import NFS3ERR_NOTSUPP
from repro.rpc import RpcAcceptError, RpcClient
from repro.rpc.messages import PROC_UNAVAIL

from drops import DropWhen

DATA_PROCS = {proto.PROC_GETATTR, proto.PROC_READ, proto.PROC_WRITE,
              proto.PROC_COMMIT}
#: server kind -> the procedures (besides NULL) it does not serve
UNSERVED = {
    "dir": [proto.PROC_READ, proto.PROC_WRITE, proto.PROC_MKNOD,
            proto.PROC_COMMIT],
    "smallfile": [p.num for p in proto.PROCS[1:] if p.num not in DATA_PROCS],
    "storage": [p.num for p in proto.PROCS[1:] if p.num not in DATA_PROCS],
    "baseline": [proto.PROC_MKNOD],
}
KINDS = sorted(UNSERVED)


@pytest.fixture(scope="module")
def ensemble():
    cluster = SliceCluster(params=ClusterParams(
        num_storage_nodes=1, num_dir_servers=1, num_sf_servers=1,
        dir_logical_sites=4, sf_logical_sites=4,
    ))
    baseline = MonolithicServer(cluster.sim, cluster.net.add_host("nfs-server"),
                                BaselineParams(mode="mfs"))
    servers = {
        "dir": cluster.dir_servers[0],
        "smallfile": cluster.sf_servers[0],
        "storage": cluster.storage_nodes[0],
        "baseline": baseline,
    }
    client = RpcClient(cluster.net.add_host("caller"), 900)
    return cluster, servers, client


def call(ensemble, kind, procnum):
    """Generator: call ``procnum`` on server ``kind`` with no arguments;
    returns the reply decoder, or the accept status it was refused with."""
    _cluster, servers, client = ensemble
    try:
        dec, _body = yield from client.call(
            servers[kind].address, proto.NFS_PROGRAM, proto.NFS_V3,
            procnum, b"",
        )
    except RpcAcceptError as exc:
        return exc.accept_stat
    return dec


@pytest.mark.parametrize("kind, procnum", [
    (kind, procnum) for kind in KINDS for procnum in UNSERVED[kind]
], ids=lambda v: v if isinstance(v, str) else proto.PROCS[v].name)
def test_unserved_procedure_gets_its_own_notsupp_result(ensemble, kind, procnum):
    cluster = ensemble[0]
    dec = cluster.run(call(ensemble, kind, procnum))
    result = proto.PROCS[procnum].result
    if procnum == proto.PROC_READDIRPLUS:
        res = result.decode(dec, plus=True)
    else:
        res = result.decode(dec)
    assert dec.offset == len(dec.data)
    assert res.status == NFS3ERR_NOTSUPP


@pytest.mark.parametrize("kind", KINDS)
def test_null_gets_an_empty_result(ensemble, kind):
    dec = ensemble[0].run(call(ensemble, kind, proto.PROC_NULL))
    assert dec.offset == len(dec.data)


@pytest.mark.parametrize("kind", KINDS)
def test_procedure_past_the_table_is_unavailable(ensemble, kind):
    """Procedure 22 is refused with PROC_UNAVAIL (RFC 5531), and the cached
    refusal answers the retransmission after the first reply is lost."""
    cluster, servers, client = ensemble
    server = servers[kind]
    lost = []

    def drop_first_reply(pkt):
        if pkt.src == server.address and not lost:
            lost.append(pkt)
            return True
        return False

    replayed = server.server.duplicates_replayed
    retransmissions = client.retransmissions
    cluster.net.fault_injector = DropWhen(drop_first_reply)
    try:
        assert cluster.run(call(ensemble, kind, len(proto.PROCS))) == PROC_UNAVAIL
    finally:
        cluster.net.fault_injector = None
    assert lost
    assert client.retransmissions == retransmissions + 1
    assert server.server.duplicates_replayed == replayed + 1
