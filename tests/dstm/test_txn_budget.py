"""A transaction's Python budget, as a count of interpreter frames.

``tests/net/test_hop_budget.py`` gates one message hop; this file gates
the whole transaction around it — the body's operations, the grant, the
forwarding check, the commit protocol and the bookkeeping after it.  It
counts ``sys.setprofile`` ``call`` events (Python function entries and
generator resumptions; C calls are ``c_call`` and not counted) whose
code lives under ``src/repro``, across ``Cluster.run_transaction``,
divided by the transactions run.  The bounds are upper bounds, about
10 % above the recorded figures — 3.12 inlines comprehensions, so the
exact figure moves with the interpreter.

Recipe: a 3-node default ``Cluster``, one object stored at node 1 and
homed at node 2, one warm-up read root from node 0; then 200 single-read
roots from node 0, or 200 read-then-write roots alternating nodes 0 and
1 (every commit migrates the object).  Recorded with CPython 3.11.7,
frames under ``src/repro`` per root, by package (read root / write
root):

* ``sim``: 47.0 / 64.0
* ``dstm``: 48.0 / 90.985
* ``net``: 31.0 / 66.985
* ``rpc``: 12.0 / 23.0
* ``scheduler``: 4.0 / 5.0
* ``core``: 12.0 / 15.0
* ``util``: 2.0 / 3.995
* total: **156.0 / 268.965**
"""

import sys
from collections import Counter
from pathlib import Path

import repro
from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig
from repro.dstm.objects import home_node

SRC = Path(repro.__file__).resolve().parent
ROOTS = 200
OID = "x0"
#: frames per committed single-read root
READ_BUDGET = 172
#: frames per committed read-then-write root
WRITE_BUDGET = 296


def read_body(tx, oid):
    value = yield from tx.read(oid)
    return value


def increment_body(tx, oid):
    value = yield from tx.read(oid)
    yield from tx.write(oid, value + 1)


def build():
    cluster = Cluster(ClusterConfig(num_nodes=3))
    assert home_node(OID, 3) == 2
    cluster.alloc(OID, 0, node=1)
    cluster.run_transaction(read_body, OID, node=0)
    return cluster


def frames_by_package(run):
    """Python frames entered under ``src/repro`` while ``run()`` runs,
    keyed by the top-level package they belong to."""
    prefix = str(SRC) + "/"
    by_package = Counter()

    def profile(frame, event, _arg):
        filename = frame.f_code.co_filename
        if event == "call" and filename.startswith(prefix):
            by_package[filename[len(prefix):].split("/")[0]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return by_package


class TestTransactionBudget:
    def test_single_read_root(self):
        cluster = build()

        def run():
            for _ in range(ROOTS):
                assert cluster.run_transaction(read_body, OID, node=0) == 0

        per_root = sum(frames_by_package(run).values()) / ROOTS
        assert cluster.metrics.commits.value == ROOTS + 1
        assert per_root <= READ_BUDGET, per_root

    def test_read_then_write_root(self):
        cluster = build()

        def run():
            for i in range(ROOTS):
                cluster.run_transaction(increment_body, OID, node=i % 2)

        per_root = sum(frames_by_package(run).values()) / ROOTS
        assert cluster.committed_value(OID) == ROOTS
        assert cluster.metrics.commits.value == ROOTS + 1
        assert per_root <= WRITE_BUDGET, per_root
