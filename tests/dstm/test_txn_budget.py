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
1 (every commit migrates the object), or 200 closed-nested roots
alternating the same way, each a root whose one child reads then writes
the object.  Recorded with CPython 3.11.7,
frames under ``src/repro`` per root, by package (read root / write
root), before → after an RPC reply became a :class:`~repro.sim.Signal`
and a fan-out's ``AllOf`` a counting ``RpcClient.join``:

* ``sim``: 47.0 / 64.0 → 40.0 / 57.0
* ``dstm``: 41.0 / 78.985
* ``net``: 31.0 / 66.985
* ``rpc``: 12.0 / 22.0 → 14.0 / 24.0 (the join and its leg)
* ``scheduler``: 4.0 / 5.0
* ``core``: 12.0 / 15.0
* ``util``: 2.0 / 3.995
* total: **149.0 / 255.965 → 144.0 / 250.965**

so both gates came down by the 5 frames saved.  Under
``REPRO_SANITIZE=1`` the same roots take 150.0 / 269.965 (155.0 /
274.965 before): the sanitizer's checks and the commit record it keeps
(``check``: 5.0 / 15.0) and a few more kernel frames (``sim``: 41.0 /
61.0).  Both gates hold there too.

Then a process waited out a plain delay by yielding the ``float`` (no
``Environment.timeout``, ``Timeout.__init__`` or ``Process._resume``),
a reply's dispatch pushed its signal's call entry itself (no
``Signal.succeed``), a policy-free, untraced ``RpcClient.call`` or
``submit`` skipped ``RpcClient._issue``, the hot ``dstm`` / ``core``
instruments tested ``tracer.enabled`` before calling ``Tracer.wants``,
``Node.now_local`` read ``env._now`` (no ``Environment.now``) and the
per-operation read/write-set lookups walked the chain by ``parent`` (no
``Transaction.ancestors`` generator).  Read / write / closed-nested
root, before → after:

* total: **144.0 / 250.965 / 308.96 → 125.0 / 214.965 / 265.96**
* under ``REPRO_SANITIZE=1``: 150.0 / 269.965 / 327.96 → 130.0 /
  231.965 / 282.96

so the gates were 138 / 236 / 292, about 10 % above the new figures
(they were 160 / 281, and the nested recipe is new).

Measured again later, the same roots took 124.0 / 212.965 /
263.96 (130.0 / 231.965 / 282.96 sanitized).  Then the settled replies
of a validation or registration join were read through ``_value`` (no
``Signal.value`` property), ``home_node`` got the node count from an
int the engine and the proxy hold (no ``Network.num_nodes`` property),
``maybe_forward`` built its root-first chain by walking ``parent`` (no
``ancestors()`` generator), and a finished root is unlinked by
``Transaction.dismantle`` (one frame per root, so no reference cycle is
left for the cyclic collector).  By package, read / write / nested,
before → after:

* ``sim``: 27.0 / 32.0 / 40.0 → 26.0 / 31.0 / 38.0
* ``dstm``: 36.0 / 68.985 / 83.98 → 37.0 / 67.995 / 81.995
* ``net``: 31.0 / 66.985 / 81.985 → 30.0 / 62.99 / 76.99
* total: **124.0 / 212.965 / 263.96 → 123.0 / 206.98 / 254.98**
* under ``REPRO_SANITIZE=1``: 130.0 / 231.965 / 282.96 → 129.0 /
  225.98 / 273.98

so the gates were 136 / 228 / 281, about 10 % above the new figures.

Measured again later, the same roots took 123.0 / 208.98 / 256.98
(129.0 / 227.98 / 275.98 sanitized).  Then a served endpoint's reply was
sent by the node's dispatch (no ``handler`` closure, no ``Node.reply``)
and a service period matched a reply to its waiter inline (no
``Node._dispatch`` frame for a reply).  By package, read / write /
nested, before → after:

* ``net``: 30.0 / 62.99 / 76.99 → 27.0 / 57.99 / 69.99
* ``rpc``: 12.0 / 22.0 / 28.0 → 11.0 / 20.0 / 25.0
* total: **123.0 / 208.98 / 256.98 → 119.0 / 201.98 / 246.98**
* under ``REPRO_SANITIZE=1``: 129.0 / 227.98 / 275.98 → 125.0 /
  220.98 / 265.98

so the gates are 131 / 222 / 272, about 10 % above the new figures.
"""

import gc
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
READ_BUDGET = 131
#: frames per committed read-then-write root
WRITE_BUDGET = 222
#: frames per committed root whose closed-nested child reads then writes
NESTED_BUDGET = 272


def read_body(tx, oid):
    value = yield from tx.read(oid)
    return value


def increment_body(tx, oid):
    value = yield from tx.read(oid)
    yield from tx.write(oid, value + 1)


def nested_body(tx, oid):
    yield from tx.nested(increment_body, oid)


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

    # a collection during the run would close generators left suspended
    # by earlier code, and their resumed frames would be counted here
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
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

    def test_closed_nested_root(self):
        cluster = build()

        def run():
            for i in range(ROOTS):
                cluster.run_transaction(nested_body, OID, node=i % 2)

        per_root = sum(frames_by_package(run).values()) / ROOTS
        assert cluster.committed_value(OID) == ROOTS
        assert cluster.metrics.commits.value == ROOTS + 1
        assert per_root <= NESTED_BUDGET, per_root
