"""Optional code is absent, not disabled.

``repro/dstm/proxy.py`` is the paper's Algorithms 2-4 and
``repro/dstm/directory.py`` its location service.  How payload bytes
resolve lives in ``repro.rpc.payload`` and how a lost copy comes back —
the owner's side and the home's — in ``repro.faults.recovery``; neither
dstm module names their messages or imports them, and a cluster that
enables neither builds neither — no attachment, no handler, no process.
A node's lookup cache is one typed object its proxy owns.  Retrying is the rpc
layer's: no ``dstm`` module reads a retry policy, so the code that runs
under faults is the code that runs without them.  A scheduler is
Algorithm 3's decision and a retry rule, fed by commits: nothing else
of it is callable, and nothing under ``src/repro`` reads more of it.
"""

import ast
import inspect
from pathlib import Path

import repro
from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig, FaultConfig, PayloadConfig
from repro.net import MessageType
from repro.rpc import LookupCache, RpcClient
from repro.scheduler import SchedulerPolicy

SRC = Path(repro.__file__).resolve().parent
DSTM = SRC / "dstm"
PROXY = DSTM / "proxy.py"
DIRECTORY = DSTM / "directory.py"
FOREIGN = ("LEASE_", "ORPHAN_", "COMMIT_PUBLISH", "PAYLOAD_FETCH")


def test_proxy_names_no_recovery_or_payload_message_type():
    tree = ast.parse(PROXY.read_text(encoding="utf-8"))
    named = sorted({
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith(FOREIGN)
    })
    assert named == []
    # the ones it does name are the algorithms' own
    used = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "MessageType"
    }
    # (a transfer's registration goes through the dir_update endpoint)
    assert used == {
        "RETRIEVE_REQUEST", "RETRIEVE_RESPONSE", "OBJECT_HANDOFF",
        "DIR_UPDATE_ACK",
    }


def imported_modules(path):
    modules = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    return modules


def test_proxy_imports_nothing_from_faults():
    modules = imported_modules(PROXY)
    assert modules and not [m for m in modules if m.startswith("repro.faults")]


def test_directory_imports_neither_faults_nor_the_proxy():
    modules = imported_modules(DIRECTORY)
    assert modules and not [
        m for m in modules
        if m.startswith("repro.faults") or m == "repro.dstm.proxy"
    ]


RECOVERY_WORDS = ("lease", "reclaim", "orphan")


def test_directory_names_no_recovery_concept():
    """Outside its calls into ``self.recovery``, the shard's source —
    identifiers, parameters, strings and docstrings — says nothing of
    leases, reclaims or orphans."""
    tree = ast.parse(DIRECTORY.read_text(encoding="utf-8"))
    calls_out = {
        id(node) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and ast.unparse(node.value) == "self.recovery"
    }
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in calls_out:
            names.append(node.attr)
        elif isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.arg):
            names.append(node.arg)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.append(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append(node.value)
    said = sorted({
        word for name in names for word in RECOVERY_WORDS if word in name.lower()
    })
    assert said == []


def test_only_the_cache_reads_its_mode():
    readers = sorted(
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in SRC.rglob("*.py")
        if path != SRC / "rpc" / "cache.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "fencing"
    )
    assert readers == []


def test_the_rpc_client_carries_no_cache():
    cluster = Cluster(ClusterConfig(num_nodes=2, seed=1, rpc=dict(cache=True)))
    assert "cache" not in inspect.signature(RpcClient).parameters
    for client, proxy in zip(cluster.rpc_clients, cluster.proxies):
        assert not hasattr(client, "cache")
        assert isinstance(proxy.owner_hints, LookupCache)


def test_no_dstm_module_reads_a_retry_policy():
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path in DSTM.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in ("policy", "rpc_policy")
    )
    assert readers == []


#: the whole scheduler surface: the owner-side decision, the retry rule,
#: and the stats table's write and read
SCHEDULER_SURFACE = {"on_conflict", "retry_backoff", "on_commit", "expected_duration"}
#: RtsScheduler's decision counters (the e2e ledger and
#: examples/bank_cluster.py read them)
RTS_COUNTERS = {"enqueued", "rejected_short_exec", "rejected_high_cl"}


def test_scheduler_policy_is_the_decision_and_the_retry_rule():
    public = {
        name for name in dir(SchedulerPolicy)
        if not name.startswith("_") and callable(getattr(SchedulerPolicy, name))
    }
    assert public == SCHEDULER_SURFACE


def test_src_reads_nothing_else_of_a_scheduler():
    reads = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "scheduler":
                reads.add(node.attr)
            elif isinstance(owner, ast.Attribute) and owner.attr == "scheduler":
                # a config's ``scheduler`` field is a SchedulerKind, not a policy
                if ast.unparse(owner.value).split(".")[-1] not in ("config", "cfg"):
                    reads.add(node.attr)
    assert reads - SCHEDULER_SURFACE - RTS_COUNTERS == set()


def test_tfa_spawns_no_process():
    tree = ast.parse((DSTM / "tfa.py").read_text(encoding="utf-8"))
    spawns = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "process"
    ]
    assert spawns == []


def process_names(cluster):
    """Names of the processes waiting in the kernel's schedule."""
    names = set()
    for _when, _prio, _seq, fn, arg in cluster.env.pending_entries():
        for callback in (fn,) if fn is not None else arg.callbacks or ():
            owner = getattr(callback, "__self__", None)
            name = getattr(owner, "name", None)
            if isinstance(name, str):
                names.add(name)
    return names


def background(cluster):
    return sorted(
        n for n in process_names(cluster)
        if n.endswith(".heartbeat")
    )


#: what a fault-free node serves: Algorithms 2-4 and the directory
ALGORITHM_HANDLERS = [
    "dir_lookup", "dir_update", "dir_update_ack", "object_handoff",
    "read_validate", "retrieve_request",
]


def test_default_cluster_has_neither_subsystem():
    cluster = Cluster(ClusterConfig(num_nodes=3, seed=1))
    assert [p.recovery for p in cluster.proxies] == [None] * 3
    assert [p.payload for p in cluster.proxies] == [None] * 3
    assert [d.recovery for d in cluster.directories] == [None] * 3
    for node in cluster.nodes:
        assert sorted(m.value for m in node._handlers) == ALGORITHM_HANDLERS
        for mtype in (MessageType.COMMIT_PUBLISH, MessageType.LEASE_RENEW):
            assert mtype not in node._handlers
        assert MessageType.LEASE_RENEW_ACK not in node._handlers
        assert MessageType.PAYLOAD_FETCH not in node._handlers
        # no late-response handler either: a stray reply is counted and dropped
        assert MessageType.RETRIEVE_RESPONSE not in node._handlers
    assert background(cluster) == []


def test_faults_enabled_builds_recovery_only():
    fc = FaultConfig(enabled=True)
    cluster = Cluster(ClusterConfig(num_nodes=3, seed=1, faults=fc))
    for node, proxy, directory in zip(cluster.nodes, cluster.proxies, cluster.directories):
        assert proxy.recovery is not None and proxy.recovery.proxy is proxy
        assert directory.recovery is not None and directory.recovery.proxy is proxy
        assert proxy.recovery.home is directory.recovery
        assert proxy.payload is None
        assert MessageType.LEASE_RENEW_ACK in node._handlers
        assert MessageType.COMMIT_PUBLISH in node._handlers
        assert MessageType.RETRIEVE_RESPONSE in node._handlers
        assert MessageType.PAYLOAD_FETCH not in node._handlers
    assert background(cluster) == [f"n{i}.heartbeat" for i in range(3)]


def test_faults_without_a_sweep_interval_runs_no_sweep():
    cluster = Cluster(ClusterConfig(num_nodes=2, seed=1, faults=FaultConfig(enabled=True)))
    assert background(cluster) == ["n0.heartbeat", "n1.heartbeat"]


def test_payload_enabled_builds_the_plane_only():
    pc = PayloadConfig(enabled=True, proxy=True, size=1024)
    cluster = Cluster(ClusterConfig(num_nodes=3, seed=1, payload=pc))
    for node_id, (node, proxy) in enumerate(zip(cluster.nodes, cluster.proxies)):
        assert proxy.payload is cluster.payload_plane.nodes[node_id]
        assert proxy.payload.client is proxy.rpc_client
        assert proxy.recovery is None
        assert MessageType.PAYLOAD_FETCH in node._handlers
        assert MessageType.LEASE_RENEW_ACK not in node._handlers
    assert background(cluster) == []
