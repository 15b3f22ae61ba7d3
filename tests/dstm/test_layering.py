"""Optional code is absent, not disabled.

``repro/dstm/proxy.py`` is the paper's Algorithms 2-4.  How payload
bytes resolve lives in ``repro.rpc.payload`` and how a lost copy comes
back in ``repro.faults.recovery``; the proxy neither names their
messages nor imports them, and a cluster that enables neither builds
neither — no attachment, no handler, no process.
"""

import ast
from pathlib import Path

import repro
from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig, FaultConfig, PayloadConfig
from repro.net import MessageType

PROXY = Path(repro.__file__).resolve().parent / "dstm" / "proxy.py"
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
    assert used == {
        "RETRIEVE_REQUEST", "RETRIEVE_RESPONSE", "OBJECT_HANDOFF",
        "DIR_UPDATE", "DIR_UPDATE_ACK",
    }


def test_proxy_imports_nothing_from_faults():
    tree = ast.parse(PROXY.read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert modules and not [m for m in modules if m.startswith("repro.faults")]


def process_names(cluster):
    """Names of the processes waiting in the kernel's schedule."""
    names = set()
    for _when, _prio, _seq, event in cluster.env.pending_entries():
        for callback in event.callbacks or ():
            owner = getattr(callback, "__self__", None)
            name = getattr(owner, "name", None)
            if isinstance(name, str):
                names.add(name)
    return names


def background(cluster):
    return sorted(
        n for n in process_names(cluster)
        if n.endswith((".heartbeat", ".orphan_sweep"))
    )


def test_default_cluster_has_neither_subsystem():
    cluster = Cluster(ClusterConfig(num_nodes=3, seed=1))
    assert [p.recovery for p in cluster.proxies] == [None] * 3
    assert [p.payload for p in cluster.proxies] == [None] * 3
    for node in cluster.nodes:
        assert MessageType.LEASE_RENEW_ACK not in node._handlers
        assert MessageType.PAYLOAD_FETCH not in node._handlers
        # no late-response handler either: a stray reply is counted and dropped
        assert MessageType.RETRIEVE_RESPONSE not in node._handlers
    assert background(cluster) == []


def test_faults_enabled_builds_recovery_only():
    fc = FaultConfig(enabled=True, orphan_sweep_interval=0.5)
    cluster = Cluster(ClusterConfig(num_nodes=3, seed=1, faults=fc))
    for node, proxy in zip(cluster.nodes, cluster.proxies):
        assert proxy.recovery is not None and proxy.recovery.proxy is proxy
        assert proxy.payload is None
        assert MessageType.LEASE_RENEW_ACK in node._handlers
        assert MessageType.RETRIEVE_RESPONSE in node._handlers
        assert MessageType.PAYLOAD_FETCH not in node._handlers
    assert background(cluster) == sorted(
        [f"n{i}.heartbeat" for i in range(3)]
        + [f"n{i}.orphan_sweep" for i in range(3)]
    )


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
