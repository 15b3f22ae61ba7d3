"""The import rule: a fresh interpreter loads only the planes its run builds.

A default closed-loop cell (``Cluster`` + ``WorkloadExecutor``, plus
``repro.traffic.engine``, which the ledger's ``cells.py`` imports for
every cell) must not load the fault plane, the correctness tooling, the
observability and profiling packages, the payload plane, the batcher,
the experiment harness, the arrival plane's helpers, or a workload it
did not build: each is one more module a ``setup_s`` probe compiles.
Each opt-in setting, in turn, must load its plane.  Every case runs in
its own interpreter, since a module once loaded stays in ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOADS, make_workload

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: what a default closed-loop cell must not load (a package, all of it)
NEVER = (
    "repro.faults",
    "repro.check",
    "repro.obs",
    "repro.prof",
    "repro.par",
    "repro.analysis",
    "repro.rpc.payload",
    "repro.rpc.batch",
    "repro.core.experiment",
    "repro.traffic.admission",
    "repro.traffic.popularity",
    "repro.traffic.stability",
)

BUILD = """
import json, sys
import repro.traffic.engine
from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig
from repro.core.executor import WorkloadExecutor
from repro.workloads.registry import make_workload

cluster = Cluster(ClusterConfig(num_nodes=4, seed=1, **{config!r}))
executor = WorkloadExecutor(
    cluster, make_workload({workload!r}), workers_per_node=1, horizon=0.1
)
executor.setup()
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def loaded_modules(workload="bank", config=None, sanitize_env=None):
    """The ``repro`` modules a fresh interpreter holds after building one
    cell; ``sanitize_env`` is REPRO_SANITIZE's value (unset when None)."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SANITIZE"}
    env["PYTHONPATH"] = SRC
    if sanitize_env is not None:
        env["REPRO_SANITIZE"] = sanitize_env
    code = BUILD.format(config=config or {}, workload=workload)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def under(modules, package):
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


@pytest.mark.parametrize("workload", ["bank", "vacation"])
def test_default_cell_loads_no_optional_plane(workload):
    modules = loaded_modules(workload)
    leaked = {p: under(modules, p) for p in NEVER if under(modules, p)}
    assert not leaked, leaked
    built = WORKLOADS[workload][0]
    assert built in modules
    unbuilt = {m for m, _ in WORKLOADS.values()} - {built}
    assert not sorted(unbuilt & modules)


@pytest.mark.parametrize(
    "config, sanitize_env, plane",
    [
        (dict(faults=dict(enabled=True)), None, "repro.faults"),
        (dict(check=dict(sanitize=True)), None, "repro.check"),
        ({}, "1", "repro.check"),
        (dict(payload=dict(enabled=True)), None, "repro.rpc.payload"),
        (dict(rpc=dict(batch_window=0.002)), None, "repro.rpc.batch"),
        (dict(obs=dict(enabled=True)), None, "repro.obs"),
    ],
    ids=[
        "faults", "check-sanitize", "REPRO_SANITIZE",
        "payload", "batch-window", "obs",
    ],
)
def test_each_opt_in_setting_loads_its_plane(config, sanitize_env, plane):
    assert plane in loaded_modules(config=config, sanitize_env=sanitize_env)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_make_workload_builds_every_registered_name(name):
    workload = make_workload(name)
    assert isinstance(workload, Workload)
    assert type(workload).__module__ == WORKLOADS[name][0]
