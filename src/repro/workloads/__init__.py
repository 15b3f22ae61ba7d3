"""The paper's six evaluation benchmarks (§IV-A), rebuilt on the public API.

* :mod:`repro.workloads.bank` — Bank, the monetary application;
* :mod:`repro.workloads.vacation` — distributed port of STAMP's Vacation
  travel-reservation system;
* :mod:`repro.workloads.linkedlist` — sorted Linked-List set;
* :mod:`repro.workloads.bst` — Binary Search Tree set;
* :mod:`repro.workloads.rbtree` — Red/Black Tree set (full rebalancing);
* :mod:`repro.workloads.dht` — Distributed Hash Table.

Each workload allocates "five to ten shared objects at each node" (§IV-A)
scaled by node count, issues write transactions structured as a parent
with closed-nested children, and exposes the low/high-contention read
mixes (90% / 10% read transactions).

The package re-exports the interface (:class:`Op`, :class:`Workload`)
and the registry (:data:`WORKLOADS`, :func:`make_workload`), not the six
classes: :func:`make_workload` imports only the module of the workload
it builds.  Import a class from its module.
"""

from repro.workloads.base import Op, Workload
from repro.workloads.registry import WORKLOADS, make_workload

__all__ = [
    "Op",
    "WORKLOADS",
    "Workload",
    "make_workload",
]
