"""Workload registry: short name -> the paper benchmark that builds it.

A name maps to its class's module and attribute, and
:func:`make_workload` imports the module when it builds the workload, so
a run loads only the workload it builds (the ``_LAZY`` idiom of
``repro/__init__.py``).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.base import Workload

__all__ = ["WORKLOADS", "make_workload"]

#: short name -> (module, class); two benchmarks answer to a second name
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "bank": ("repro.workloads.bank", "BankWorkload"),
    "vacation": ("repro.workloads.vacation", "VacationWorkload"),
    "ll": ("repro.workloads.linkedlist", "LinkedListWorkload"),
    "linkedlist": ("repro.workloads.linkedlist", "LinkedListWorkload"),
    "bst": ("repro.workloads.bst", "BstWorkload"),
    "rbtree": ("repro.workloads.rbtree", "RbTreeWorkload"),
    "rb": ("repro.workloads.rbtree", "RbTreeWorkload"),
    "dht": ("repro.workloads.dht", "DhtWorkload"),
}


def make_workload(name: str, **kwargs: Any) -> "Workload":
    """Build a workload by short name ('bank', 'vacation', 'll', ...)."""
    try:
        module_name, attr = WORKLOADS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None
    factory = getattr(importlib.import_module(module_name), attr)
    return factory(**kwargs)
