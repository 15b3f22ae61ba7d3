"""The dataflow D-STM substrate (Herlihy & Sun model + TFA + closed nesting).

Layering, bottom-up:

* :mod:`repro.dstm.objects` — versioned transactional objects;
* :mod:`repro.dstm.directory` — per-node directory shards: every object has
  a *home* node tracking ``(current owner, registered committed version)``;
  this realises the paper's cache-coherence protocol contract (locate the
  single writable copy in finite time);
* :mod:`repro.dstm.transaction` — the transaction model with closed/flat
  nesting (read/write sets resolved through the ancestor chain, child
  merge-on-commit, partial aborts) and the paper's ETS timestamp triple;
* :mod:`repro.dstm.proxy` — the per-node TM proxy: local object store,
  owner hints, the object-access protocol of the paper's Algorithms 2-4
  (``Open_Object`` / ``Retrieve_Request`` / ``Retrieve_Response``), queue
  hand-offs, and the conflict hook the schedulers plug into;
* :mod:`repro.dstm.tfa` — the Transactional Forwarding Algorithm: clock
  piggybacking, transactional forwarding with read-set revalidation, and
  the commit protocol whose global-registration window is where the
  paper's scheduled conflicts arise;
* :mod:`repro.dstm.contention` — pluggable who-wins policies (the paper
  fixes holder-wins; requester-wins is provided for ablation).
"""

from repro.dstm.errors import AbortReason, TransactionAborted, TransactionError
from repro.dstm.objects import ObjectMode, ObjectState, VersionedObject
from repro.dstm.transaction import ETS, NestingModel, Transaction, TxStatus

__all__ = [
    "AbortReason",
    "ETS",
    "NestingModel",
    "ObjectMode",
    "ObjectState",
    "Transaction",
    "TransactionAborted",
    "TransactionError",
    "TxStatus",
    "VersionedObject",
]
