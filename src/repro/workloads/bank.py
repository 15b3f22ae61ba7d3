"""Bank: the paper's monetary application (§IV-A).

Objects are accounts holding integer balances, ``accounts_per_node`` of
them per node (the paper's 5-10 shared objects per node).  Transactions:

* **transfer** (write): a parent transaction moves money between two
  accounts through two closed-nested children — a *debit* leg and a
  *credit* leg — then performs a small audit computation.  This is the
  canonical closed-nesting shape: if the credit leg conflicts, only that
  leg retries; the debit work survives.
* **total-balance** (read): sums a sample of accounts (read-only, long
  read set — the transactions that benefit from RTS's read multicast).

System-wide money is conserved by construction, which the serializability
property tests exploit: any interleaving the D-STM admits must preserve
the total.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional

from repro.core.cluster import Cluster
from repro.workloads.base import Op, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import TransactionHandle
    from repro.sim.rng import Stream

__all__ = ["BankWorkload"]

INITIAL_BALANCE = 1_000


def _transfer_leg(
    tx: TransactionHandle, src: str, dst: str, amount: int
) -> Generator[Any, Any, None]:
    """One closed-nested mini-transfer: read both accounts, move money."""
    src_balance = yield from tx.read(src)
    dst_balance = yield from tx.read(dst)
    yield from tx.write(src, src_balance - amount)
    yield from tx.write(dst, dst_balance + amount)


def transfer(
    tx: TransactionHandle, legs: List[tuple], audit_time: float
) -> Generator[Any, Any, None]:
    """Parent transaction: a chain of transfers, one closed-nested child
    per (src, dst, amount) leg — the paper's "number of nested
    transactions per transaction randomly decided" shape."""
    for src, dst, amount in legs:
        yield from tx.nested(_transfer_leg, src, dst, amount, profile="bank.leg")
    # Risk-check / audit step: local computation inside the parent.
    yield from tx.compute(audit_time)


def total_balance(tx: TransactionHandle, oids: List[str]) -> Generator[Any, Any, int]:
    """Read-only parent: sum balances (each block is a nested lookup)."""
    total = 0
    for oid in oids:
        total += yield from tx.read(oid)
    return total


class BankWorkload(Workload):
    """Accounts + transfers + balance audits."""

    name = "bank"

    def __init__(
        self,
        read_fraction: float = 0.9,
        accounts_per_node: int = 8,
        audit_time: float = 2e-3,
        balance_sample: int = 6,
        max_legs: int = 3,
        payload_size: Optional[int] = None,
    ) -> None:
        super().__init__(read_fraction, payload_size=payload_size)
        if accounts_per_node < 2:
            raise ValueError("need at least 2 accounts per node")
        if max_legs < 1:
            raise ValueError("need max_legs >= 1")
        self.accounts_per_node = accounts_per_node
        self.audit_time = float(audit_time)
        self.balance_sample = balance_sample
        self.max_legs = max_legs
        self.accounts: List[str] = []

    # ------------------------------------------------------------------

    def create_objects(self, cluster: Cluster, rng: Stream) -> None:
        for node in range(cluster.num_nodes):
            for i in range(self.accounts_per_node):
                oid = f"bank/acct{node}_{i}"
                cluster.alloc(oid, INITIAL_BALANCE, node=node)
                self.accounts.append(oid)

    def expected_total(self) -> int:
        return INITIAL_BALANCE * len(self.accounts)

    # ------------------------------------------------------------------

    def make_write_op(self, node: int, rng: Stream) -> Op:
        num_legs = min(int(rng.integers(1, self.max_legs + 1)), len(self.accounts) // 2)
        picks = self.pick_indices(rng, len(self.accounts), 2 * num_legs, replace=False)
        legs = [
            (
                self.accounts[picks[2 * i]],
                self.accounts[picks[2 * i + 1]],
                int(rng.integers(1, 100)),
            )
            for i in range(num_legs)
        ]
        return Op(
            body=transfer,
            args=(legs, self.audit_time),
            profile="bank.transfer",
            is_read=False,
        )

    def make_read_op(self, node: int, rng: Stream) -> Op:
        k = min(self.balance_sample, len(self.accounts))
        sample = [
            self.accounts[i]
            for i in self.pick_indices(rng, len(self.accounts), k, replace=False)
        ]
        return Op(
            body=total_balance,
            args=(sample,),
            profile="bank.balance",
            is_read=True,
        )
