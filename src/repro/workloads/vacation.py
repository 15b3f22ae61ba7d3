"""Vacation: distributed port of the STAMP travel-reservation benchmark.

The original (Cao Minh et al., IISWC 2008) maintains relations of cars,
flights and rooms plus customer records; a reservation transaction checks
availability and books one item of each requested type, atomically, for a
customer.  Our distributed version makes every resource row and every
customer record a shared D-STM object spread over the nodes.

Transaction shapes (the longest of the six benchmarks — several nested
children, each with a potentially remote object, matching §IV's
observation that Vacation/Bank run longest):

* **make_reservation** (write): parent books a car + flight + room via
  three closed-nested children (each: read row, decrement availability),
  then a fourth nested child appends the booking to the customer record.
* **cancel** (write): releases a customer's bookings (nested child per
  resource) and clears the record.
* **query** (read): reads availability/price of a handful of rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional, Tuple

from repro.core.cluster import Cluster
from repro.workloads.base import Op, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import TransactionHandle
    from repro.sim.rng import Stream

__all__ = ["VacationWorkload"]

RESOURCE_KINDS = ("car", "flight", "room")

#: resource row: (total, available, price)
Row = Tuple[int, int, int]


def _book_resource(
    tx: TransactionHandle, oid: str, customer_oid: str
) -> Generator[Any, Any, bool]:
    """One booking leg: check the customer's record (no double booking),
    then take one unit of the resource.  Two-object read set, as in
    STAMP's per-relation reservation steps."""
    record: Tuple[str, ...] = yield from tx.read(customer_oid)
    if oid in record:
        return True  # idempotent: already booked
    total, available, price = yield from tx.read(oid)
    if available <= 0:
        return False
    yield from tx.write(oid, (total, available - 1, price))
    return True


def _release_resource(tx: TransactionHandle, oid: str) -> Generator[Any, Any, None]:
    total, available, price = yield from tx.read(oid)
    yield from tx.write(oid, (total, min(total, available + 1), price))


def _append_booking(
    tx: TransactionHandle, customer_oid: str, bookings: Tuple[str, ...]
) -> Generator[Any, Any, None]:
    record: Tuple[str, ...] = yield from tx.read(customer_oid)
    yield from tx.write(customer_oid, record + bookings)


def _clear_customer(
    tx: TransactionHandle, customer_oid: str
) -> Generator[Any, Any, Tuple[str, ...]]:
    record: Tuple[str, ...] = yield from tx.read(customer_oid)
    yield from tx.write(customer_oid, ())
    return record


def make_reservation(
    tx: TransactionHandle, customer_oid: str, resource_oids: List[str], think: float
) -> Generator[Any, Any, bool]:
    """Book every requested resource for the customer, atomically."""
    booked: List[str] = []
    for oid in resource_oids:
        ok = yield from tx.nested(_book_resource, oid, customer_oid, profile="vacation.book")
        if not ok:
            # Item sold out: give up the whole reservation.  The parent
            # aborts, undoing the partial bookings (atomicity).
            tx.abort(detail=f"{oid} unavailable")
        booked.append(oid)
    yield from tx.compute(think)  # pricing / itinerary assembly
    yield from tx.nested(
        _append_booking, customer_oid, tuple(booked), profile="vacation.record"
    )
    return True


def cancel_customer(tx: TransactionHandle, customer_oid: str) -> Generator[Any, Any, int]:
    """Release all of a customer's bookings."""
    record = yield from tx.nested(_clear_customer, customer_oid, profile="vacation.record")
    for oid in record:
        yield from tx.nested(_release_resource, oid, profile="vacation.release")
    return len(record)


def query_availability(
    tx: TransactionHandle, resource_oids: List[str]
) -> Generator[Any, Any, List[int]]:
    out: List[int] = []
    for oid in resource_oids:
        _total, available, _price = yield from tx.read(oid)
        out.append(available)
    return out


class VacationWorkload(Workload):
    """Travel-reservation tables + customers."""

    name = "vacation"

    def __init__(
        self,
        read_fraction: float = 0.9,
        rows_per_kind_per_node: int = 2,
        customers_per_node: int = 2,
        initial_capacity: int = 20,
        think_time: float = 3e-3,
        query_size: int = 4,
        payload_size: Optional[int] = None,
    ) -> None:
        super().__init__(read_fraction, payload_size=payload_size)
        self.rows_per_kind_per_node = rows_per_kind_per_node
        self.customers_per_node = customers_per_node
        self.initial_capacity = initial_capacity
        self.think_time = float(think_time)
        self.query_size = query_size
        self.resources: dict[str, List[str]] = {kind: [] for kind in RESOURCE_KINDS}
        self.customers: List[str] = []

    def create_objects(self, cluster: Cluster, rng: Stream) -> None:
        for node in range(cluster.num_nodes):
            for kind in RESOURCE_KINDS:
                for i in range(self.rows_per_kind_per_node):
                    oid = f"vac/{kind}{node}_{i}"
                    price = int(rng.integers(50, 500))
                    cluster.alloc(
                        oid, (self.initial_capacity, self.initial_capacity, price),
                        node=node,
                    )
                    self.resources[kind].append(oid)
            for i in range(self.customers_per_node):
                oid = f"vac/cust{node}_{i}"
                cluster.alloc(oid, (), node=node)
                self.customers.append(oid)

    # ------------------------------------------------------------------

    def _pick_resources(self, rng: Stream) -> List[str]:
        picks = []
        for kind in RESOURCE_KINDS:
            rows = self.resources[kind]
            picks.append(rows[self.pick_key(rng, len(rows))])
        return picks

    def make_write_op(self, node: int, rng: Stream) -> Op:
        customer = self.customers[self.pick_key(rng, len(self.customers))]
        if rng.random() < 0.75:
            return Op(
                make_reservation,
                (customer, self._pick_resources(rng), self.think_time),
                "vacation.reserve",
                is_read=False,
            )
        return Op(cancel_customer, (customer,), "vacation.cancel", is_read=False)

    def make_read_op(self, node: int, rng: Stream) -> Op:
        all_rows = [oid for rows in self.resources.values() for oid in rows]
        k = min(self.query_size, len(all_rows))
        idx = self.pick_indices(rng, len(all_rows), k, replace=False)
        sample = [all_rows[i] for i in idx]
        return Op(query_availability, (sample,), "vacation.query", is_read=True)
