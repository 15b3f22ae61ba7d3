"""Distributed Hash Table (§IV-A microbenchmark).

Buckets are the shared objects — ``buckets_per_node`` per node, each
holding an immutable tuple of (key, value) pairs.  A *put* transaction is
a parent with one or two closed-nested single-bucket updates (a multi-key
put must be atomic across buckets — the composability motivation from the
paper's introduction); a *get* transaction reads one or two buckets.

DHT transactions are the shortest of the six benchmarks (one object per
nested child, no traversal), which is why the paper sees the highest
throughput — and the smallest RTS advantage — here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional, Tuple

from repro.core.cluster import Cluster
from repro.workloads.base import Op, Workload, zipf_choice

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import TransactionHandle
    from repro.sim.rng import Stream

__all__ = ["DhtWorkload"]

Bucket = Tuple[Tuple[str, Any], ...]


def _bucket_put(
    tx: TransactionHandle, bucket_oid: str, key: str, value: Any
) -> Generator[Any, Any, None]:
    bucket: Bucket = yield from tx.read(bucket_oid)
    entries = tuple((k, v) for k, v in bucket if k != key) + ((key, value),)
    yield from tx.write(bucket_oid, entries)


def _bucket_remove(tx: TransactionHandle, bucket_oid: str, key: str) -> Generator[Any, Any, bool]:
    bucket: Bucket = yield from tx.read(bucket_oid)
    entries = tuple((k, v) for k, v in bucket if k != key)
    yield from tx.write(bucket_oid, entries)
    return len(entries) != len(bucket)


def put_multi(
    tx: TransactionHandle, puts: List[Tuple[str, str, Any]]
) -> Generator[Any, Any, None]:
    """Parent: atomically apply (bucket, key, value) puts via nested txs."""
    for bucket_oid, key, value in puts:
        yield from tx.nested(_bucket_put, bucket_oid, key, value, profile="dht.put")


def remove_multi(
    tx: TransactionHandle, removals: List[Tuple[str, str]]
) -> Generator[Any, Any, int]:
    removed = 0
    for bucket_oid, key in removals:
        hit = yield from tx.nested(_bucket_remove, bucket_oid, key, profile="dht.remove")
        removed += int(hit)
    return removed


def get_multi(
    tx: TransactionHandle, lookups: List[Tuple[str, str]]
) -> Generator[Any, Any, List[Optional[Any]]]:
    """Read-only parent: look keys up across buckets."""
    results: List[Optional[Any]] = []
    for bucket_oid, key in lookups:
        bucket: Bucket = yield from tx.read(bucket_oid)
        results.append(next((v for k, v in bucket if k == key), None))
    return results


class DhtWorkload(Workload):
    """Hash buckets + multi-key atomic puts/gets."""

    name = "dht"

    def __init__(
        self,
        read_fraction: float = 0.9,
        buckets_per_node: int = 8,
        keys_per_bucket: int = 16,
        multi_key_prob: float = 0.5,
        skew: float = 0.0,
        payload_size: Optional[int] = None,
    ) -> None:
        super().__init__(read_fraction, payload_size=payload_size)
        if buckets_per_node < 1:
            raise ValueError("need at least 1 bucket per node")
        if skew < 0:
            raise ValueError("skew must be >= 0")
        self.buckets_per_node = buckets_per_node
        self.keys_per_bucket = keys_per_bucket
        self.multi_key_prob = float(multi_key_prob)
        #: bounded-Zipf exponent for bucket selection: 0 = uniform (the
        #: paper's setting), larger values concentrate traffic on a few
        #: hot buckets (contention hot-spot studies)
        self.skew = float(skew)
        self.buckets: List[str] = []

    def create_objects(self, cluster: Cluster, rng: Stream) -> None:
        for node in range(cluster.num_nodes):
            for i in range(self.buckets_per_node):
                oid = f"dht/bucket{node}_{i}"
                seed_entries = tuple(
                    (f"k{j}", int(rng.integers(0, 1000)))
                    for j in range(self.keys_per_bucket // 2)
                )
                cluster.alloc(oid, seed_entries, node=node)
                self.buckets.append(oid)

    # ------------------------------------------------------------------

    def _draw(self, rng: Stream, n: int) -> List[str]:
        size = min(n, len(self.buckets))
        if self.popularity is not None:
            # Open-loop runs: the traffic plane's popularity replaces the
            # workload's static skew.
            idx = self.popularity.pick_many(
                rng, len(self.buckets), size, replace=False
            )
        else:
            idx = zipf_choice(
                rng, len(self.buckets), self.skew, size=size, replace=False
            )
        return [self.buckets[i] for i in idx]

    def _key(self, rng: Stream) -> str:
        return f"k{int(rng.integers(0, self.keys_per_bucket))}"

    def make_write_op(self, node: int, rng: Stream) -> Op:
        n = 2 if rng.random() < self.multi_key_prob else 1
        if rng.random() < 0.8:
            puts = [(b, self._key(rng), int(rng.integers(0, 1000))) for b in self._draw(rng, n)]
            return Op(put_multi, (puts,), "dht.put_multi", is_read=False)
        removals = [(b, self._key(rng)) for b in self._draw(rng, n)]
        return Op(remove_multi, (removals,), "dht.remove_multi", is_read=False)

    def make_read_op(self, node: int, rng: Stream) -> Op:
        n = 2 if rng.random() < self.multi_key_prob else 1
        lookups = [(b, self._key(rng)) for b in self._draw(rng, n)]
        return Op(get_multi, (lookups,), "dht.get_multi", is_read=True)
