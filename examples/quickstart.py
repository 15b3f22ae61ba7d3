#!/usr/bin/env python3
"""Quickstart: a distributed bank transfer with closed-nested legs.

Builds a 4-node simulated D-STM cluster running the paper's RTS
scheduler, allocates two accounts on different nodes, and runs one
atomic transfer whose debit and credit legs are closed-nested child
transactions.  The tracer, filtered to object grants, shows TFA's lazy
acquisition: copies while the body runs, ownership at commit.

Run:  python examples/quickstart.py
"""

from repro import Cluster, SchedulerKind


def debit(tx, account, amount):
    balance = yield from tx.read(account)
    yield from tx.write(account, balance - amount)
    return balance - amount


def credit(tx, account, amount):
    balance = yield from tx.read(account)
    yield from tx.write(account, balance + amount)
    return balance + amount


def transfer(tx, src, dst, amount):
    """Parent transaction: two closed-nested legs + an audit read."""
    src_after = yield from tx.nested(debit, src, amount, profile="debit")
    dst_after = yield from tx.nested(credit, dst, amount, profile="credit")
    yield from tx.compute(1e-3)  # local risk check
    return src_after, dst_after


def main():
    cluster = Cluster(num_nodes=4, seed=42, scheduler=SchedulerKind.RTS,
                      trace=True, trace_categories=("dstm.grant",))

    alice = cluster.alloc("acct/alice", 100, node=0)
    bob = cluster.alloc("acct/bob", 50, node=3)  # lives across the network

    src_after, dst_after = cluster.run_transaction(
        transfer, alice, bob, 25, node=1, profile="transfer",
    )

    print(f"simulated time elapsed : {cluster.env.now * 1e3:.2f} ms")
    print(f"alice                  : {cluster.committed_value(alice)} (reported {src_after})")
    print(f"bob                    : {cluster.committed_value(bob)} (reported {dst_after})")
    print(f"messages on the wire   : {cluster.network.messages_sent.value}")
    print("object grants (mode r = copy, a = ownership acquired at commit):")
    print(cluster.tracer.dump())
    print(f"alice now lives on node{cluster.owner_of(alice)} "
          f"(ownership migrated to the writer)")

    assert cluster.committed_value(alice) == 75
    assert cluster.committed_value(bob) == 75
    print("OK — money conserved.")


if __name__ == "__main__":
    main()
