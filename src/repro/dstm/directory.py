"""Directory shards: the cache-coherence protocol's location service.

Every object has a *home* node (``home_node(oid, N)``).  The home's
directory shard stores the authoritative ``(owner, registered_version)``
pair.  This satisfies both CC-protocol properties the paper requires
(§II): a request reaches a node holding a valid copy in finite time (one
lookup plus at most a short forwarding chain while a migration is in
flight), and at any time there is exactly one writable copy (ownership
changes are serialised through RETRIEVE grants and hand-offs; the
directory merely tracks them).

The shard also answers version queries (``READ_VALIDATE``): TFA's read-set
validation compares the version a transaction read against the home's
registered committed version.  Commit-time *global registration of object
ownership* (the paper's phrase for why validation takes long) is the
``DIR_UPDATE`` round trip updating this registry.

Each entry also keeps a *snapshot* of the last committed ``(version,
value)`` the home has seen (the bootstrap value, then whatever transfers
carry); ``Cluster.authoritative_value`` reads it.

The shard holds no fault-tolerance code.  With ``faults.enabled`` the
cluster sets :attr:`DirectoryShard.recovery` to a
:class:`repro.faults.recovery.HomeRecovery`, which serves the fault
layer's own endpoints; the shard calls out to it before a read, before
an update registers, and after a registration or withdraw.  Otherwise
``recovery`` is None and each of those sites is one guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.net.message import Message
from repro.net.node import Node
from repro.rpc import serve
from repro.sim import Tracer

__all__ = ["DirEntry", "DirectoryShard"]

_UNSET = object()


@dataclass
class DirEntry:
    """One object's authoritative record at its home."""

    owner: int
    version: int
    #: custody generation: one more per fault-recovery re-host (the one
    #: place a generation is minted); registrations leave it alone
    gen: int = 0
    #: txid of the commit attempt that registered this version (None for
    #: bootstrap/transfer/re-host registrations); a withdraw must match it
    registered_by: Optional[str] = None
    #: last *committed* (version, value) the home has seen.  Provisional
    #: commit registrations never touch it.
    has_snapshot: bool = False
    snapshot_version: int = -1
    snapshot_value: Any = None

    def note_snapshot(self, version: Optional[int], value: Any) -> None:
        """Absorb a committed ``(version, value)`` unless it is older."""
        if version is None:
            return
        if not self.has_snapshot or int(version) >= self.snapshot_version:
            self.has_snapshot = True
            self.snapshot_version = int(version)
            self.snapshot_value = value


class DirectoryShard:
    """The directory state hosted at one node."""

    def __init__(self, node: Node, tracer: Optional[Tracer] = None) -> None:
        self.node = node
        self.tracer = tracer or Tracer()
        #: runtime invariant sanitizer (repro.check); set by the cluster
        #: when CheckConfig.sanitize is on, else every hook stays a
        #: one-guard no-op
        self.sanitizer: Optional[Any] = None
        #: :class:`repro.faults.recovery.HomeRecovery`: set by the cluster
        #: only when ``faults.enabled``, otherwise absent
        self.recovery: Optional[Any] = None
        self._entries: Dict[str, DirEntry] = {}
        # The shard is the server side of the directory endpoints: each
        # handler returns the reply payload; repro.rpc.serve binds it to
        # the endpoint's request type and sends the typed reply.
        serve(node, "dir_lookup", self._on_lookup)
        serve(node, "dir_update", self._on_update)
        serve(node, "read_validate", self._on_validate)

    # -- local (home==here) API ----------------------------------------------------

    def register(
        self,
        oid: str,
        owner: int,
        version: Optional[int] = None,
        value: Any = _UNSET,
        value_version: Optional[int] = None,
        registered_by: Optional[str] = None,
        gen: int = 0,
    ) -> None:
        """Create or update an entry.  ``version=None`` keeps the old one.

        ``value`` (with ``value_version``) records a committed snapshot;
        omitted, the snapshot is untouched.  ``registered_by`` names the
        commit attempt behind this registration (withdraw matching);
        ``gen``, its copy's custody generation, only the sanitizer reads.
        """
        entry = self._entries.get(oid)
        if self.sanitizer is not None:
            self.sanitizer.note_register(
                self.node.node_id, oid,
                int(version) if version is not None else None,
                now=self.node.env.now, gen=gen,
            )
        if entry is None:
            entry = DirEntry(owner=owner, version=version if version is not None else 0)
            self._entries[oid] = entry
        else:
            entry.owner = owner
            if version is not None:
                entry.version = int(version)
        entry.registered_by = registered_by
        if value is not _UNSET:
            entry.note_snapshot(
                value_version if value_version is not None else entry.version,
                value,
            )
        if self.recovery is not None:
            self.recovery.renew(oid)

    def entry(self, oid: str) -> Optional[DirEntry]:
        """The entry for ``oid`` as it stands, or None."""
        return self._entries.get(oid)

    def lookup(self, oid: str) -> Optional[Tuple[int, int]]:
        if self.recovery is not None:
            self.recovery.reclaim(oid)
        entry = self._entries.get(oid)
        return (entry.owner, entry.version) if entry is not None else None

    def registered_version(self, oid: str) -> Optional[int]:
        entry = self._entries.get(oid)
        return entry.version if entry is not None else None

    def owner_of(self, oid: str) -> Optional[int]:
        if self.recovery is not None:
            self.recovery.reclaim(oid)
        entry = self._entries.get(oid)
        return entry.owner if entry is not None else None

    def snapshot_of(self, oid: str) -> Optional[Tuple[int, Any]]:
        """The home's committed ``(version, value)`` snapshot, if any."""
        entry = self._entries.get(oid)
        if entry is None or not entry.has_snapshot:
            return None
        return (entry.snapshot_version, entry.snapshot_value)

    def __contains__(self, oid: str) -> bool:
        return oid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- message handlers ---------------------------------------------------------------

    def _on_lookup(self, msg: Message) -> Dict[str, Any]:
        oid = msg.payload["oid"]
        if self.recovery is not None:
            self.recovery.reclaim(oid)
        entry = self._entries.get(oid)
        return {
            "oid": oid,
            "known": entry is not None,
            "owner": entry.owner if entry else None,
            "version": entry.version if entry else None,
        }

    def _on_update(self, msg: Message) -> Dict[str, Any]:
        p = msg.payload
        oid = p["oid"]
        owner = p["owner"]
        version = p.get("version")
        entry = self._entries.get(oid)

        if p.get("withdraw"):
            # A failed commit rolling back its provisional registration;
            # honoured only when the registration in place is *the one
            # being withdrawn*: same registered owner, exactly one version
            # ahead of the rollback target, and (when given) the same
            # commit-attempt txid.  Anything else — a re-host or competing
            # commit superseded it, or this is a duplicated/late copy of a
            # withdraw that already applied — must not roll the registry
            # back under a newer registration.
            txid = p.get("txid")
            if (
                entry is not None
                and entry.owner == owner
                and version is not None
                and entry.version == int(version) + 1
                and (txid is None or entry.registered_by == txid)
            ):
                if self.sanitizer is not None:
                    self.sanitizer.note_withdraw(
                        self.node.node_id, oid, entry.version, int(version),
                        txid, now=self.node.env.now,
                    )
                entry.version = int(version)
                entry.registered_by = None
                if self.recovery is not None:
                    self.recovery.withdrew(oid, txid)
            return {"oid": oid, "ok": True}

        if self.recovery is not None and entry is not None:
            nack = self.recovery.fence(entry, p)
            if nack is not None:
                return nack

        tracer = self.tracer
        if (
            tracer.enabled and tracer.wants("dir.owner")
            and (entry is None or entry.owner != owner)
        ):
            # Ownership-migration audit: the registered owner changes.
            tracer.emit(
                self.node.env.now, "dir.owner", oid,
                node=f"n{self.node.node_id}", owner=owner,
                prev=entry.owner if entry is not None else -1,
            )
        self.register(
            oid, owner, version,
            value=p["value"] if "value" in p else _UNSET,
            value_version=p.get("value_version"),
            registered_by=p.get("txid"), gen=p.get("gen", 0),
        )
        return {"oid": oid, "ok": True}

    def _on_validate(self, msg: Message) -> Dict[str, Any]:
        oid = msg.payload["oid"]
        read_version = msg.payload["version"]
        registered = self.registered_version(oid)
        return {
            "oid": oid,
            # Unknown objects validate trivially: nothing committed yet.
            "valid": registered is None or registered == read_version,
            "registered_version": registered,
        }

    def __repr__(self) -> str:
        return f"<DirectoryShard node={self.node.node_id} entries={len(self._entries)}>"
