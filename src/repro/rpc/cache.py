"""The directory lookup cache — version-fenced owner/location metadata.

One per node, owned by the node's :class:`~repro.dstm.proxy.TMProxy`
(``proxy.owner_hints``): the proxy's ``Open_Object`` path, TFA
validation and registration replies, and fault recovery's re-hosting
all fold ownership facts into it through the typed methods below and
nothing else.  Caching location metadata is what makes the lookup phase
O(1) instead of one directory round trip per open — the
locality-exploitation lever Hendler et al. identify as the key to
distributed-TM scaling with node count.

Two modes:

* **hint mode** (``fencing=False``, the default) — entries appear and
  disappear exactly where the protocol puts and drops them; versions are
  recorded but never acted on, so :meth:`note_version` and
  :meth:`note_install` are no-ops.  Same-seed runs are pinned by
  ``tests/rpc/test_equivalence.py``.
* **fenced mode** (``fencing=True``) — entries remember the object
  version they were learned at; :meth:`note_version` invalidates an
  entry the moment any protocol reply proves the registered version has
  moved past it (an ownership migration elsewhere), so the next open
  asks the directory instead of chasing a stale owner.

Entries are keyed by oid and every object is allocated at bootstrap, so
a cache never holds more entries than the cluster has objects: there is
no capacity bound and no eviction.

Hit/miss counters are host-side only (they never influence simulated
behaviour) and feed ``Cluster.rpc_cache_stats`` and the ``rpc.cache``
observability series.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["LookupCache"]


class LookupCache:
    """oid -> (owner, learned-at-version) with optional version fencing."""

    __slots__ = (
        "fencing", "_owners", "_versions",
        "hits", "misses", "fences", "sanitizer",
    )

    def __init__(self, fencing: bool = False) -> None:
        self.fencing = bool(fencing)
        self._owners: Dict[str, int] = {}
        self._versions: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.fences = 0
        #: runtime invariant sanitizer (repro.check); set by the cluster
        #: when CheckConfig.sanitize is on, else mutations skip the check
        self.sanitizer = None

    def put(self, oid: str, owner: int, version: Optional[int] = None) -> None:
        """Record that ``oid`` lives at ``owner`` (as of ``version``)."""
        self._owners[oid] = owner
        if version is not None:
            self._versions[oid] = int(version)
        else:
            # An ownership fact with no version anchor: drop any stale
            # version record so fencing never judges the new entry by a
            # previous owner's learn point.
            self._versions.pop(oid, None)
        if self.sanitizer is not None:
            self.sanitizer.check_cache(self)

    def learn(self, oid: str, owner: int, version: Optional[int] = None) -> None:
        """:meth:`put`, unless ``oid`` already has an entry."""
        if oid not in self._owners:
            self.put(oid, owner, version)

    def lookup(self, oid: str) -> Optional[int]:
        """The cached owner (counting the hit/miss), or None."""
        owner = self._owners.get(oid)
        if owner is None:
            self.misses += 1
        else:
            self.hits += 1
        return owner

    def owner(self, oid: str) -> Optional[int]:
        """The cached owner, or None; not counted as a probe."""
        return self._owners.get(oid)

    def drop(self, oid: str) -> None:
        """Forget ``oid`` (no-op when absent)."""
        self._owners.pop(oid, None)
        self._versions.pop(oid, None)

    def note_version(self, oid: str, version: Optional[int],
                     owner: Optional[int] = None) -> None:
        """Fold a version observation from any protocol reply.

        In fenced mode an entry whose recorded version is behind
        ``version`` is stale — the registered version only advances when
        a commit moves the object's authority — so it is replaced when
        the observation names the ``owner`` and dropped otherwise.  Hint
        mode records nothing and never drops.
        """
        if not self.fencing or version is None:
            return
        version = int(version)
        cached_version = self._versions.get(oid)
        if owner is not None:
            # Authoritative observation (a lookup reply or a fenced
            # registration ack names the real owner): take it.
            self.put(oid, owner, version)
            return
        if oid not in self._owners:
            return
        if cached_version is not None and cached_version < version:
            # The registry moved past what this entry was learned at:
            # the owner it names may no longer hold the object.  Entries
            # with no version anchor are unjudgeable and kept — a wrong
            # one heals through the not_owner chase.
            del self._owners[oid]
            self._versions.pop(oid, None)
            self.fences += 1
        if self.sanitizer is not None:
            self.sanitizer.check_cache(self)

    def note_install(self, oid: str, owner: int, version: int) -> None:
        """A commit at ``owner`` installed ``version`` of ``oid``.

        Fenced mode advances the entry to the registered version, or the
        next validate reply would fence the entry for an object the node
        itself holds.  Hint mode leaves the entry as it is.
        """
        if self.fencing:
            self.put(oid, owner, version)

    def __repr__(self) -> str:
        mode = "fenced" if self.fencing else "hint"
        return (
            f"<LookupCache {mode} entries={len(self._owners)} "
            f"hits={self.hits} misses={self.misses}>"
        )
