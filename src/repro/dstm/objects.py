"""Versioned transactional objects and their per-owner state machine.

An object is identified by a string ``oid``.  Its *home* node (a stable
hash of the oid) hosts the directory entry; its *owner* node holds the
single writable copy (dataflow model: the copy migrates to writers).
Versions are per-object monotonically increasing integers bumped once per
committing write — version equality is all TFA's validation needs.
"""

from __future__ import annotations

import enum
import functools
import zlib
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ObjectMode",
    "ObjectState",
    "VersionedObject",
    "home_node",
]


@functools.lru_cache(maxsize=1 << 16)
def home_node(oid: str, num_nodes: int) -> int:
    """The directory shard responsible for ``oid`` (stable hash).

    Memoised: a pure function of its arguments that every open,
    validation and registration asks again (≈ 10× per commit).
    """
    return zlib.crc32(oid.encode("utf-8")) % num_nodes


class ObjectMode(str, enum.Enum):
    """Access mode of an object request.

    TFA acquires lazily: during execution both reads and writes fetch
    committed *copies* (``READ`` / ``WRITE`` — identical at the owner;
    the distinction is kept for accounting and queue service).  Exclusive
    ownership migrates only at commit time (``ACQUIRE``), which is why
    conflicts concentrate in the validation window (paper Fig. 2/3).
    """

    READ = "r"
    WRITE = "w"
    ACQUIRE = "a"

    @property
    def is_copy(self) -> bool:
        """True for snapshot requests (no ownership change)."""
        return self is not ObjectMode.ACQUIRE


class ObjectState(str, enum.Enum):
    """Owner-side state of a held object."""

    #: owned here, not being committed.
    FREE = "free"
    #: locked for commit-time validation (the paper's conflict window —
    #: "in use" in Algorithm 3's sense).
    VALIDATING = "validating"


@dataclass
class VersionedObject:
    """The owner-side record of one object."""

    oid: str
    value: Any
    version: int = 0
    state: ObjectState = ObjectState.FREE
    #: root txid of the live local writer / validator, when not FREE.
    holder: str | None = None
    #: uncommitted shadow value staged by the holding transaction.
    pending_value: Any = None
    #: payload plane only: node holding the authoritative bytes for the
    #: committed ``version`` (the proxy "factory").  None when the plane
    #: is off or bytes travel eagerly with the record.
    payload_src: int | None = None

    def snapshot(self) -> tuple[Any, int]:
        """The committed (value, version) pair — what readers are served."""
        return (self.value, self.version)

    def commit_write(self, new_value: Any) -> int:
        """Install a committed write; returns the new version."""
        self.value = new_value
        self.version += 1
        self.pending_value = None
        return self.version

    def release(self) -> None:
        """Back to FREE (after commit, abort, or failed hand-off)."""
        self.state = ObjectState.FREE
        self.holder = None
        self.pending_value = None

    def __repr__(self) -> str:
        return (
            f"<Object {self.oid} v{self.version} {self.state.value}"
            + (f" holder={self.holder}" if self.holder else "")
            + ">"
        )
