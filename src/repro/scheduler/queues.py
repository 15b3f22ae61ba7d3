"""Per-object requester queues — the paper's ``Requester_List`` /
``scheduling_List`` (Algorithm 1).

A :class:`RequesterList` holds the transactions enqueued behind one busy
object, in arrival order, together with the per-object backoff backlog
``bk`` (the accumulated expected execution time of everything queued
ahead).  Queues travel with object hand-offs: when ownership migrates,
the remaining queue ships along so the new owner keeps serving it
(§III-B's committed-object forwarding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.dstm.objects import ObjectMode

__all__ = ["Requester", "RequesterList"]


@dataclass(slots=True)
class Requester:
    """One queue entry (paper's ``Requester`` class: address + txid)."""

    node: int
    txid: str                 # root txid
    mode: ObjectMode


class RequesterList:
    """Arrival-ordered queue of requesters for a single object."""

    def __init__(self) -> None:
        self._entries: List[Requester] = []
        #: accumulated expected-execution backlog (the paper's ``bk``)
        self.bk: float = 0.0

    # -- paper API -------------------------------------------------------------

    def add_requester(self, requester: Requester) -> None:
        """``addRequester``: queue behind everyone already waiting."""
        self._entries.append(requester)

    def remove_duplicate(self, txid: str) -> bool:
        """``removeDuplicate``: drop a previous entry of the same root
        transaction (it re-requested after its backoff expired).  Returns
        True when an entry was removed."""
        for i, entry in enumerate(self._entries):
            if entry.txid == txid:
                del self._entries[i]
                return True
        return False

    def get_contention(self) -> int:
        """``getContention()``: how many transactions are waiting here."""
        return len(self._entries)

    # -- serving -----------------------------------------------------------------

    def pop_copy_requesters(self) -> List[Requester]:
        """Remove and return every queued snapshot requester (reads and
        write-copies) — served simultaneously, §III-B: the updated object
        is multicast to all of them."""
        copies = [e for e in self._entries if e.mode.is_copy]
        self._entries = [e for e in self._entries if not e.mode.is_copy]
        return copies

    def pop_next_acquirer(self) -> Optional[Requester]:
        """Remove and return the first queued ownership acquirer, if any."""
        for i, entry in enumerate(self._entries):
            if entry.mode is ObjectMode.ACQUIRE:
                del self._entries[i]
                return entry
        return None

    def reset_backlog(self) -> None:
        """Clear ``bk`` (called when the object frees up / queue drains)."""
        self.bk = 0.0

    # -- introspection ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Requester]:
        return iter(self._entries)

    def __contains__(self, txid: str) -> bool:
        return any(e.txid == txid for e in self._entries)

    def snapshot(self) -> List[Requester]:
        """A shallow copy of the entries, for shipping with hand-offs."""
        return list(self._entries)

    @classmethod
    def from_snapshot(cls, entries: List[Requester], bk: float = 0.0) -> "RequesterList":
        out = cls()
        out._entries = list(entries)
        out.bk = bk
        return out

    def __repr__(self) -> str:
        return f"<RequesterList n={len(self._entries)} bk={self.bk:.4f}>"
