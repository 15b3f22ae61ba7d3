"""Typed message envelopes for the simulated network.

Every message carries routing metadata (src/dst, monotonically increasing
id), the sender's TFA clock (piggybacked on *all* traffic, as TFA
requires), and a free-form payload dict.  ``reply_to`` links responses to
requests, which is what the node runtime's RPC helper keys on.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, Optional

__all__ = ["Message", "MessageType", "reset_msg_ids"]

_msg_ids = itertools.count(1)


def reset_msg_ids() -> None:
    """Restart the process-global message-id counter at 1.

    Message ids only need to be unique within one simulation; the counter
    is global, so a cell's ids (and therefore its exported traces) depend
    on how many cells ran earlier in the same process.  The parallel
    sweep engine (``repro.par``) calls this before every cell so a cell's
    artifacts are identical whether it runs first, later, serially, or in
    a pool worker.  Never call it mid-simulation.
    """
    global _msg_ids
    _msg_ids = itertools.count(1)


class MessageType(str, enum.Enum):
    """Wire-level message kinds of the D-STM protocol stack."""

    # Cache-coherence / directory protocol
    DIR_LOOKUP = "dir_lookup"            # who owns object o?
    DIR_LOOKUP_REPLY = "dir_lookup_reply"
    DIR_UPDATE = "dir_update"            # ownership registration
    DIR_UPDATE_ACK = "dir_update_ack"

    # Object access protocol (paper Algorithms 2-4)
    RETRIEVE_REQUEST = "retrieve_request"    # Open_Object -> owner
    RETRIEVE_RESPONSE = "retrieve_response"  # owner -> requester
    OBJECT_HANDOFF = "object_handoff"        # queued-requester hand-off

    # Commit protocol
    COMMIT_PUBLISH = "commit_publish"        # new versions announced
    COMMIT_PUBLISH_ACK = "commit_publish_ack"
    READ_VALIDATE = "read_validate"          # version check during forwarding
    READ_VALIDATE_REPLY = "read_validate_reply"

    # Failure recovery (repro.faults): ownership-lease heartbeats
    LEASE_RENEW = "lease_renew"              # owner -> home: I'm alive
    LEASE_RENEW_ACK = "lease_renew_ack"      # home -> owner: + stale oids
    ORPHAN_RETURN = "orphan_return"          # owner -> home: abandoned copy back
    ORPHAN_RETURN_ACK = "orphan_return_ack"  # home -> owner: accepted / fenced

    # Arrow distributed directory (alternative CC locator; ablation A9)
    ARROW_FIND = "arrow_find"
    ARROW_TOKEN = "arrow_token"

    # Payload plane (repro.rpc.payload): lazy out-of-band byte transfer
    PAYLOAD_FETCH = "payload_fetch"          # reader -> byte factory
    PAYLOAD_FETCH_REPLY = "payload_fetch_reply"

    # Generic
    PING = "ping"
    PONG = "pong"


class Message:
    """An envelope travelling between two nodes.

    Hand-written ``__slots__`` class: messages are the simulation's
    highest-volume allocation (one per protocol hop), so construction is
    one Python frame and an instance carries no ``__dict__``.  Messages
    compare and hash by identity — ``msg_id`` is unique within a
    simulation, so no two distinct envelopes were ever field-wise equal.
    """

    __slots__ = (
        "mtype", "src", "dst", "payload", "clock", "reply_to",
        "msg_id", "sent_at", "wire_bytes",
    )

    def __init__(
        self,
        mtype: MessageType,
        src: int,
        dst: int,
        payload: Optional[Dict[str, Any]] = None,
        clock: int = 0,
        reply_to: Optional[int] = None,
        wire_bytes: int = 0,
    ) -> None:
        # Coerce only when needed: almost every construction site already
        # passes a MessageType, and the enum-call lookup is hot-path cost.
        if mtype.__class__ is not MessageType:
            mtype = MessageType(mtype)
        self.mtype = mtype
        self.src = src
        self.dst = dst
        self.payload: Dict[str, Any] = {} if payload is None else payload
        #: sender's TFA node-clock value at send time (piggybacked everywhere)
        self.clock = clock
        #: id of the request this message answers, if any
        self.reply_to = reply_to
        # the module global, read at call time: reset_msg_ids() rebinds it
        self.msg_id = next(_msg_ids)
        #: simulation time the message was sent (set by the network)
        self.sent_at = 0.0
        #: payload-plane bytes riding this message, on top of the control
        #: envelope (0 for pure control traffic; only the network's optional
        #: bytes-on-wire cost model ever reads it)
        self.wire_bytes = wire_bytes

    def is_reply(self) -> bool:
        return self.reply_to is not None

    def __repr__(self) -> str:
        tail = f" reply_to={self.reply_to}" if self.reply_to is not None else ""
        return (
            f"<Message #{self.msg_id} {self.mtype.value} "
            f"{self.src}->{self.dst} clk={self.clock}{tail}>"
        )
