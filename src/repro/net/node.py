"""Node runtime: message dispatch, request/reply plumbing, clock handling.

A :class:`Node` is the per-machine container.  Protocol layers (the TM
proxy, directory shard, scheduler) register handlers per
:class:`~repro.net.message.MessageType`; the node delivers each inbound
message to its handler after advancing the local TFA clock to the
piggybacked value — the clock-propagation rule TFA relies on.

The :meth:`Node.request` helper implements blocking RPC for process code::

    reply = yield from node.request(dst, MessageType.DIR_LOOKUP, {"oid": oid})

:meth:`Node.submit` is the non-blocking form: it returns the reply event,
so a fan-out can send *k* requests and ``yield env.all_of(events)``.
Replies are matched on ``reply_to``.  A deadline is a property of a
:class:`repro.rpc.RetryPolicy`: under one, a reply that misses every
growing window turns into :class:`RpcError` (the simulated network is
reliable, so that only happens under fault injection or when a peer
deliberately withholds a reply).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Generator, Optional

from repro.net.clocks import NodeClock
from repro.net.message import Message, MessageType
from repro.sim import Environment, Event, Timeout
from repro.sim.events import _PENDING

__all__ = ["Node", "RpcError"]

Handler = Callable[[Message], Any]


class RpcError(RuntimeError):
    """A request did not complete (timeout)."""


class _InboxServer:
    """Serial message server of one node: one message per service period.

    A callback chain, not a process: :meth:`Node.deliver` queues an
    arriving message and, if the server is idle, schedules one service
    Timeout, whose callback dispatches the head of the queue and then
    schedules the next period or goes idle — two kernel events per
    message (link delay + service).  ``name`` is what the kernel
    profiler and the explorer attribute those events to.
    The Timeout carries no value: the explorer reads a Message-valued
    Timeout as an in-flight remote delivery.
    """

    __slots__ = ("name", "node", "queue", "busy")

    def __init__(self, node: "Node") -> None:
        self.name = f"n{node.node_id}.inbox"
        self.node = node
        self.queue: deque = deque()  # (arrival time, message)
        self.busy = False

    def _served(self, _event: Event) -> None:
        node = self.node
        env = node.env
        arrived, msg = self.queue.popleft()
        node.messages_processed += 1
        node.total_queueing_delay += env._now - arrived
        # busy stays set across the dispatch: a handler that sends to its
        # own node queues behind this chain instead of starting a second
        node._dispatch(msg)
        if self.queue:
            Timeout(env, node.msg_process_time).callbacks.append(self._served)
        else:
            self.busy = False


class Node:
    """One simulated machine attached to a :class:`~repro.net.network.Network`."""

    def __init__(
        self,
        env: Environment,
        network: "Network",  # noqa: F821
        node_id: int,
        clock: Optional[NodeClock] = None,
        msg_process_time: float = 0.0,
    ) -> None:
        self.env = env
        self.network = network
        #: the one way a message leaves this node, bound once
        self._net_send = network.send
        self.node_id = node_id
        self.clock = clock or NodeClock(node_id)
        self._handlers: Dict[MessageType, Handler] = {}
        self._pending_replies: Dict[int, Any] = {}  # msg_id -> Event
        #: per-message CPU service time of this node's proxy stack.  When
        #: positive, inbound messages queue behind each other (a serial
        #: server): hot nodes congest, so protocols that flood the network
        #: with retries pay for it — the "additional requests incur more
        #: contention" effect of the paper (§IV-C).
        self.msg_process_time = float(msg_process_time)
        self._inbox = _InboxServer(self)
        #: total messages processed and cumulative queueing delay
        self.messages_processed = 0
        self.total_queueing_delay = 0.0
        #: replies that arrived after their RPC waiter gave up (timeout)
        #: and that no handler wanted — dropped, counted here.  Only
        #: nonzero under fault injection.
        self.late_replies = 0
        network.attach(self)

    # -- handler registry -------------------------------------------------------

    def on(self, mtype: MessageType, handler: Handler) -> None:
        """Register ``handler`` for ``mtype`` (one handler per type)."""
        if mtype in self._handlers:
            raise ValueError(f"node {self.node_id}: handler for {mtype} already set")
        self._handlers[MessageType(mtype)] = handler

    # -- inbound ------------------------------------------------------------------

    def deliver(self, msg: Message) -> None:
        """Entry point called by the network on message arrival.

        With a zero service time the message dispatches inline; otherwise
        it queues behind the node's serial message server, starting a
        service period if the server is idle.
        """
        service = self.msg_process_time
        if service <= 0.0:
            self._dispatch(msg)
            return
        inbox = self._inbox
        env = self.env
        inbox.queue.append((env._now, msg))
        if not inbox.busy:
            inbox.busy = True
            Timeout(env, service).callbacks.append(inbox._served)

    def _dispatch(self, msg: Message) -> None:
        # TFA rule: advance the local transactional clock to any larger
        # observed value before processing.
        clock = self.clock
        if msg.clock > clock.tfa_clock:
            clock.advance_to(msg.clock)

        if msg.reply_to is not None:
            waiter = self._pending_replies.pop(msg.reply_to, None)
            if waiter is not None and waiter._value is _PENDING:
                waiter.succeed(msg)
                return
            # Fall through: unsolicited/late replies go to handlers too
            # (the RTS object hand-off after backoff expiry needs this).
        handler = self._handlers.get(msg.mtype)
        if handler is None:
            if msg.reply_to is not None:
                # A reply to an RPC that timed out and moved on (fault
                # injection): stale information, safe to discard.  Replies
                # that carry recoverable state (object transfers) have
                # dedicated handlers and never reach this branch.
                self.late_replies += 1
                return
            raise LookupError(
                f"node {self.node_id} has no handler for {msg.mtype} "
                f"(message {msg!r})"
            )
        result = handler(msg)
        if result is not None and hasattr(result, "send"):
            # Handlers may be generator functions: run them as processes.
            self.env.process(result, name=f"n{self.node_id}.{msg.mtype.value}")

    # -- outbound ------------------------------------------------------------------

    def send(
        self,
        dst: int,
        mtype: MessageType,
        payload: Optional[dict] = None,
        reply_to: Optional[int] = None,
        wire_bytes: int = 0,
    ) -> Message:
        """Fire-and-forget send; returns the message (for its id).

        ``wire_bytes`` declares payload-plane bytes riding the message
        (object bodies, eager grants); the network's optional cost model
        charges them, so they must be set here — before dispatch — not
        patched onto the message afterwards.
        """
        msg = Message(
            mtype, self.node_id, dst, payload or {},
            self.clock.tfa_clock, reply_to, wire_bytes,
        )
        self._net_send(msg)
        return msg

    def reply(
        self,
        to: Message,
        mtype: MessageType,
        payload: Optional[dict] = None,
        wire_bytes: int = 0,
    ) -> Message:
        """Answer a request message."""
        msg = Message(
            mtype, self.node_id, to.src, payload or {},
            self.clock.tfa_clock, to.msg_id, wire_bytes,
        )
        self._net_send(msg)
        return msg

    def submit(
        self, dst: int, mtype: MessageType, payload: Optional[dict] = None
    ) -> Event:
        """Non-blocking RPC: send the request, return its reply event.

        The event succeeds with the reply :class:`Message` when the reply
        is dispatched here.  No deadline and no retry — it never fires if
        the reply is lost; those need the loop in :meth:`request`.
        """
        msg = Message(
            mtype, self.node_id, dst, payload or {}, self.clock.tfa_clock
        )
        self._net_send(msg)
        waiter = Event(self.env)
        self._pending_replies[msg.msg_id] = waiter
        return waiter

    def request(
        self,
        dst: int,
        mtype: MessageType,
        payload: Optional[dict] = None,
        policy: Optional[Any] = None,
        on_timeout: Optional[Callable[[int, float, bool], None]] = None,
    ) -> Generator[Any, Any, Message]:
        """Blocking RPC (generator; use with ``yield from``).

        Returns the reply :class:`Message`.  Without a ``policy`` this is
        one wait on :meth:`submit`'s reply event — no deadline.

        With a ``policy`` (a :class:`repro.rpc.RetryPolicy`) this is THE
        retry loop of the whole stack: each attempt re-sends the request
        and awaits the reply under ``policy.nth_timeout(attempt)`` — the
        growing window is the backoff — until a reply lands or every
        attempt is exhausted (:class:`RpcError`).  ``on_timeout(attempt,
        window, will_retry)`` is invoked after each expired window so
        callers can count/trace retries without owning the loop.
        """
        if policy is not None:
            attempts = policy.max_retries + 1
            for attempt in range(attempts):
                window = policy.nth_timeout(attempt)
                msg = self.send(dst, mtype, payload)
                waiter = self.env.event()
                self._pending_replies[msg.msg_id] = waiter
                expiry = self.env.timeout(window)
                outcome = yield (waiter | expiry)
                if waiter in outcome:
                    return outcome[waiter]
                self._pending_replies.pop(msg.msg_id, None)
                if on_timeout is not None:
                    on_timeout(attempt, window, attempt + 1 < attempts)
            raise RpcError(
                f"node {self.node_id}: no reply to {mtype.value} from node "
                f"{dst} after {attempts} attempts"
            )
        reply = yield self.submit(dst, mtype, payload)
        return reply

    # -- local time -------------------------------------------------------------------

    @property
    def now_local(self) -> float:
        """This node's wall-clock reading (skewed/drifting)."""
        return self.clock.wall_time(self.env.now)

    def __repr__(self) -> str:
        return f"<Node {self.node_id} tfa_clock={self.clock.tfa_clock}>"
