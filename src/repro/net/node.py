"""Node runtime: message dispatch, request/reply plumbing, clock handling.

A :class:`Node` is the per-machine container.  Protocol layers (the TM
proxy, directory shard, scheduler) register handlers per
:class:`~repro.net.message.MessageType`; the node delivers each inbound
message to its handler after advancing the local TFA clock to the
piggybacked value — the clock-propagation rule TFA relies on.

An RPC is its reply signal.  :meth:`Node.submit` sends the request and
returns a :class:`~repro.sim.Signal` — a one-shot wake-up with one
consumer, no callback list and no failure — so a blocking call is
``reply = yield node.submit(dst, mtype, payload)``: the reply's
dispatch pushes one call entry and the process resumes inside it.  A
fan-out sends *k* requests and waits on one counting join
(:meth:`repro.rpc.RpcClient.join`), a signal of the same kind that
fires when the last leg lands.  No reply builds an :class:`~repro.sim.Event`.
Replies are matched on ``reply_to``.  A deadline is a property of a
:class:`repro.rpc.RetryPolicy`: under one, the same signal is driven by
a timer resend chain (:class:`_Resend`, the stack's one retry path) and
resolves with ``None`` once every growing window has expired (the
simulated network is reliable, so that only happens under fault
injection or when a peer deliberately withholds a reply).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Optional

from repro.net.clocks import NodeClock
from repro.net.message import Message, MessageType
from repro.sim import PRIORITY_NORMAL, Environment, Signal
from repro.sim.events import _PENDING

__all__ = ["Node"]

Handler = Callable[[Message], Any]


class _InboxServer:
    """Where a node's messages arrive, and its serial message server: one
    message per service period.

    Two kernel call entries per message, no Event and no process: the
    link delay ends in :meth:`arrive`, which applies the fault veto,
    counts and traces the delivery and, with a positive service time,
    queues the message and, if the server is idle, schedules one service
    period; :meth:`_served` dispatches the head of the queue and then
    schedules the next period or goes idle.  ``name`` is what the kernel
    profiler and the explorer attribute both calls to; the explorer
    tells an arrival from a service period by its argument (a
    :class:`Message`, or ``None``).
    """

    __slots__ = ("name", "node", "network", "queue", "busy")

    def __init__(self, node: "Node") -> None:
        self.name = f"n{node.node_id}.inbox"
        self.node = node
        self.network = node.network
        self.queue: deque = deque()  # (arrival time, message)
        self.busy = False

    def arrive(self, msg: Message) -> None:
        """A message's link delay is over: deliver it to this node.

        With a zero service time the message dispatches inline; otherwise
        it queues behind the node's serial message server, starting a
        service period if the server is idle.
        """
        network = self.network
        injector = network.injector
        if injector is not None and not injector.on_deliver(msg):
            return  # destination crashed while the message was in flight
        network.messages_delivered.value += 1
        node = self.node
        env = node.env
        tracer = network.tracer
        if tracer.enabled and tracer.wants("net.recv"):
            tracer.emit(
                env._now, "net.recv", f"msg{msg.msg_id}",
                mtype=msg.mtype.value, src=msg.src, dst=msg.dst,
            )
        service = node.msg_process_time
        if service <= 0.0:
            node._dispatch(msg)
            return
        self.queue.append((env._now, msg))
        if not self.busy:
            self.busy = True
            env._seq += 1  # Environment.call_later's push, inlined
            env._qpush(
                (env._now + service, PRIORITY_NORMAL, env._seq, self._served, None)
            )

    def _served(self, _arg: None) -> None:
        node = self.node
        env = node.env
        arrived, msg = self.queue.popleft()
        node.messages_processed += 1
        node.total_queueing_delay += env._now - arrived
        # busy stays set across the dispatch: a handler that sends to its
        # own node queues behind this chain instead of starting a second.
        # Node._dispatch's clock rule and reply match, inlined: a reply's
        # service period pushes its waiter's call entry in this frame.
        clock = node.clock
        if msg.clock > clock.tfa_clock:
            clock.advance_to(msg.clock)
        waiter = (
            None if msg.reply_to is None
            else node._pending_replies.pop(msg.reply_to, None)
        )
        if waiter is not None and waiter._value is _PENDING:
            waiter._value = msg  # Signal.succeed, inlined
            env._seq += 1
            env._qpush((env._now, PRIORITY_NORMAL, env._seq, waiter._fire, None))
        else:
            # a request, or a late reply (falls through to the handlers)
            node._handle(msg)
        if self.queue:
            env._seq += 1  # Environment.call_later's push, inlined
            env._qpush((
                env._now + node.msg_process_time, PRIORITY_NORMAL, env._seq,
                self._served, None,
            ))
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
        #: request type -> the reply type its handler's result is sent as
        #: (None: the handler is not a server function)
        self._reply_types: Dict[MessageType, Optional[MessageType]] = {}
        self._pending_replies: Dict[int, Signal] = {}  # msg_id -> reply
        #: what the profiler and the explorer attribute this node's reply
        #: signals and resend windows to
        self.rpc_name = f"n{node_id}.rpc"
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

    def on(
        self,
        mtype: MessageType,
        handler: Handler,
        reply: Optional[MessageType] = None,
    ) -> None:
        """Register ``handler`` for ``mtype`` (one handler per type).

        With a ``reply`` type the handler is a server function: a result
        other than None is the reply payload, which the dispatch sends
        back as a ``reply`` message; None withholds the reply.
        """
        if mtype in self._handlers:
            raise ValueError(f"node {self.node_id}: handler for {mtype} already set")
        mtype = MessageType(mtype)
        self._handlers[mtype] = handler
        self._reply_types[mtype] = reply

    # -- inbound ------------------------------------------------------------------

    def _dispatch(self, msg: Message) -> None:
        # TFA rule: advance the local transactional clock to any larger
        # observed value before processing.
        clock = self.clock
        if msg.clock > clock.tfa_clock:
            clock.advance_to(msg.clock)

        if msg.reply_to is not None:
            waiter = self._pending_replies.pop(msg.reply_to, None)
            if waiter is not None and waiter._value is _PENDING:
                # Signal.succeed, inlined: the reply's one call entry
                waiter._value = msg
                env = self.env
                env._seq += 1
                env._qpush((env._now, PRIORITY_NORMAL, env._seq, waiter._fire, None))
                return
            # Fall through: unsolicited/late replies go to handlers too
            # (the RTS object hand-off after backoff expiry needs this).
        self._handle(msg)

    def _handle(self, msg: Message) -> None:
        """Run ``msg``'s handler: send a server function's reply, run a
        generator handler as a process."""
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
        if result is None:
            return
        reply_type = self._reply_types.get(msg.mtype)
        if reply_type is not None:
            # Node.reply, inlined: the server function's result answers msg
            self._net_send(Message(
                reply_type, self.node_id, msg.src, result,
                self.clock.tfa_clock, msg.msg_id, 0,
            ))
        elif hasattr(result, "send"):
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
        self,
        dst: int,
        mtype: MessageType,
        payload: Optional[dict] = None,
        policy: Optional[Any] = None,
        on_timeout: Optional[Callable[[int, float, bool], None]] = None,
    ) -> Signal:
        """Non-blocking RPC: send the request, return its reply signal.

        The signal succeeds with the reply :class:`Message` when the reply
        is dispatched here.  Without a ``policy`` there is no deadline and
        no retry — it never fires if the reply is lost.  Under a
        ``policy`` (a :class:`repro.rpc.RetryPolicy`) a :class:`_Resend`
        chain drives the same signal: it succeeds with ``None`` once every
        attempt's window has expired, so a join over several calls waits
        for every outcome.  ``on_timeout(attempt, window, will_retry)`` is
        invoked after each expired window so callers can count/trace
        retries without owning the chain.
        """
        msg = Message(
            mtype, self.node_id, dst, payload or {}, self.clock.tfa_clock
        )
        self._net_send(msg)
        waiter = Signal(self.env, self.rpc_name)
        self._pending_replies[msg.msg_id] = waiter
        if policy is not None:
            _Resend(self, waiter, msg, policy, on_timeout)
        return waiter

    # -- local time -------------------------------------------------------------------

    @property
    def now_local(self) -> float:
        """This node's wall-clock reading (skewed/drifting)."""
        return self.clock.wall_time(self.env._now)

    def __repr__(self) -> str:
        return f"<Node {self.node_id} tfa_clock={self.clock.tfa_clock}>"


class _Resend:
    """The retry loop of one RPC under a :class:`repro.rpc.RetryPolicy`,
    as a timer chain on its reply signal — no process.

    Attempt *n* waits ``policy.nth_timeout(n)`` (the growing window is
    the backoff).  Each window is a call entry (``Environment.call_later``,
    the window's length its argument) that, if
    the reply signal is still pending, withdraws the attempt's waiter
    registration — so only the current attempt's reply resolves the
    call, and an expired attempt's reply goes to the handlers or to
    ``late_replies`` — then re-sends under a fresh ``msg_id`` or, after
    the last attempt, succeeds the signal with ``None``.  ``name`` is what
    the kernel profiler and the explorer attribute the window calls to.
    """

    __slots__ = ("name", "node", "reply", "msg", "policy", "on_timeout", "attempt")

    def __init__(
        self,
        node: Node,
        reply: Signal,
        msg: Message,
        policy: Any,
        on_timeout: Optional[Callable[[int, float, bool], None]],
    ) -> None:
        self.name = node.rpc_name
        self.node = node
        self.reply = reply
        self.msg = msg
        self.policy = policy
        self.on_timeout = on_timeout
        self.attempt = 0
        window = policy.nth_timeout(0)
        node.env.call_later(window, self._expired, window)

    def _expired(self, window: float) -> None:
        reply = self.reply
        if reply._value is not _PENDING:
            return  # answered inside this window
        node = self.node
        msg = self.msg
        node._pending_replies.pop(msg.msg_id, None)
        attempt = self.attempt
        will_retry = attempt < self.policy.max_retries
        if self.on_timeout is not None:
            self.on_timeout(attempt, window, will_retry)
        if not will_retry:
            reply.succeed(None)
            return
        self.attempt = attempt = attempt + 1
        self.msg = msg = node.send(msg.dst, msg.mtype, msg.payload)
        node._pending_replies[msg.msg_id] = reply
        window = self.policy.nth_timeout(attempt)
        node.env.call_later(window, self._expired, window)
