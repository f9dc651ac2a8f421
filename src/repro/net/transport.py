"""Transports above the raw datagram service: reliable delivery and RPC.

:class:`ReliableChannel` gives per-destination FIFO, exactly-once delivery
via acknowledgements, retransmission and sequence-number deduplication.
:class:`RpcEndpoint` gives request/response invocation (the computational-
viewpoint *operational interface* of ODP) beside it, not on it: a call
is sent as plain datagrams, with its own attempt timers and the retries
of its fault policies.

Neither keeps a process per operation.  A send is one
:class:`_PendingSend` and a call one :class:`_PendingCall`, each
advanced by plain callbacks (its packets and its timers), and each
hands its outcome to whoever waits on its event in the call
(:meth:`~repro.sim.Event.resolve`): a waiter runs inside the ack's or
the reply's delivery, before anything else queued for that instant.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import TransportError
from repro.faults.policies import (
    CircuitOpenError,
    FaultPolicies,
    RetryPolicy,
    fixed_retry,
)
from repro.net.network import Host
from repro.net.packet import Packet
from repro.obs.metrics import BoundCounterCache
from repro.obs.propagation import TRACE_HEADER, inject
from repro.sim import Event, Store


def _gauge_sample(gauge, value: int, at: float) -> None:
    """Record a gauge sample, dropping one that runs back in time.

    A registry can outlive an environment, whose t=0 then sits "before"
    samples an earlier one recorded.  A run (``repro.run.run``) and a
    test (``tests/conftest.py``) each get a fresh registry, so the ~270
    drops left in tier-1 (~490 with one registry for all tests) come from
    tests that build several environments, nearly all from two
    hypothesis tests of the reliable channels.
    """
    samples = gauge.samples
    if samples and at < samples[-1][0]:
        return
    gauge.set(value, at=at)


class ReliableChannel:
    """Acknowledged, deduplicated, per-sender FIFO delivery on one port.

    Retransmission timing comes from a
    :class:`~repro.faults.policies.RetryPolicy`.  The default —
    ``fixed_retry(ack_timeout, max_retries)`` — reproduces the classic
    constant-interval behaviour exactly; pass ``backoff`` for
    exponential backoff with deterministic jitter under loss.

    A send is not a process: it is one :class:`_PendingSend` in
    ``_pending_acks``, advanced by its ack and its attempt timers, and
    the ack is handed to the waiters of the send's event in its
    delivery.  Items in order reach a waiting :meth:`receive` the same
    way, inside the data packet's delivery.
    """

    def __init__(self, host: Host, port: int = 1,
                 ack_timeout: float = 0.2, max_retries: int = 8,
                 backoff: Optional[RetryPolicy] = None) -> None:
        if max_retries < 0:
            raise TransportError("max_retries must be non-negative")
        if not ack_timeout >= 0:
            raise TransportError(
                "ack_timeout must be non-negative: {!r}".format(ack_timeout))
        self.host = host
        self.env = host.env
        self.port = port
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries if backoff is None \
            else backoff.max_retries
        self.backoff = backoff if backoff is not None \
            else fixed_retry(ack_timeout, max_retries)
        # Sequence numbers are per destination: the receiver reorders by
        # (sender, seq), so a shared counter would leave permanent gaps
        # for receivers that only see part of the stream.
        self._seq: Dict[str, "itertools.count"] = {}
        #: Sends awaiting their ack, by (destination, sequence number).
        self._pending_acks: Dict[Tuple[str, int], _PendingSend] = {}
        self._expected: Dict[str, int] = {}
        self._reorder: Dict[str, Dict[int, Packet]] = {}
        self._app_inbox = Store(self.env)
        #: Data packets sent again after an unacknowledged attempt
        #: (``chan.retries`` in the registry, per destination).
        self.retransmissions = 0
        #: Sends abandoned after exhausting every retry
        #: (``chan.gave_up`` in the registry).
        self.gave_up = 0
        #: Sends started but not yet acked or abandoned — operations
        #: that never resolved (mirrored as the ``chan.inflight`` gauge).
        self._inflight = 0
        self._retry_counters = BoundCounterCache(
            self.env.metrics, "chan.retries", "dst", node=host.name)
        self._gave_up_counters = BoundCounterCache(
            self.env.metrics, "chan.gave_up", "dst", node=host.name)
        host.on_packet(port, self._on_packet)

    def send(self, dst: str, payload: Any = None, size: int = 0,
             parent=None) -> Event:
        """Send reliably; the event fires on ack or fails TransportError.

        ``parent`` optionally names the caller's span (or span context);
        the send's trace context then rides every data packet so the
        per-link transit spans (and any retransmissions) parent under
        one ``chan.send`` span.

        The first attempt leaves before this returns.
        """
        done = self.env.event()
        numbers = self._seq.get(dst)
        if numbers is None:
            numbers = self._seq[dst] = itertools.count(1)
        _PendingSend(self, dst, payload, size, next(numbers), done,
                     parent)._attempt()
        return done

    def receive(self):
        """An event yielding the next in-order packet from any sender."""
        return self._app_inbox.get()

    def inflight(self) -> int:
        """Sends still awaiting an ack (not yet succeeded or given up).

        A send mid-backoff counts: the operation is unresolved even
        though no retransmission is currently on the wire.  After a
        drained run (all faults lifted, senders stopped) this must be
        zero — the liveness property ``bench/``'s faulty-rpc gate checks.
        """
        return self._inflight

    def _track(self, delta: int) -> None:
        self._inflight += delta
        _gauge_sample(self.env.metrics.gauge(
            "chan.inflight", node=self.host.name), self._inflight,
            self.env.now)

    # -- internals ---------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        kind = packet.headers.get("type")
        if kind == "ack":
            send = self._pending_acks.pop(
                (packet.src, packet.headers["seq"]), None)
            if send is not None:
                send._on_ack()
            return
        if kind != "data":
            return
        seq = packet.headers["seq"]
        # Always (re-)acknowledge, even duplicates.
        self.host.send(packet.src, size=0, port=self.port,
                       headers={"type": "ack", "seq": seq})
        # Per-sender sequences start at 1; a later seq arriving first
        # (its predecessor lost, awaiting retransmission) must be held,
        # not adopted as the baseline.
        expected = self._expected.get(packet.src, 1)
        if seq < expected:
            return  # duplicate
        buffer = self._reorder.setdefault(packet.src, {})
        buffer[seq] = packet
        while expected in buffer:
            self._app_inbox.put(buffer.pop(expected))
            expected += 1
        self._expected[packet.src] = expected


class _PendingSend:
    """One :meth:`ReliableChannel.send` from the call to its ``done``.

    Shaped like :class:`_PendingCall`: two plain callbacks advance it,
    each at the instant it happens.  The ack (:meth:`_on_ack`, from the
    channel's packet handler) hands ``done`` its sequence number in the
    call; the current attempt's timer (:meth:`_on_timeout`) sends the
    data again, or gives up after the last retry.  A timer is never
    cancelled: it carries its attempt number and is ignored unless that
    is still ``attempt``, which is -1 once the send is resolved.  Any
    ack for the sequence number resolves the send, whichever attempt it
    answers.

    A retransmission runs with the send as ``env.active_process``, so
    its packet begins in the call, as the data packet of a process
    does (:meth:`repro.net.network._Carrier._launch`).
    """

    __slots__ = ("channel", "dst", "payload", "size", "seq", "done",
                 "span", "attempt")

    def __init__(self, channel: ReliableChannel, dst: str, payload: Any,
                 size: int, seq: int, done: Event, parent) -> None:
        self.channel = channel
        self.dst = dst
        self.payload = payload
        self.size = size
        self.seq = seq
        self.done = done
        env = channel.env
        self.span = env.tracer.start_span(
            "chan.send", at=env.now, parent=parent,
            node=channel.host.name, dst=dst, seq=seq)
        self.attempt = 0
        channel._track(+1)
        channel._pending_acks[(dst, seq)] = self

    def _attempt(self) -> None:
        """Put the data on the wire and arm this attempt's timer.

        The ack wait for attempt N is the backoff delay before retry N;
        the default ``fixed_retry`` policy makes every wait
        ``ack_timeout``, the channel's historical behaviour.
        """
        channel = self.channel
        attempt = self.attempt
        channel.host.send(self.dst, payload=self.payload, size=self.size,
                          port=channel.port,
                          headers=inject(self.span, {"type": "data",
                                                     "seq": self.seq}))
        channel.env.timeout(channel.backoff.delay(attempt),
                            attempt).callbacks.append(self._on_timeout)

    def _on_ack(self) -> None:
        channel = self.channel
        self.attempt = -1
        channel._track(-1)
        self.span.finish(at=channel.env.now)
        self.done.resolve(self.seq)

    def _on_timeout(self, timer: Event) -> None:
        if timer._value != self.attempt:
            return  # acked
        channel = self.channel
        env = channel.env
        if self.attempt < channel.max_retries:
            self.attempt += 1
            outer = env._active_process
            env._active_process = self
            self._attempt()
            env._active_process = outer
            channel.retransmissions += 1
            channel._retry_counters.get(self.dst).add()
            self.span.add_event("retransmit", at=env.now,
                                attempt=self.attempt)
            return
        self.attempt = -1
        del channel._pending_acks[(self.dst, self.seq)]
        channel._track(-1)
        channel.gave_up += 1
        channel._gave_up_counters.get(self.dst).add()
        span = self.span
        span.set_status("error")
        span.set_attribute("error", "no-ack")
        span.finish(at=env.now)
        self.done.reject(TransportError(
            "no ack from {} after {} attempts".format(
                self.dst, channel.max_retries + 1)))


class RpcError(TransportError):
    """An RPC failed (timeout or remote exception)."""


class RemoteException(RpcError):
    """The remote handler raised; carries the remote error message."""


#: How long a call waits for its reply when the caller names no timeout.
RPC_TIMEOUT = 5.0
#: Bytes on the wire for one request or one response.
RPC_MESSAGE_SIZE = 256


class RpcEndpoint:
    """Request/response invocation between hosts.

    Handlers are registered by method name.  A handler may be a plain
    function (runs instantaneously in simulated time) or a generator
    function taking ``(caller, args)`` and yielding simulation events, in
    which case its return value is the RPC result.

    Neither side keeps a process per call.  The caller's half of a call
    is one :class:`_PendingCall` in ``_calls``, advanced by the response
    packet, its attempt's timer or its backoff timer; the serving half
    runs inside the request's delivery, and only a handler that returns
    a generator gets a process.  Every step happens at the instant the
    process-per-call endpoint took it, and calls made by one caller at
    one instant leave in the order they were made; what is not kept is
    a tie with a *foreign* event of the same instant (the processes
    took two to four more trips through the queue per call, and
    something unrelated queued for that instant could run in between).
    The outcome is not queued either: the reply hands it to the waiters
    of the call's event inside its own delivery, so they run before
    anything else queued for that instant.
    """

    def __init__(self, host: Host, port: int = 2,
                 policies: Optional[FaultPolicies] = None) -> None:
        self.host = host
        self.env = host.env
        self.port = port
        #: Optional recovery policies (retry/deadline/circuit-breaker)
        #: applied to outgoing calls.  ``None`` — the default — leaves
        #: the single-attempt behaviour byte-identical.
        self.policies = policies
        self._handlers: Dict[str, Callable] = {}
        #: Attempts on the wire, by call id.  An attempt leaves when it
        #: is answered or times out; what arrives for it later is dropped.
        self._calls: Dict[int, _PendingCall] = {}
        self._call_ids = itertools.count(1)
        self.calls_served = 0
        #: Logical calls started but not yet resolved (succeeded or
        #: failed) — includes calls waiting out a retry backoff, when
        #: nothing is on the wire.  Mirrored as the ``rpc.inflight``
        #: gauge for the dashboard and ``bench/``'s faulty-rpc gate.
        self._inflight = 0
        # The gauge, made at the first sample (so an idle endpoint adds
        # none to the registry) and kept (two samples per call: the
        # keyed lookup per sample cost faulty-rpc 6 % wall_s).
        self._inflight_gauge = None
        self._retry_counters = BoundCounterCache(
            self.env.metrics, "rpc.retries", "dst", node=host.name)
        host.on_packet(port, self._on_packet)

    def register(self, method: str, handler: Callable) -> None:
        """Expose ``handler`` under ``method``."""
        self._handlers[method] = handler

    def call(self, dst: str, method: str, args: Any = None,
             timeout: Optional[float] = None, parent=None) -> Event:
        """Invoke ``method`` at ``dst``; the event fires with the result.

        ``parent`` optionally names the caller's span (or span context);
        the call's trace context then rides the request packet so the
        remote side and every link hop join the same trace tree.

        The first attempt leaves before this returns.
        """
        if timeout is None:
            timeout = RPC_TIMEOUT
        elif not timeout >= 0:
            raise TransportError(
                "timeout must be non-negative: {!r}".format(timeout))
        done = self.env.event()
        span = self.env.tracer.start_span(
            "rpc.call", at=self.env.now, parent=parent,
            node=self.host.name, dst=dst, method=method)
        call = _PendingCall(self, dst, method, args, timeout, done, span)
        self._track(+1)
        call._attempt()
        return done

    def inflight(self) -> int:
        """Calls started but not yet resolved (see ``rpc.inflight``)."""
        return self._inflight

    def _track(self, delta: int) -> None:
        self._inflight += delta
        if self._inflight_gauge is None:
            self._inflight_gauge = self.env.metrics.gauge(
                "rpc.inflight", node=self.host.name)
        _gauge_sample(self._inflight_gauge, self._inflight, self.env.now)

    # -- internals ---------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        kind = packet.headers.get("type")
        if kind == "request":
            self._serve(packet)
        elif kind == "response":
            # A response to an attempt that already timed out finds
            # nothing here and is dropped.
            call = self._calls.pop(packet.headers["call"], None)
            if call is not None:
                self.env.sanitizer.extract_clock(packet.headers,
                                                 self.host.name)
                call._on_reply(packet.payload)

    def _serve(self, packet: Packet) -> None:
        method = packet.payload["method"]
        self.env.sanitizer.extract_clock(packet.headers, self.host.name)
        # The serving span parents under the caller's rpc.call context
        # carried by the request packet; its duration is the remote
        # execution time.
        span = self.env.tracer.start_span(
            "rpc.serve", at=self.env.now,
            parent=packet.headers.get(TRACE_HEADER),
            node=self.host.name, caller=packet.src, method=method)
        handler = self._handlers.get(method)
        if handler is None:
            self._respond(packet, span,
                          (False, "no such method: {}".format(method)))
            return
        try:
            result = handler(packet.src, packet.payload["args"])
        except Exception as error:  # noqa: BLE001 - forwarded to caller
            self._respond(packet, span, _raised(error))
            return
        if hasattr(result, "send") and hasattr(result, "throw"):
            # The handler waits: it alone gets a process, and the
            # response leaves when that process ends.
            self.env.process(result).callbacks.append(
                lambda process: self._served(packet, span, process))
        else:
            self._respond(packet, span, (True, result))

    def _served(self, packet: Packet, span, process: Event) -> None:
        if process._ok:
            self._respond(packet, span, (True, process._value))
        elif isinstance(process._exception, Exception):
            process.defused = True
            self._respond(packet, span, _raised(process._exception))
        # Anything else is not ours to forward: the run loop raises it.

    def _respond(self, packet: Packet, span, outcome: Tuple[bool, Any]
                 ) -> None:
        self.calls_served += 1
        if not outcome[0]:
            span.set_status("error")
        span.finish(at=self.env.now)
        self.host.send(packet.src, payload=outcome,
                       size=RPC_MESSAGE_SIZE, port=self.port,
                       headers=self.env.sanitizer.inject_clock(
                           inject(span, {
                               "type": "response",
                               "call": packet.headers["call"]}),
                           self.host.name))


def _raised(error: Exception) -> Tuple[bool, str]:
    """The response payload for a handler that raised ``error``."""
    return (False, "{}: {}".format(type(error).__name__, error))


class _PendingCall:
    """One logical call from :meth:`RpcEndpoint.call` to its ``done``.

    Three things advance it, each a plain callback at the instant it
    happens: the response packet (:meth:`_on_reply`, from the
    endpoint's packet handler), the current attempt's timer
    (:meth:`_on_timeout`) and the backoff timer before a retry
    (:meth:`_attempt`).  An attempt's timer is never cancelled: it
    carries the attempt's call id and is ignored unless that is still
    ``call_id``, which is 0 whenever no attempt is on the wire.  The
    outcome reaches the waiters of ``done`` in the call
    (:meth:`~repro.sim.Event.resolve`, :meth:`~repro.sim.Event.reject`);
    a ``done`` nobody waits on yet (a refusal inside
    :meth:`RpcEndpoint.call`) is queued.

    A declared tie, next to the foreign-event one in
    :class:`RpcEndpoint`: when a round trip takes no simulated time (a
    host calling its own endpoint — a stale location chased through
    the node that still names itself the home), two calls woken in one
    instant each run ``allow`` … ``record_success`` to the end before
    the other starts, where two processes took them in lock step
    (``allow, allow, success, success``).  Only a half-open circuit
    could tell the orders apart (it admits one trial), and none is
    reached: what wakes such a call is the reply to its previous chase
    round, from the same destination in the same instant, so a
    ``record_success`` has just closed the circuit and zeroed its
    failures; ``allow`` then answers yes and writes nothing, and
    ``record_success`` rewrites what is there.  A ``record_failure``
    for that destination landing between them in that instant is the
    foreign-event tie again.  ``tests/net/test_rpc_record.py`` checks
    exactly this: it takes an ``(instant, destination)`` group of the
    breaker's history as a multiset only when the circuit stayed closed
    through it, and compares everything else in order.
    """

    __slots__ = ("endpoint", "dst", "method", "args", "timeout", "done",
                 "span", "attempt", "call_id", "retry", "breaker", "budget")

    def __init__(self, endpoint: RpcEndpoint, dst: str, method: str,
                 args: Any, timeout: float, done: Event, span) -> None:
        self.endpoint = endpoint
        self.dst = dst
        self.method = method
        self.args = args
        self.timeout = timeout
        self.done = done
        self.span = span
        policies = endpoint.policies
        if policies is None:
            self.retry = self.breaker = self.budget = None
        else:
            self.retry = policies.retry
            self.breaker = policies.breaker
            self.budget = policies.budget(endpoint.env)
        self.attempt = 0
        self.call_id = 0

    def _attempt(self, _backoff: Optional[Event] = None) -> None:
        """Put one attempt on the wire, unless the breaker refuses."""
        endpoint = self.endpoint
        dst = self.dst
        if self.breaker is not None and not self.breaker.allow(dst):
            self.span.set_attribute("error", "circuit-open")
            self._fail(CircuitOpenError(
                "circuit to {} is open; {} not attempted".format(
                    dst, self.method)))
            return
        call_id = self.call_id = next(endpoint._call_ids)
        endpoint._calls[call_id] = self
        host = endpoint.host
        # The happens-before sanitizer rides the same headers as the
        # trace context: the serving host becomes causally ordered
        # after the caller's history (and vice versa on the response).
        host.send(dst, payload={"method": self.method, "args": self.args},
                  size=RPC_MESSAGE_SIZE, port=endpoint.port,
                  headers=endpoint.env.sanitizer.inject_clock(
                      inject(self.span, {"type": "request",
                                         "call": call_id}),
                      host.name))
        endpoint.env.timeout(self.timeout, call_id).callbacks.append(
            self._on_timeout)

    def _on_reply(self, outcome: Tuple[bool, Any]) -> None:
        endpoint = self.endpoint
        self.call_id = 0
        if self.breaker is not None:
            # Any response — even a remote exception — proves the
            # destination reachable; only transport-level timeouts
            # accrue toward opening the circuit.
            self.breaker.record_success(self.dst)
        ok, value = outcome
        if ok:
            self.span.finish(at=endpoint.env.now)
            endpoint._track(-1)
            self.done.resolve(value)
        else:
            self._fail(RemoteException(value))

    def _on_timeout(self, timer: Event) -> None:
        if timer._value != self.call_id:
            return  # that attempt was answered
        endpoint = self.endpoint
        del endpoint._calls[self.call_id]
        self.call_id = 0
        if self.breaker is not None:
            self.breaker.record_failure(self.dst)
        # Maybe retry (within policy and budget).
        retry = self.retry
        delay = None
        if retry is not None and self.attempt < retry.max_retries:
            delay = retry.delay(self.attempt)
            if self.budget is not None and not self.budget.allows(delay):
                delay = None
        if delay is None:
            self.span.set_attribute("error", "timeout")
            self._fail(RpcError(
                "call {} to {} timed out after {:g}s".format(
                    self.method, self.dst, self.timeout)))
            return
        env = endpoint.env
        endpoint._retry_counters.get(self.dst).add()
        self.span.add_event("rpc-retry", at=env.now,
                            attempt=self.attempt, delay=delay)
        self.attempt += 1
        env.timeout(delay).callbacks.append(self._attempt)

    def _fail(self, error: Exception) -> None:
        endpoint = self.endpoint
        self.span.set_status("error")
        self.span.finish(at=endpoint.env.now)
        endpoint._track(-1)
        self.done.reject(error)
