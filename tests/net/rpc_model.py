"""The process-per-call RPC and invocation, kept as a reference model.

``RpcEndpoint`` and ``Nucleus`` used to run every call as generator
processes — ``_call_proc`` and ``_serve`` in the endpoint,
``_invoke_proc``, ``_whereis`` and a generator ``_handle_invoke`` in the
nucleus.  The records that replaced them (``_PendingCall``,
``_Invocation``) are held to that code here: the generators below are
the replaced methods verbatim but for where they find their observers
(the environment's, like every layer now), grafted onto subclasses, so
a test can build the same world twice and compare.  A reference, not a second
path — nothing under ``src/`` imports this.

One deviation, marked where it is: a ``whereis`` refused by an open
circuit used to escape ``_invoke_proc`` and crash the run; the model
fails the invocation with the ``CircuitOpenError`` instead, which is
the fixed behaviour (``tests/node/test_runtime.py`` pins it).
"""

from typing import Any, Dict, Optional

from repro.faults.policies import CircuitOpenError
from repro.net.packet import Packet
from repro.net.transport import (
    RPC_MESSAGE_SIZE,
    RPC_TIMEOUT,
    RemoteException,
    RpcEndpoint,
    RpcError,
)
from repro.node.runtime import RPC_PORT, Nucleus, NodeError, ODPRuntime
from repro.obs.propagation import TRACE_HEADER, inject
from repro.sim import Event


class ModelRpcEndpoint(RpcEndpoint):
    """``RpcEndpoint`` with its call and serve halves as processes.

    ``_calls`` maps a call id to the attempt's ``reply`` event here.
    """

    def call(self, dst: str, method: str, args: Any = None,
             timeout: Optional[float] = None, parent=None) -> Event:
        """Invoke ``method`` at ``dst``; the event fires with the result.

        ``parent`` optionally names the caller's span (or span context);
        the call's trace context then rides the request packet so the
        remote side and every link hop join the same trace tree.
        """
        done = self.env.event()
        self.env.process(self._call_proc(
            dst, method, args,
            RPC_TIMEOUT if timeout is None else timeout, done,
            parent))
        return done

    def _call_proc(self, dst: str, method: str, args: Any,
                   timeout: float, done: Event, parent=None):
        policies = self.policies
        retry = policies.retry if policies is not None else None
        breaker = policies.breaker if policies is not None else None
        budget = policies.budget(self.env) if policies is not None else None
        span = self.env.tracer.start_span(
            "rpc.call", at=self.env.now, parent=parent,
            node=self.host.name, dst=dst, method=method)
        self._track(+1)
        attempt = 0
        while True:
            if breaker is not None and not breaker.allow(dst):
                span.set_status("error")
                span.set_attribute("error", "circuit-open")
                span.finish(at=self.env.now)
                self._track(-1)
                done.fail(CircuitOpenError(
                    "circuit to {} is open; {} not attempted".format(
                        dst, method)))
                return
            call_id = next(self._call_ids)
            reply = self.env.event()
            self._calls[call_id] = reply
            # The happens-before sanitizer rides the same headers as the
            # trace context: the serving host becomes causally ordered
            # after the caller's history (and vice versa on the response).
            self.host.send(dst, payload={"method": method, "args": args},
                           size=RPC_MESSAGE_SIZE, port=self.port,
                           headers=self.env.sanitizer.inject_clock(
                               inject(span, {"type": "request",
                                             "call": call_id}),
                               self.host.name))
            result = yield self.env.any_of(
                [reply, self.env.timeout(timeout)])
            self._calls.pop(call_id, None)
            if reply in result:
                ok, value = reply.value
                if breaker is not None:
                    # Any response — even a remote exception — proves
                    # the destination reachable; only transport-level
                    # timeouts accrue toward opening the circuit.
                    breaker.record_success(dst)
                span.finish(at=self.env.now)
                self._track(-1)
                if ok:
                    done.succeed(value)
                else:
                    span.set_status("error")
                    done.fail(RemoteException(value))
                return
            # Timed out: maybe retry (within policy and budget).
            if breaker is not None:
                breaker.record_failure(dst)
            delay = None
            if retry is not None and attempt < retry.max_retries:
                delay = retry.delay(attempt)
                if budget is not None and not budget.allows(delay):
                    delay = None
            if delay is None:
                span.set_status("error")
                span.set_attribute("error", "timeout")
                span.finish(at=self.env.now)
                self._track(-1)
                done.fail(RpcError(
                    "call {} to {} timed out after {:g}s".format(
                        method, dst, timeout)))
                return
            self._retry_counters.get(dst).add()
            span.add_event("rpc-retry", at=self.env.now,
                           attempt=attempt, delay=delay)
            yield self.env.timeout(delay)
            attempt += 1

    def _on_packet(self, packet: Packet) -> None:
        kind = packet.headers.get("type")
        if kind == "request":
            self.env.process(self._serve(packet))
        elif kind == "response":
            reply = self._calls.get(packet.headers["call"])
            if reply is not None and not reply.triggered:
                self.env.sanitizer.extract_clock(packet.headers,
                                                 self.host.name)
                reply.succeed(packet.payload)

    def _serve(self, packet: Packet):
        method = packet.payload["method"]
        args = packet.payload["args"]
        self.env.sanitizer.extract_clock(packet.headers, self.host.name)
        # The serving span parents under the caller's rpc.call context
        # carried by the request packet; its duration is the remote
        # execution time.
        span = self.env.tracer.start_span(
            "rpc.serve", at=self.env.now,
            parent=packet.headers.get(TRACE_HEADER), node=self.host.name,
            caller=packet.src, method=method)
        handler = self._handlers.get(method)
        if handler is None:
            outcome = (False, "no such method: {}".format(method))
        else:
            try:
                result = handler(packet.src, args)
                if hasattr(result, "send") and hasattr(result, "throw"):
                    result = yield self.env.process(result)
                outcome = (True, result)
            except Exception as error:  # noqa: BLE001 - forwarded to caller
                outcome = (False, "{}: {}".format(
                    type(error).__name__, error))
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


class ModelNucleus(Nucleus):
    """``Nucleus`` whose invocation is ``_invoke_proc``."""

    def __init__(self, host, registry_node, registry=None,
                 policies=None) -> None:
        super().__init__(host, registry_node, registry=registry,
                         policies=policies)
        # Same port: this endpoint's packet handler replaces the one
        # the base class installed.
        self.rpc = ModelRpcEndpoint(host, port=RPC_PORT, policies=policies)
        self.rpc.register("invoke", self._handle_invoke)
        self.rpc.register("migrate_in", self._handle_migrate_in)
        self.rpc.register("whereis", self._handle_whereis)
        self.rpc.register("register_object", self._handle_register)

    def invoke(self, oid: str, op: str, args: Any = None,
               timeout: float = 10.0, parent: Any = None) -> Event:
        """Invoke ``op`` on the (possibly remote) object ``oid``.

        Location transparency: local objects short-circuit the network; for
        remote ones the cached location is tried first, then the registry,
        chasing at most two stale-location misses (e.g. mid-migration).

        ``parent`` optionally names the caller's span (or span context) so
        application code can root the invocation's trace under its own
        activity (e.g. a think-time span).
        """
        done = self.env.event()
        self.env.process(
            self._invoke_proc(oid, op, args, timeout, done, parent))
        return done

    def _invoke_proc(self, oid: str, op: str, args: Any,
                     timeout: float, done: Event, parent: Any = None):
        start = self.env.now
        span = self.env.tracer.start_span(
            "node.invoke", at=start, parent=parent,
            node=self.node_name, oid=oid, op=op)
        self._op_counters.get(op).add()
        local = self.find_object(oid)
        if local is not None:
            span.set_attribute("target", "local")
            self._invocation_counters.get("local").add()
            try:
                result = local.invoke_local(self.node_name, op, args)
                if hasattr(result, "send") and hasattr(result, "throw"):
                    result = yield self.env.process(result)
                span.finish(at=self.env.now)
                done.succeed(result)
            except Exception as error:  # noqa: BLE001 - surfaced to caller
                span.set_status("error")
                span.finish(at=self.env.now)
                done.fail(error if isinstance(error, NodeError)
                          else NodeError(str(error)))
            return
        span.set_attribute("target", "remote")
        self._invocation_counters.get("remote").add()
        attempts = 0
        while attempts < 3:
            location = self._location_cache.get(oid)
            if location is None:
                try:
                    location = yield from self._whereis(oid, timeout, span)
                except CircuitOpenError as error:
                    # The deviation: refused lookups fail the invocation.
                    span.set_status("error")
                    span.set_attribute("error", "circuit-open")
                    span.finish(at=self.env.now)
                    done.fail(error)
                    return
                if location is None:
                    span.set_status("error")
                    span.finish(at=self.env.now)
                    done.fail(NodeError("unknown object " + oid))
                    return
                self._location_cache[oid] = location
            try:
                result = yield self.rpc.call(
                    location, "invoke",
                    {"oid": oid, "op": op, "args": args}, timeout=timeout,
                    parent=span)
            except RemoteException as error:
                if "object-not-here" in str(error):
                    span.add_event("stale-location", at=self.env.now,
                                   location=location)
                    self._location_cache.pop(oid, None)
                    attempts += 1
                    continue
                span.set_status("error")
                span.finish(at=self.env.now)
                done.fail(NodeError(str(error)))
                return
            except CircuitOpenError as error:
                # Fail fast, preserving the distinct type so callers can
                # tell "refused locally" from "tried and timed out".
                span.set_status("error")
                span.set_attribute("error", "circuit-open")
                span.finish(at=self.env.now)
                done.fail(error)
                return
            except RpcError as error:
                span.set_status("error")
                span.finish(at=self.env.now)
                done.fail(NodeError(str(error)))
                return
            span.finish(at=self.env.now)
            if self._rpc_latency is None:
                self._rpc_latency = self.env.metrics.histogram(
                    "rpc.latency", node=self.node_name)
            self._rpc_latency.record(self.env.now - start)
            done.succeed(result)
            return
        span.set_status("error")
        span.finish(at=self.env.now)
        done.fail(NodeError(
            "could not locate object {} after migration chase".format(oid)))

    def _whereis(self, oid: str, timeout: float, parent: Any = None):
        if self.registry is not None:
            return self.registry.lookup(oid)
        span = self.env.tracer.start_span(
            "node.whereis", at=self.env.now, parent=parent,
            node=self.node_name, oid=oid)
        try:
            location = yield self.rpc.call(
                self.registry_node, "whereis", oid, timeout=timeout,
                parent=span)
        except CircuitOpenError:
            span.set_status("error")    # the deviation, see _invoke_proc
            span.finish(at=self.env.now)
            raise
        except (RpcError, RemoteException):
            span.set_status("error")
            span.finish(at=self.env.now)
            return None
        span.finish(at=self.env.now)
        return location


    def _handle_invoke(self, caller: str, request: Dict[str, Any]):
        obj = self.find_object(request["oid"])
        if obj is None:
            raise NodeError("object-not-here: " + request["oid"])
        result = obj.invoke_local(caller, request["op"], request["args"])
        if hasattr(result, "send") and hasattr(result, "throw"):
            final = yield self.env.process(result)
            return final
        return result



class ModelRuntime(ODPRuntime):
    """``ODPRuntime`` made of :class:`ModelNucleus`."""

    def nucleus(self, node_name: str) -> Nucleus:
        if node_name not in self.nuclei:
            host = self.network.host(node_name)
            registry = self.registry if node_name == self.registry_node \
                else None
            self.nuclei[node_name] = ModelNucleus(
                host, self.registry_node, registry=registry,
                policies=self.policies)
        return self.nuclei[node_name]
