"""The distributed object runtime: nuclei, the registry and invocation.

Each network host can run a :class:`Nucleus` (the ODP term for the node's
basic engineering support).  One nucleus additionally hosts the
:class:`Registry`, a name service mapping object ids to their current node.
Invocation is location-transparent: clients consult a local cache, fall
back to the registry, and chase one forwarding miss after a migration.

Tie-sensitive (docs/analysis.md "Tie-sensitive modules"):

- An operation that is a generator runs as a process, so several
  invoked at one instant take their first steps in the kernel's tie
  order.  A plain operation runs, and a remote request leaves, in call
  order.
- A registration is sent once and never retried.  When a link fails
  under two registrations sent from one node at set-up, which one it
  loses, and so which object the registry never learns of, follows the
  order the carrier started them in, which is a tie.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import NodeError, PlacementError
from repro.faults.policies import CircuitOpenError, FaultPolicies
from repro.net.network import Host, Network
from repro.net.transport import RemoteException, RpcEndpoint, RpcError
from repro.node.objects import Capsule, Cluster, EngineeringObject, Ids
from repro.obs.metrics import BoundCounterCache
from repro.sim import Event

RPC_PORT = 10
#: How long a migration waits for the target to install the cluster.
MIGRATION_TIMEOUT = 30.0


class Registry:
    """Object-id → node-name directory, hosted by one nucleus."""

    def __init__(self) -> None:
        self.locations: Dict[str, str] = {}

    def register(self, oid: str, node_name: str) -> None:
        self.locations[oid] = node_name

    def lookup(self, oid: str) -> Optional[str]:
        return self.locations.get(oid)


class Nucleus:
    """Per-node engineering support: capsules, invocation, migration."""

    def __init__(self, host: Host, registry_node: str,
                 registry: Optional[Registry] = None,
                 policies: Optional[FaultPolicies] = None) -> None:
        self.host = host
        self.env = host.env
        self.node_name = host.name
        self.registry_node = registry_node
        #: Non-None only on the registry node itself.
        self.registry = registry
        #: Optional recovery policies for this nucleus's outgoing RPC
        #: (retry with backoff, deadline budget, circuit breaker).
        #: ``None`` keeps the invoke path byte-identical.
        self.policies = policies
        self.capsules: Dict[str, Capsule] = {}
        #: Numbers this node's capsules, clusters and objects; a runtime
        #: hands all its nuclei one numbering.
        self.ids = Ids()
        self._location_cache: Dict[str, str] = {}
        # The per-invocation instruments, each made at its first use and
        # kept.
        metrics = self.env.metrics
        self._invocation_counters = BoundCounterCache(
            metrics, "node.invocations", "kind", node=host.name)
        self._op_counters = BoundCounterCache(
            metrics, "node.op.invocations", "op", node=host.name)
        self._rpc_latency = None
        self.rpc = RpcEndpoint(host, port=RPC_PORT, policies=policies)
        self.rpc.register("invoke", self._handle_invoke)
        self.rpc.register("migrate_in", self._handle_migrate_in)
        self.rpc.register("whereis", self._handle_whereis)
        self.rpc.register("register_object", self._handle_register)

    # -- capsule / object management ----------------------------------------

    def create_capsule(self, name: str = "") -> Capsule:
        """Create a capsule on this node."""
        capsule = Capsule(self.ids, name)
        capsule.node_name = self.node_name
        self.capsules[capsule.capsule_id] = capsule
        return capsule

    def create_object(self, capsule: Capsule, name: str,
                      cluster: Optional[Cluster] = None,
                      state: Optional[Dict[str, Any]] = None,
                      state_size: int = 1024) -> EngineeringObject:
        """Create an object (and cluster if needed) and register it."""
        if capsule.capsule_id not in self.capsules:
            raise NodeError("capsule {} is not on node {}".format(
                capsule.name, self.node_name))
        if cluster is None:
            cluster = Cluster(self.ids, name + "-cluster")
            capsule.add_cluster(cluster)
        elif cluster.capsule is not capsule:
            raise NodeError("cluster {} is not in capsule {}".format(
                cluster.name, capsule.name))
        obj = EngineeringObject(self.ids, name, state=state,
                                state_size=state_size)
        cluster.add(obj)
        self._register_location(obj.oid, self.node_name)
        return obj

    def find_object(self, oid: str) -> Optional[EngineeringObject]:
        """Locate an object in any local capsule."""
        for capsule in self.capsules.values():
            obj = capsule.find_object(oid)
            if obj is not None:
                return obj
        return None

    # -- invocation ----------------------------------------------------------

    def invoke(self, oid: str, op: str, args: Any = None,
               timeout: float = 10.0, parent: Any = None) -> Event:
        """Invoke ``op`` on the (possibly remote) object ``oid``.

        Location transparency: local objects short-circuit the network; for
        remote ones the cached location is tried first, then the registry,
        chasing at most two stale-location misses (e.g. mid-migration).

        ``parent`` optionally names the caller's span (or span context) so
        application code can root the invocation's trace under its own
        activity (e.g. a think-time span).

        A local operation runs, and a remote one's first request leaves,
        before this returns; the event fires through the queue as ever.
        """
        if not timeout >= 0:
            raise NodeError(
                "timeout must be non-negative: {!r}".format(timeout))
        done = self.env.event()
        _Invocation(self, oid, op, args, timeout, done)._start(parent)
        return done

    # -- migration -----------------------------------------------------------

    def migrate_cluster(self, cluster: Cluster, target_node: str) -> Event:
        """Move a cluster (all its objects) to another node.

        The event fires when the target has installed the cluster and the
        registry has been updated.  Transfer time is governed by the
        cluster's serialised size crossing the network.
        """
        done = self.env.event()
        self.env.process(self._migrate_proc(cluster, target_node, done))
        return done

    def _migrate_proc(self, cluster: Cluster, target_node: str,
                      done: Event):
        capsule = cluster.capsule
        if capsule is None or capsule.node_name != self.node_name:
            done.fail(PlacementError(
                "cluster {} is not on node {}".format(
                    cluster.name, self.node_name)))
            return
        size = cluster.state_size
        span = self.env.tracer.start_span(
            "node.migrate", at=self.env.now, node=self.node_name,
            cluster=cluster.name, target=target_node, bytes=size)
        capsule.remove_cluster(cluster.cluster_id)
        snapshot = {
            "name": cluster.name,
            "objects": [
                {"oid": obj.oid, "name": obj.name, "state": obj.state,
                 "state_size": obj.state_size,
                 "operations": obj._operations}
                for obj in cluster.objects.values()
            ],
        }
        try:
            yield self.rpc.call(target_node, "migrate_in", snapshot,
                                timeout=MIGRATION_TIMEOUT, parent=span)
        except (RpcError, CircuitOpenError) as error:
            # Tried and failed, or refused by the breaker: either way the
            # target holds nothing, so roll back and reinstall locally.
            capsule.add_cluster(cluster)
            span.set_status("error")
            span.finish(at=self.env.now)
            done.fail(PlacementError("migration failed: {}".format(error)))
            return
        # Charge the bulk state transfer (snapshot payloads are modelled
        # as zero-size control packets; the state crosses as one burst).
        yield from self._charge_transfer(target_node, size)
        try:
            for obj in cluster.objects.values():
                yield from self._update_registry(obj.oid, target_node)
        except (RpcError, CircuitOpenError) as error:
            # The target has installed the cluster, so there is nothing
            # to roll back: it lives there, and the registry is stale.
            span.set_status("error")
            span.finish(at=self.env.now)
            done.fail(PlacementError(
                "cluster {} moved to {} but registry {} was not updated: "
                "{}".format(cluster.name, target_node, self.registry_node,
                            error)))
            return
        span.finish(at=self.env.now)
        self.env.metrics.counter("node.migrations",
                                 node=self.node_name).add()
        done.succeed(target_node)

    def _charge_transfer(self, target_node: str, size: int):
        path = self.host.network.topology.path(self.node_name, target_node)
        for link in path:
            yield self.env.timeout(link.transmission_delay(size))

    def _register_location(self, oid: str, node_name: str) -> None:
        if self.registry is not None:
            self.registry.register(oid, node_name)
        else:
            self.rpc.call(self.registry_node, "register_object",
                          {"oid": oid, "node": node_name}).defuse()

    def _update_registry(self, oid: str, node_name: str):
        if self.registry is not None:
            self.registry.register(oid, node_name)
        else:
            yield self.rpc.call(self.registry_node, "register_object",
                                {"oid": oid, "node": node_name})

    # -- RPC handlers ----------------------------------------------------------

    def _handle_invoke(self, caller: str, request: Dict[str, Any]):
        obj = self.find_object(request["oid"])
        if obj is None:
            raise NodeError("object-not-here: " + request["oid"])
        return obj.invoke_local(caller, request["op"], request["args"])

    def _handle_migrate_in(self, caller: str, snapshot: Dict[str, Any]):
        capsule = self._default_capsule()
        cluster = Cluster(self.ids, snapshot["name"])
        capsule.add_cluster(cluster)
        for spec in snapshot["objects"]:
            obj = EngineeringObject(self.ids, spec["name"],
                                    state=spec["state"],
                                    state_size=spec["state_size"])
            obj.oid = spec["oid"]
            obj._operations = spec["operations"]
            cluster.add(obj)
        return cluster.cluster_id

    def _handle_whereis(self, caller: str, oid: str):
        if self.registry is None:
            raise NodeError("this node does not host the registry")
        location = self.registry.lookup(oid)
        if location is None:
            raise NodeError("unknown object " + oid)
        return location

    def _handle_register(self, caller: str, request: Dict[str, Any]):
        if self.registry is None:
            raise NodeError("this node does not host the registry")
        self.registry.register(request["oid"], request["node"])
        return True

    def _default_capsule(self) -> Capsule:
        if not self.capsules:
            return self.create_capsule("default")
        return next(iter(self.capsules.values()))


class _Invocation:
    """One :meth:`Nucleus.invoke` from the call to its ``done``.

    A local operation is run on the spot, and waited for only if it
    returns a generator.  A remote one is a chase of at most three
    rounds — locate (cache, then the registry or a ``whereis`` call),
    then the ``invoke`` call — each advanced by the callback of the RPC
    it is waiting on.  Every failure those calls can deliver is handled
    here, so their events are defused.
    """

    __slots__ = ("nucleus", "oid", "op", "args", "timeout", "done", "span",
                 "start", "attempts", "location", "lookup")

    def __init__(self, nucleus: Nucleus, oid: str, op: str, args: Any,
                 timeout: float, done: Event) -> None:
        self.nucleus = nucleus
        self.oid = oid
        self.op = op
        self.args = args
        self.timeout = timeout
        self.done = done
        self.start = nucleus.env.now
        self.attempts = 0

    def _start(self, parent: Any) -> None:
        """Open the span knowing the target, then run or chase."""
        nucleus = self.nucleus
        nucleus._op_counters.get(self.op).add()
        local = nucleus.find_object(self.oid)
        self.span = nucleus.env.tracer.start_span(
            "node.invoke", at=self.start, parent=parent,
            node=nucleus.node_name, oid=self.oid, op=self.op,
            target="remote" if local is None else "local")
        if local is None:
            nucleus._invocation_counters.get("remote").add()
            self._locate()
            return
        nucleus._invocation_counters.get("local").add()
        try:
            result = local.invoke_local(nucleus.node_name, self.op,
                                        self.args)
        except Exception as error:  # noqa: BLE001 - surfaced to caller
            self._local_failed(error)
            return
        if hasattr(result, "send") and hasattr(result, "throw"):
            nucleus.env.process(result).callbacks.append(
                self._on_local_done)
        else:
            self._succeed(result)

    def _on_local_done(self, process: Event) -> None:
        if process._ok:
            self._succeed(process._value)
        elif isinstance(process._exception, Exception):
            process.defused = True
            self._local_failed(process._exception)

    def _local_failed(self, error: Exception) -> None:
        self._fail(error if isinstance(error, NodeError)
                   else NodeError(str(error)))

    def _locate(self) -> None:
        """Start one round: find where the object is, then call it."""
        nucleus = self.nucleus
        location = nucleus._location_cache.get(self.oid)
        if location is not None:
            self._call(location)
        elif nucleus.registry is not None:
            self._located(nucleus.registry.lookup(self.oid))
        else:
            self.lookup = nucleus.env.tracer.start_span(
                "node.whereis", at=nucleus.env.now, parent=self.span,
                node=nucleus.node_name, oid=self.oid)
            nucleus.rpc.call(
                nucleus.registry_node, "whereis", self.oid,
                timeout=self.timeout, parent=self.lookup
            ).callbacks.append(self._on_whereis)

    def _on_whereis(self, reply: Event) -> None:
        lookup = self.lookup
        now = self.nucleus.env.now
        if reply._ok:
            lookup.finish(at=now)
            self._located(reply._value)
            return
        reply.defused = True
        lookup.set_status("error")
        lookup.finish(at=now)
        error = reply._exception
        if isinstance(error, CircuitOpenError):
            self._refused(error)
        else:
            self._located(None)

    def _located(self, location: Optional[str]) -> None:
        if location is None:
            self._fail(NodeError("unknown object " + self.oid))
            return
        self.nucleus._location_cache[self.oid] = location
        self._call(location)

    def _call(self, location: str) -> None:
        self.location = location
        self.nucleus.rpc.call(
            location, "invoke",
            {"oid": self.oid, "op": self.op, "args": self.args},
            timeout=self.timeout, parent=self.span
        ).callbacks.append(self._on_result)

    def _on_result(self, reply: Event) -> None:
        nucleus = self.nucleus
        now = nucleus.env.now
        if reply._ok:
            if nucleus._rpc_latency is None:
                nucleus._rpc_latency = nucleus.env.metrics.histogram(
                    "rpc.latency", node=nucleus.node_name)
            nucleus._rpc_latency.record(now - self.start)
            self._succeed(reply._value)
            return
        reply.defused = True
        error = reply._exception
        if isinstance(error, CircuitOpenError):
            self._refused(error)
        elif isinstance(error, RemoteException) \
                and "object-not-here" in str(error):
            self.span.add_event("stale-location", at=now,
                                location=self.location)
            nucleus._location_cache.pop(self.oid, None)
            self.attempts += 1
            if self.attempts < 3:
                self._locate()
            else:
                self._fail(NodeError(
                    "could not locate object {} after migration "
                    "chase".format(self.oid)))
        else:
            self._fail(NodeError(str(error)))

    def _refused(self, error: CircuitOpenError) -> None:
        # Fail fast, preserving the distinct type so callers can tell
        # "refused locally" from "tried and timed out".
        self.span.set_attribute("error", "circuit-open")
        self._fail(error)

    def _succeed(self, value: Any) -> None:
        self.span.finish(at=self.nucleus.env.now)
        self.done.resolve(value)

    def _fail(self, error: Exception) -> None:
        self.span.set_status("error")
        self.span.finish(at=self.nucleus.env.now)
        self.done.reject(error)


class _Nuclei(dict):
    """A runtime's nuclei by node name.  Filing a nucleus here hands it
    the runtime's numbering, whoever built it (a subclass's ``nucleus``
    included)."""

    def __init__(self, ids: Ids) -> None:
        super().__init__()
        self.ids = ids

    def __setitem__(self, node_name: str, nucleus: Nucleus) -> None:
        nucleus.ids = self.ids
        super().__setitem__(node_name, nucleus)


class ODPRuntime:
    """Convenience: a whole network of nuclei with one registry."""

    def __init__(self, network: Network, registry_node: str,
                 policies: Optional[FaultPolicies] = None) -> None:
        self.network = network
        self.env = network.env
        self.registry = Registry()
        self.registry_node = registry_node
        #: Shared recovery policies handed to every nucleus (a shared
        #: circuit breaker aggregates failure history across callers).
        self.policies = policies
        #: The one numbering of every nucleus's capsules, clusters and
        #: objects: per runtime, so an identical run names them alike.
        self.ids = Ids()
        self.nuclei: Dict[str, Nucleus] = _Nuclei(self.ids)
        self.nucleus(registry_node)

    def nucleus(self, node_name: str) -> Nucleus:
        """Start (or fetch) the nucleus for a node."""
        if node_name not in self.nuclei:
            host = self.network.host(node_name)
            registry = self.registry if node_name == self.registry_node \
                else None
            self.nuclei[node_name] = Nucleus(
                host, self.registry_node, registry=registry,
                policies=self.policies)
        return self.nuclei[node_name]

    def locate(self, oid: str) -> Optional[str]:
        """Authoritative location of an object (registry view)."""
        return self.registry.lookup(oid)

    def all_objects(self) -> List[EngineeringObject]:
        return [obj for nucleus in self.nuclei.values()
                for capsule in nucleus.capsules.values()
                for obj in capsule.all_objects()]
