"""Engineering objects, clusters and capsules (ODP engineering viewpoint).

The ODP engineering model organises computation as *engineering objects*
grouped into *clusters* (the unit of migration), held in *capsules* (the
unit of encapsulated processing, roughly an address space), on *nodes*.
The paper's management discussion (§4.2.1) is about placing and re-locating
these clusters to suit group access patterns.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from repro.errors import NodeError


class Ids:
    """The capsule, cluster and object numbering of one runtime.

    Each kind counts from 1 per runtime, not per process, so two
    identical runs in one process name their objects alike.
    """

    def __init__(self) -> None:
        self.objects = itertools.count(1)
        self.clusters = itertools.count(1)
        self.capsules = itertools.count(1)


class EngineeringObject:
    """An object offering named operations on private state.

    Operations are callables ``op(caller, state, args)``; a plain function
    completes instantaneously in simulated time, a generator function is run
    as a simulation process (so it can model computation/IO delays).
    """

    def __init__(self, ids: Ids, name: str,
                 state: Optional[Dict[str, Any]] = None,
                 state_size: int = 1024) -> None:
        if not state_size >= 0:  # also rejects NaN
            raise NodeError("state_size must be non-negative")
        self.oid = "obj-{}".format(next(ids.objects))
        self.name = name
        self.state: Dict[str, Any] = dict(state or {})
        #: Serialised size in bytes — governs migration transfer cost.
        self.state_size = state_size
        self._operations: Dict[str, Callable] = {}
        self.cluster: Optional["Cluster"] = None
        self.invocations = 0

    def operation(self, name: str, fn: Callable) -> None:
        """Expose ``fn`` as operation ``name``."""
        self._operations[name] = fn

    def invoke_local(self, caller: str, op: str, args: Any):
        """Perform an operation locally (returns value or generator)."""
        fn = self._operations.get(op)
        if fn is None:
            raise NodeError("object {} has no operation {}".format(
                self.name, op))
        self.invocations += 1
        return fn(caller, self.state, args)

    def __repr__(self) -> str:
        return "<EngineeringObject {} ({})>".format(self.name, self.oid)


class Cluster:
    """The unit of object grouping and migration."""

    def __init__(self, ids: Ids, name: str = "") -> None:
        self.cluster_id = "cluster-{}".format(next(ids.clusters))
        self.name = name or self.cluster_id
        self.objects: Dict[str, EngineeringObject] = {}
        self.capsule: Optional["Capsule"] = None

    def add(self, obj: EngineeringObject) -> EngineeringObject:
        """Place an object in this cluster."""
        if obj.cluster is not None:
            raise NodeError(
                "object {} is already in a cluster".format(obj.name))
        self.objects[obj.oid] = obj
        obj.cluster = self
        return obj

    def remove(self, oid: str) -> EngineeringObject:
        """Detach an object from this cluster."""
        obj = self.objects.pop(oid, None)
        if obj is None:
            raise NodeError("no object {} in {}".format(oid, self.name))
        obj.cluster = None
        return obj

    @property
    def state_size(self) -> int:
        """Total serialised size of the cluster, for migration cost."""
        return sum(obj.state_size for obj in self.objects.values())

    def __len__(self) -> int:
        return len(self.objects)

    def __repr__(self) -> str:
        return "<Cluster {} objects={}>".format(self.name, len(self))


class Capsule:
    """A unit of encapsulated processing holding clusters."""

    def __init__(self, ids: Ids, name: str = "") -> None:
        self.capsule_id = "capsule-{}".format(next(ids.capsules))
        self.name = name or self.capsule_id
        self.clusters: Dict[str, Cluster] = {}
        self.node_name: Optional[str] = None

    def add_cluster(self, cluster: Cluster) -> Cluster:
        """Install a cluster in this capsule."""
        if cluster.capsule is not None:
            raise NodeError(
                "cluster {} is already in a capsule".format(cluster.name))
        self.clusters[cluster.cluster_id] = cluster
        cluster.capsule = self
        return cluster

    def remove_cluster(self, cluster_id: str) -> Cluster:
        """Remove a cluster (e.g. when migrating it away)."""
        cluster = self.clusters.pop(cluster_id, None)
        if cluster is None:
            raise NodeError(
                "no cluster {} in capsule {}".format(cluster_id, self.name))
        cluster.capsule = None
        return cluster

    def find_object(self, oid: str) -> Optional[EngineeringObject]:
        """Locate an object across this capsule's clusters."""
        for cluster in self.clusters.values():
            if oid in cluster.objects:
                return cluster.objects[oid]
        return None

    def all_objects(self) -> List[EngineeringObject]:
        return [obj for cluster in self.clusters.values()
                for obj in cluster.objects.values()]

    def __repr__(self) -> str:
        return "<Capsule {} clusters={}>".format(
            self.name, len(self.clusters))
