"""ODP engineering-viewpoint runtime: nodes, capsules, clusters, objects.

The unit structure follows the ODP engineering model the paper assumes:
engineering objects live in clusters (the unit of migration), clusters in
capsules, capsules on nodes.  :class:`ODPRuntime` wires a whole network of
nuclei to a single registry node and provides location-transparent
invocation and cluster migration — the mechanisms the paper's management
requirements (§4.2.1) act upon.
"""

from repro.node.objects import Capsule, Cluster, EngineeringObject, Ids
from repro.node.runtime import Nucleus, ODPRuntime, Registry, RPC_PORT

__all__ = [
    "Capsule",
    "Cluster",
    "EngineeringObject",
    "Ids",
    "Nucleus",
    "ODPRuntime",
    "RPC_PORT",
    "Registry",
]
