"""repro: CSCW-aware open distributed processing middleware.

A full reproduction of Blair & Rodden, *The Challenges of CSCW for Open
Distributed Processing* (MIDDLEWARE 1993): the cooperation-aware
middleware the paper calls for, the classical baselines it criticises,
and an experiment suite that operationalises every claim.

Quick start::

    from repro import CooperativePlatform

    platform = CooperativePlatform(sites=3, hosts_per_site=2)
    members = platform.host_names()[:3]
    session = platform.create_session("design-review", members)
    doc = session.shared_document("minutes", initial="Agenda:\\n")
    doc.client(members[0]).insert(7, "\\n- QoS")
    platform.run()
    assert doc.converged

Subpackages (bottom-up):

* :mod:`repro.sim` — discrete-event simulation kernel.
* :mod:`repro.obs` — observability: causal tracing, metrics, exporters.
* :mod:`repro.net` — packet network (links, routing, multicast, radio).
* :mod:`repro.node` — ODP engineering objects, invocation, migration.
* :mod:`repro.groups` — ordered group communication, membership, group RPC.
* :mod:`repro.workload` — deterministic synthetic users, and the
  catalogue of named runs behind ``python -m repro``.
* :mod:`repro.sessions` — sessions, floor control, sharing.
* :mod:`repro.concurrency` — transactions, CSCW lock styles, transaction
  groups, operation transformation, reservation, granularity.
* :mod:`repro.awareness` — events, the spatial model, digests.
* :mod:`repro.access` — access matrix baseline, dynamic roles,
  Shen & Dewan, negotiation.
* :mod:`repro.management` — usage monitoring, placement, migration.
* :mod:`repro.qos` — QoS expression, negotiation, monitoring.
* :mod:`repro.streams` — continuous media, bindings, synchronisation.
* :mod:`repro.mobility` — connectivity levels, disconnected caching.
* :mod:`repro.workflow` — speech acts, office procedures, informal routing.
* :mod:`repro.hypertext` — multi-user hypertext, Quilt co-authoring.
* :mod:`repro.core` — the space-time matrix and the
  :class:`~repro.core.platform.CooperativePlatform` facade.
"""

from repro.core.platform import (
    CooperativePlatform,
    CooperativeSession,
    MediaFlow,
    SharedDocument,
)
from repro.sim import Environment

__version__ = "1.0.0"

__all__ = [
    "CooperativePlatform",
    "CooperativeSession",
    "Environment",
    "MediaFlow",
    "SharedDocument",
    "__version__",
]
