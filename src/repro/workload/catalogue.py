"""The catalogue: every named, seeded run, in one table.

Each entry is a function ``(seed) -> dict`` returning a JSON-serialisable
outcome.  :func:`repro.run.run` runs one by name, and every
``python -m repro`` sub-command that takes a ``WORKLOAD`` looks it up
here; ``python -m repro list`` prints the table.

* ``locks-<style>`` — E3's contended editing, one per lock style
  (:mod:`repro.workload.locks`);
* ``traced-rpc``, ``slo-burn``, ``timeline-demo`` — the telemetry demos
  (:mod:`repro.workload.telemetry`);
* ``partition-recovery``, ``flaky-links`` — the chaos workloads
  (:mod:`repro.workload.chaos`);
* ``fuzz-reg-<id>`` — every shrunk reproducer checked into the default
  fuzz corpus, replayed under its stored schedule
  (:func:`repro.faults.corpus.corpus_workloads`), so regressions ride the
  replay and journal gates like any other entry.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict

from repro.concurrency.locks import STYLES
from repro.faults.corpus import corpus_workloads
from repro.workload.chaos import (
    flaky_links_workload,
    partition_recovery_workload,
)
from repro.workload.locks import lock_style_workload
from repro.workload.telemetry import (
    slo_burn_workload,
    timeline_demo_workload,
    traced_rpc_workload,
)

#: Workload name -> ``(seed) -> outcome``.
WORKLOADS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "locks-" + style: functools.partial(lock_style_workload, style)
    for style in STYLES
}
WORKLOADS.update({
    "traced-rpc": traced_rpc_workload,
    "slo-burn": slo_burn_workload,
    "timeline-demo": timeline_demo_workload,
    "partition-recovery": partition_recovery_workload,
    "flaky-links": flaky_links_workload,
})
WORKLOADS.update(corpus_workloads())
