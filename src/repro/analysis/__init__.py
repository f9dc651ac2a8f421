"""Static analysis and runtime sanitizers for the repro simulator.

Every experimental claim in this reproduction rests on the simulator
being bit-for-bit deterministic, and on conflicts between cooperating
users being *surfaced* rather than silently serialised (the paper's
Figure 2 argument: atomic transactions wall users off; CSCW needs the
conflict visible so a social protocol can resolve it).  This package
provides the tooling that turns both properties into checkable ones:

* **Static analyzer** (:mod:`repro.analysis.check`) — two passes over
  one shared AST index (:mod:`repro.analysis.ir`), one CLI.  The
  determinism lint (:mod:`repro.analysis.lint`, ``RPR00x``) flags
  nondeterminism hazards: wall clock reads, RNGs constructed outside
  :mod:`repro.sim.rng`, unordered set iteration, ``id()``-based
  ordering, module-level mutable state and float equality on simulated
  time.  The sim-protocol checker (:mod:`repro.analysis.protocol`,
  ``RPR20x``) holds generator actors and ``# repro: fast-path``
  functions to the kernel's contract.  A pass is kept only while it
  reports something on this tree that nothing before it reports
  (``docs/analysis.md`` "What each detector catches")::

      PYTHONPATH=src python -m repro.analysis.check src/

* **Happens-before conflict sanitizer** (:mod:`repro.analysis.hb`) — a
  vector-clock tracker fed by lock, floor, RPC and shared-store
  operations.  It reports concurrent conflicting accesses that no lock
  grant, floor possession or causal delivery ordered — the residue left
  to the social protocol.  Summarise a lock-style sweep with::

      PYTHONPATH=src python -m repro.analysis.races

* **Replay checker** (:mod:`repro.analysis.replay`) — runs a workload
  twice with the same seed and diffs event-trace digests::

      PYTHONPATH=src python -m repro.analysis.replay locks-soft

The workload/replay/races helpers are resolved lazily (PEP 562): this
package is imported by low-level instrumentation sites (locks, the
shared store, transports), so its eager imports must stay leaf-only.
"""

from repro.analysis.hb import (
    Access,
    Conflict,
    ConflictSanitizer,
    HB_HEADER,
    NOOP_SANITIZER,
    NoopSanitizer,
    READ,
    WRITE,
    disable_sanitizer,
    enable_sanitizer,
    extract_clock,
    get_sanitizer,
    inject_clock,
    set_sanitizer,
    use_sanitizer,
)
#: Lazily resolved attribute -> home module (dodges the import cycle
#: through repro.concurrency, which the eager workload imports close;
#: the static passes stay lazy so ``python -m repro.analysis.check``
#: does not warn about the module pre-existing in sys.modules).
_LAZY = {
    "Finding": "repro.analysis.lint",
    "Rule": "repro.analysis.lint",
    "RULES": "repro.analysis.lint",
    "lint_file": "repro.analysis.lint",
    "WORKLOADS": "repro.analysis.workloads",
    "run_workload": "repro.analysis.workloads",
    "conflict_sweep": "repro.analysis.races",
    "replay": "repro.analysis.replay",
    "run_digest": "repro.analysis.replay",
    "run_isolated": "repro.analysis.replay",
    "trace_digest": "repro.analysis.replay",
    "RepoIndex": "repro.analysis.ir",
    "run_passes": "repro.analysis.check",
    "rules_meta": "repro.analysis.check",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            "module 'repro.analysis' has no attribute {!r}".format(name))
    import importlib
    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "Access",
    "Conflict",
    "ConflictSanitizer",
    "Finding",
    "HB_HEADER",
    "NOOP_SANITIZER",
    "NoopSanitizer",
    "READ",
    "RULES",
    "RepoIndex",
    "Rule",
    "WORKLOADS",
    "WRITE",
    "conflict_sweep",
    "disable_sanitizer",
    "enable_sanitizer",
    "extract_clock",
    "get_sanitizer",
    "inject_clock",
    "lint_file",
    "replay",
    "rules_meta",
    "run_digest",
    "run_isolated",
    "run_passes",
    "run_workload",
    "set_sanitizer",
    "trace_digest",
    "use_sanitizer",
]
