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

      PYTHONPATH=src python -m repro check src/

* **Happens-before conflict sanitizer** (:mod:`repro.analysis.hb`) — a
  vector-clock tracker fed by lock, floor, RPC and shared-store
  operations.  It reports concurrent conflicting accesses that no lock
  grant, floor possession or causal delivery ordered — the residue left
  to the social protocol.  Summarise a lock-style sweep with::

      PYTHONPATH=src python -m repro races

* **Replay checker** (:mod:`repro.analysis.replay`) — runs a workload
  twice with the same seed and diffs event-trace digests::

      PYTHONPATH=src python -m repro replay locks-soft

This package is imported by the kernel (``Environment`` binds the
sanitizer), so it exports the sanitizer only; import the rest from its
module.
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
    get_sanitizer,
    use_sanitizer,
)

__all__ = [
    "Access",
    "Conflict",
    "ConflictSanitizer",
    "HB_HEADER",
    "NOOP_SANITIZER",
    "NoopSanitizer",
    "READ",
    "WRITE",
    "get_sanitizer",
    "use_sanitizer",
]
