"""Host time by layer, from one ``cProfile`` pass.

The traced child profiles the same region ``wall_s`` times and hands
the profiler here.  :func:`fold` attributes every function's *self*
time (``tottime``) to a layer:

* a function defined under ``src/repro/<package>/`` belongs to layer
  ``<package>``; one defined under ``bench/`` belongs to ``bench``
  (the workload's driver code);
* builtins and stdlib functions have no layer of their own: their self
  time is charged to whoever called them, split by the profiler's
  per-caller ``tottime`` — recursively, so ``math.log`` called by
  ``random.expovariate`` called by a workload generator lands on
  ``bench``;
* what cannot be traced back to a caller in a layer (the profiler's
  own enable/disable frames) is *unattributed*.

Layers are the ``repro.*`` package names; a package that is not one of
:data:`LAYERS` (``repro.analysis``'s no-op sanitizer hooks, say) also
counts as unattributed, so the share of host time the table explains
is stated, not assumed.
"""

from __future__ import annotations

import os
import pstats
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = ("sim", "net", "node", "groups", "concurrency", "sessions",
          "awareness", "streams", "qos", "faults", "obs", "core", "bench")

UNATTRIBUTED = "unattributed"

FuncKey = Tuple[str, int, str]

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.path.join(os.path.dirname(_HERE), "src", "repro") + os.sep


def _own_layer(key: FuncKey) -> Optional[str]:
    """The layer a function is defined in (None for builtins/stdlib)."""
    filename = key[0]
    if filename.startswith(_REPRO):
        package = filename[len(_REPRO):].split(os.sep, 1)[0]
        if package.endswith(".py"):
            package = package[:-3]
        return package if package in LAYERS else UNATTRIBUTED
    if filename.startswith(_HERE + os.sep):
        return "bench"
    return None


def _module_of(key: FuncKey) -> str:
    filename = key[0]
    if filename.startswith(_REPRO):
        return filename[len(_REPRO):].rsplit(".", 1)[0].replace(
            os.sep, ".")
    if filename.startswith(_HERE + os.sep):
        return os.path.basename(filename).rsplit(".", 1)[0]
    if filename == "~":
        return "builtins"
    return os.path.basename(filename).rsplit(".", 1)[0]


def code_key(function: Callable[..., Any]) -> FuncKey:
    """The ``pstats`` key of a live Python function."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class LayerProfile:
    """Per-layer self time, boundary-call costs and folded stacks."""

    def __init__(self, self_s: Dict[str, float],
                 folded: Dict[str, int],
                 stats: Dict[FuncKey, Tuple[int, int, float, float, Any]]
                 ) -> None:
        self.self_s = self_s
        self.folded = folded
        self._stats = stats

    def calls(self, function: Callable[..., Any]) -> int:
        """How many times ``function`` was called in the traced run."""
        entry = self._stats.get(code_key(function))
        return entry[1] if entry else 0

    def us_per_call(self, function: Callable[..., Any]) -> float:
        """Host µs per call: ``cumtime / ncalls`` (0.0 if never called)."""
        entry = self._stats.get(code_key(function))
        if not entry or not entry[1]:
            return 0.0
        return entry[3] / entry[1] * 1e6

    def folded_lines(self) -> List[str]:
        """``repro.<pkg>;<module>;<function> <integer µs>`` lines, the
        format ``python -m repro.obs.profile --diff`` parses."""
        return ["{} {}".format(stack, weight)
                for stack, weight in sorted(self.folded.items())
                if weight > 0]


def fold(profiler) -> LayerProfile:
    """Attribute a finished ``cProfile.Profile`` to layers."""
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    owners: Dict[FuncKey, Dict[str, float]] = {}

    def owner(key: FuncKey, visiting: Tuple[FuncKey, ...]
              ) -> Dict[str, float]:
        """Layer → fraction of ``key``'s self time it is charged."""
        cached = owners.get(key)
        if cached is not None:
            return cached
        own = _own_layer(key)
        if own is not None:
            result = {own: 1.0}
        else:
            callers = stats[key][4]
            total = sum(edge[2] for edge in callers.values())
            result = {}
            if key in visiting or not callers or total <= 0:
                result[UNATTRIBUTED] = 1.0
            else:
                for caller, edge in callers.items():
                    weight = edge[2] / total
                    if weight <= 0:
                        continue
                    for layer, part in owner(
                            caller, visiting + (key,)).items():
                        result[layer] = result.get(layer, 0.0) \
                            + part * weight
        if key not in visiting:
            owners[key] = result
        return result

    self_s: Dict[str, float] = {}
    folded: Dict[str, int] = {}
    for key, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        if tottime <= 0:
            continue
        for layer, part in owner(key, ()).items():
            seconds = tottime * part
            self_s[layer] = self_s.get(layer, 0.0) + seconds
            prefix = "repro." + layer if layer not in (
                "bench", UNATTRIBUTED) else layer
            stack = "{};{};{}".format(
                prefix, _module_of(key),
                key[2].replace(" ", "_").replace(";", ","))
            folded[stack] = folded.get(stack, 0) \
                + int(round(seconds * 1e6))
    return LayerProfile(self_s, folded, stats)
