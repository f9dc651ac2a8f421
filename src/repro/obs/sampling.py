"""Deterministic head-based trace sampling.

Full-fidelity tracing retains every span, which is too heavy for the
million-user-scale runs the ROADMAP targets: a single media flow can emit
thousands of ``net.transmit`` roots per simulated second.  A
:class:`Sampler` makes the keep/drop decision once, at the *head* of each
trace (when its root span is created), and the decision then rides the
packet headers with the trace context — so a sampled trace stays complete
end to end across nuclei while an unsampled one costs nothing anywhere.

The decision is a pure function of ``(seed, trace_id)``: trace ids are
deterministic counters (``t1``, ``t2``, …), so the same seed and rate
always sample exactly the same set of traces, run after run — replay
holds even for the observability layer itself.  Raising the rate only
*adds* traces (the kept set at rate 0.2 is a subset of the set at 0.6),
which makes sampled runs comparable across rates.

Per-root-name rates let expensive-but-rare operations stay fully traced
while bulk traffic is thinned::

    sampler = Sampler(rate=0.01, seed=31,
                      rates={"node.migrate": 1.0, "user.request": 0.25})
    tracer = obs.enable_tracing(sampler=sampler, max_spans=100_000)
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

#: Denominator mapping an 8-byte digest prefix onto [0, 1).
_SCALE = float(2 ** 64)


class Sampler:
    """Head-based, rate- and name-keyed, deterministic trace sampler.

    ``rate`` is the default keep probability in ``[0, 1]``; ``rates``
    optionally overrides it per root-span name.  ``seed`` should be the
    experiment seed so trace selection replays with the simulation.
    """

    def __init__(self, rate: float = 1.0, seed: int = 0,
                 rates: Optional[Dict[str, float]] = None) -> None:
        self.rate = _clamp("rate", rate)
        self.seed = int(seed)
        self.rates = {name: _clamp("rates[{!r}]".format(name), value)
                      for name, value in (rates or {}).items()}

    def effective_rate(self, name: Optional[str] = None) -> float:
        """The keep probability applied to roots named ``name``."""
        if name is None:
            return self.rate
        return self.rates.get(name, self.rate)

    def fraction(self, trace_id: str) -> float:
        """The deterministic position of ``trace_id`` in [0, 1).

        A trace is kept iff its fraction falls below the effective rate;
        because the fraction does not depend on the rate, higher rates
        keep supersets of lower ones.
        """
        digest = hashlib.sha256(
            "{}:{}".format(self.seed, trace_id).encode()).digest()
        return int.from_bytes(digest[:8], "big") / _SCALE

    def sample(self, trace_id: str, name: Optional[str] = None) -> bool:
        """Keep the trace rooted by ``trace_id`` (root span ``name``)?"""
        rate = self.effective_rate(name)
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return self.fraction(trace_id) < rate

    def __repr__(self) -> str:
        return "<Sampler rate={} seed={} overrides={}>".format(
            self.rate, self.seed, len(self.rates))


def _clamp(field: str, rate: float) -> float:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(
            "{} must be a sampling rate within [0, 1], got {!r}".format(
                field, rate))
    return float(rate)
