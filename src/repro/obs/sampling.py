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
which makes sampled runs comparable across rates::

    sampler = Sampler(rate=0.01, seed=31)
    tracer = obs.Tracer(sampler=sampler, max_spans=100_000)
"""

from __future__ import annotations

import hashlib

#: Denominator mapping an 8-byte digest prefix onto [0, 1).
_SCALE = float(2 ** 64)


class Sampler:
    """Head-based, rate-keyed, deterministic trace sampler.

    ``rate`` is the keep probability in ``[0, 1]``.  ``seed`` should be
    the experiment seed so trace selection replays with the simulation.
    """

    def __init__(self, rate: float = 1.0, seed: int = 0) -> None:
        self.rate = _clamp("rate", rate)
        self.seed = int(seed)

    def fraction(self, trace_id: str) -> float:
        """The deterministic position of ``trace_id`` in [0, 1).

        A trace is kept iff its fraction falls below the rate;
        because the fraction does not depend on the rate, higher rates
        keep supersets of lower ones.
        """
        digest = hashlib.sha256(
            "{}:{}".format(self.seed, trace_id).encode()).digest()
        return int.from_bytes(digest[:8], "big") / _SCALE

    def sample(self, trace_id: str) -> bool:
        """Keep the trace rooted by ``trace_id``?"""
        rate = self.rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return self.fraction(trace_id) < rate

    def __repr__(self) -> str:
        return "<Sampler rate={} seed={}>".format(self.rate, self.seed)


def _clamp(field: str, rate: float) -> float:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(
            "{} must be a sampling rate within [0, 1], got {!r}".format(
                field, rate))
    return float(rate)
