"""Deterministic random-number streams for reproducible experiments.

Every stochastic element in the simulator draws from a named stream derived
from a single experiment seed, so runs are reproducible and changing one
subsystem's draw pattern cannot silently perturb another's.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class _JournalledRandom(random.Random):
    """A stream that journals its draws to the flight recorder.

    Only ``random()`` and ``getrandbits()`` are overridden — the two
    primitives every other ``random.Random`` method (gauss, expovariate,
    uniform, randrange, shuffle via ``_randbelow``) routes through.
    Because both appear in the subclass dict, CPython selects the same
    ``_randbelow_with_getrandbits`` strategy as the base class, so the
    underlying Mersenne-Twister draw sequence — and therefore every
    replay digest — is bit-identical to an unjournalled stream.
    """

    def __init__(self, seed: int, flight, name: str) -> None:
        random.Random.__init__(self, seed)
        self._flight = flight
        self._stream_name = name

    def random(self) -> float:
        value = random.Random.random(self)
        self._flight.record_rng(self._stream_name, "random", value)
        return value

    def getrandbits(self, k: int) -> int:
        value = random.Random.getrandbits(self, k)
        self._flight.record_rng(self._stream_name, "getrandbits", value)
        return value


class RandomStreams:
    """A factory of independent, named :class:`random.Random` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically.

        While a flight recorder is enabled (:mod:`repro.obs.flight`,
        imported lazily to keep it off the kernel's import path), new
        streams journal every draw; seeding and the draw sequence are
        unchanged either way.
        """
        if name not in self._streams:
            digest = hashlib.sha256(
                "{}:{}".format(self.seed, name).encode()).digest()
            seed = int.from_bytes(digest[:8], "big")
            from repro.obs.flight import get_flight
            flight = get_flight()
            if flight.enabled:
                self._streams[name] = _JournalledRandom(seed, flight, name)
            else:
                self._streams[name] = random.Random(seed)
        return self._streams[name]


def exponential(rng: random.Random, mean: float) -> float:
    """An exponential draw with the given mean (mean<=0 returns 0)."""
    if mean <= 0:
        return 0.0
    return rng.expovariate(1.0 / mean)


def zipf_index(rng: random.Random, n: int, skew: float = 1.0) -> int:
    """A Zipf-distributed index in [0, n) — models hot-spot access.

    ``skew`` = 0 degenerates to uniform; larger values concentrate access on
    low indices (the "hot" items).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if skew <= 0:
        return rng.randrange(n)
    weights = [1.0 / ((i + 1) ** skew) for i in range(n)]
    total = sum(weights)
    point = rng.random() * total
    acc = 0.0
    for i, weight in enumerate(weights):
        acc += weight
        if point <= acc:
            return i
    return n - 1

