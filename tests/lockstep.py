"""One lock-step driver for the reference models.

A property test that holds new code equal to the code it replaced
builds a world from each and hands both to :func:`lockstep`.  A world
offers ``step(step)`` and ``observe()``, a dict; one that ran whole
when it was built is wrapped in :class:`Whole` and gets no steps.
``tests/counting.py`` has the environments that order ties.
"""

import contextlib
import itertools
from unittest import mock


class Whole(dict):
    """A world that ran whole when it was built, as its observation."""

    observe = dict.copy


def lockstep(new, old, steps, drain=None, budget=None, ties=()):
    """Drive both worlds through ``steps``, then through what
    ``drain(new)`` gives until it gives ``None``.

    Each step must return the same in both, and after each step and at
    the end each observed key but those in ``ties`` must read the same.
    With ``budget=(owner, name, expected)``, each step must call
    ``owner.name`` ``expected(new, step)`` times, reckoned before it.
    """
    counting = contextlib.nullcontext() if budget is None else \
        mock.patch.object(*budget[:2], wraps=getattr(*budget[:2]))
    drained = () if drain is None else iter(lambda: drain(new), None)
    with counting as calls:
        for step in itertools.chain(steps, drained):
            if budget is not None:
                spent = calls.call_count + budget[2](new, step)
            assert new.step(step) == old.step(step), step
            if budget is not None:
                assert calls.call_count == spent, ("budget", step)
            _same(new, old, ties, step)
    _same(new, old, ties, "at the end")


def _same(new, old, ties, when):
    seen, expected = new.observe(), old.observe()
    assert list(seen) == list(expected), when
    for key in seen:
        if key not in ties:
            assert seen[key] == expected[key], (key, when)
