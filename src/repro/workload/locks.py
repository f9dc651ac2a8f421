"""The E3 contended-editing workload, one catalogue entry per lock style.

It returns a fully JSON-serialisable result: the simulation's
observable outcome plus the sanitizer's access trace.  The same
function feeds ``python -m repro races`` (conflict report per lock
style) and ``python -m repro replay`` (determinism check), so the
property being replayed is exactly the property being measured.

The workload is experiment E3's (§4.2.1), which runs it at
every seed of its sweep: writers repeatedly edit a shared section —
sometimes going idle while holding the lock — while readers follow
along, under each of the four lock styles.  Every edit goes through a
:class:`~repro.concurrency.store.SharedStore`, so the sanitizer sees
the actual reads and writes the locks are (or are not) ordering.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.concurrency.locks import (
    EXCLUSIVE,
    LockTable,
    NOTIFICATION,
    SHARED,
)
from repro.concurrency.store import SharedStore
from repro.obs.metrics import Tally
from repro.sim import Environment, RandomStreams, exponential

WRITERS = 3
READERS = 2
ROUNDS = 12
THINK_MEAN = 1.5
EDIT_TIME = 1.0
IDLE_PROBABILITY = 0.3
IDLE_TIME = 8.0
TICKLE_GRACE = 2.0


def lock_style_workload(style: str, seed: int = 31) -> Dict[str, Any]:
    """The E3 contended-editing workload under one lock style."""
    env = Environment()
    table = LockTable(env, style=style, tickle_grace=TICKLE_GRACE)
    store = SharedStore("doc", keep_history=True, env=env)
    store.create("section", "")
    rng = RandomStreams(seed).stream("locks-" + style)
    wait = Tally("wait")
    completed = [0]

    def writer(env, name):
        for round_no in range(ROUNDS):
            yield env.timeout(exponential(rng, THINK_MEAN))
            start = env.now
            grant = yield table.acquire("section", name, EXCLUSIVE)
            wait.record(env.now - start)
            yield env.timeout(EDIT_TIME)
            store.write("section", "{}:{}".format(name, round_no),
                        writer=name, at=env.now)
            grant.touch()
            if style == NOTIFICATION:
                table.notify_write("section", name)
            completed[0] += 1
            if rng.random() < IDLE_PROBABILITY:
                # Distraction: hold the lock while idle (the situation
                # tickle locks exist for).
                yield env.timeout(IDLE_TIME)
            if not grant.revoked:
                grant.release()

    def reader(env, name):
        for _ in range(ROUNDS):
            yield env.timeout(exponential(rng, THINK_MEAN))
            start = env.now
            grant = yield table.acquire("section", name, SHARED)
            wait.record(env.now - start)
            yield env.timeout(EDIT_TIME / 2)
            store.read("section", reader=name, at=env.now)
            if not grant.revoked:
                grant.release()

    for i in range(WRITERS):
        name = "writer-{}".format(i)
        env.process(writer(env, name), name=name)
    for i in range(READERS):
        name = "reader-{}".format(i)
        env.process(reader(env, name), name=name)
    env.run()

    sanitizer = env.sanitizer
    return {
        "workload": "locks-" + style,
        "seed": seed,
        "style": style,
        "completed": completed[0],
        "wait": wait.summary(),
        "lock_counters": table.counters.as_dict(),
        "store": {"reads": store.reads, "writes": store.writes,
                  "version": store.item("section").version},
        "env": env.stats(),
        "accesses": sanitizer.trace(),
        "conflicts": sanitizer.conflict_counts(),
    }
