"""Named, seeded workloads for the sanitizer and replay checker.

Each workload is a function ``(seed) -> dict`` returning a fully
JSON-serialisable result: the simulation's observable outcome plus the
sanitizer's access trace when one is enabled.  The same functions feed
``python -m repro.analysis.races`` (conflict report per lock style) and
``python -m repro.analysis.replay`` (determinism check), so the
property being replayed is exactly the property being measured.

The lock-style workload mirrors experiment E3 (§4.2.1): writers
repeatedly edit a shared section — sometimes going idle while holding
the lock — while readers follow along, under each of the four lock
styles.  Unlike the benchmark, every edit goes through a
:class:`~repro.concurrency.store.SharedStore`, so the sanitizer sees
the actual reads and writes the locks are (or are not) ordering.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict

from repro.analysis.hb import get_sanitizer
from repro.concurrency.locks import (
    EXCLUSIVE,
    LockTable,
    NOTIFICATION,
    SHARED,
    STYLES,
)
from repro.concurrency.store import SharedStore
from repro.sim import Environment, RandomStreams, Tally, exponential

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
    store = SharedStore("doc", keep_history=True)
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

    sanitizer = get_sanitizer()
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


def _register_lock_styles() -> Dict[str, Callable[..., Dict[str, Any]]]:
    registry: Dict[str, Callable[..., Dict[str, Any]]] = {}
    for style in STYLES:
        registry["locks-" + style] = functools.partial(
            lock_style_workload, style)
    return registry


def _register_obs_demos() -> Dict[str, Callable[..., Dict[str, Any]]]:
    # Imported here so the telemetry demos (which pull in the whole
    # net/node stack) only load when the registry is actually used.
    from repro.obs.demo import (
        slo_burn_workload,
        timeline_demo_workload,
        traced_rpc_workload,
    )
    return {"traced-rpc": traced_rpc_workload,
            "slo-burn": slo_burn_workload,
            "timeline-demo": timeline_demo_workload}


def _register_chaos() -> Dict[str, Callable[..., Dict[str, Any]]]:
    # Imported here (like the obs demos) to keep the groups/sessions/
    # qos stack off the import path of modules that only need the
    # lock workloads — and to avoid closing an import cycle: chaos
    # reaches the groups/node layers, which import net.transport, which
    # imports faults.policies.
    from repro.faults.chaos import (
        flaky_links_workload,
        partition_recovery_workload,
    )
    return {"partition-recovery": partition_recovery_workload,
            "flaky-links": flaky_links_workload}


def _register_fuzz_corpus() -> Dict[str, Callable[..., Dict[str, Any]]]:
    # Every shrunk reproducer checked into the default fuzz corpus
    # becomes a ``fuzz-reg-<id>`` workload: the base workload run under
    # the stored minimal schedule, its oracle verdict in the result.
    # Regression coverage therefore rides the existing replay/flight
    # determinism gates automatically.  corpus.py must not be imported
    # by this module's importers eagerly — it reaches back into the
    # fuzz engine, which imports this registry at call time.
    from repro.faults.corpus import corpus_workloads
    return corpus_workloads()


#: Registry of named workloads for the races / replay / profile CLIs.
WORKLOADS: Dict[str, Callable[..., Dict[str, Any]]] = \
    _register_lock_styles()
WORKLOADS.update(_register_obs_demos())
WORKLOADS.update(_register_chaos())
WORKLOADS.update(_register_fuzz_corpus())


def run_workload(name: str, seed: int = 31) -> Dict[str, Any]:
    """Run the named workload (see :data:`WORKLOADS`) with ``seed``."""
    try:
        workload = WORKLOADS[name]
    except KeyError:
        raise KeyError("unknown workload {!r}; known: {}".format(
            name, ", ".join(sorted(WORKLOADS))))
    return workload(seed=seed)
