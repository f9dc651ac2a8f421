"""E2 — the lock-granularity trade-off (§4.2.1).

*"it is not clear in joint authoring applications whether locks should be
applied at the granularity of sections, paragraphs, sentences or even
words"* — because it is a trade-off.  One co-editing workload (hot-spot
skewed) is replayed against a hard lock table at each granularity:

* coarse units → few lock operations but high conflict waiting;
* fine units → minimal waiting but many lock operations per edit.

The bench reports mean wait per edit, fraction of edits that blocked, and
locks acquired per edit across the granularity spectrum.

Declared claim, per seed (one edit stream per seed, replayed at every
granularity): waiting is longest at document and shortest at word
granularity, more than twice as long at the one as at the other, while
locks per edit never fall from document to word and are more at word
than at document granularity.
"""

from benchmarks._util import check, print_sweep, sweep
from repro.concurrency import (
    EXCLUSIVE,
    GRANULARITIES,
    LockTable,
    StructuredDocument,
)
from repro.obs.metrics import Tally
from repro.sim import Environment
from repro.workload import EditingWorkload

USERS = ["alice", "bob", "carol", "dave"]
DURATION = 150.0


def run(seed, granularity):
    document = StructuredDocument(sections=4, paragraphs_per_section=5,
                                  sentences_per_paragraph=4,
                                  words_per_sentence=10)
    events = EditingWorkload(USERS, document=document, think_mean=4.0,
                             span_mean=6.0, edit_duration_mean=2.0,
                             hotspot_skew=1.2, duration=DURATION,
                             seed=seed).generate()
    env = Environment()
    table = LockTable(env)
    wait = Tally("wait")
    locks_per_edit = Tally("locks")
    blocked_edits = [0]

    def perform(env, event):
        yield env.timeout(event.at)
        units = document.units_for_span(granularity, event.position,
                                        event.span)
        locks_per_edit.record(len(units))
        start = env.now
        grants = []
        for unit in units:
            grant = yield table.acquire(unit, event.user, EXCLUSIVE)
            grants.append(grant)
        waited = env.now - start
        wait.record(waited)
        if waited > 0:
            blocked_edits[0] += 1
        yield env.timeout(event.duration)
        for grant in grants:
            grant.release()

    for event in events:
        env.process(perform(env, event))
    env.run()
    return {"edits": len(events), "wait": wait.mean,
            "blocked": blocked_edits[0] / max(1, len(events)),
            "locks": locks_per_edit.mean}


def claim_holds(rows):
    waits = [row["wait"] for row in rows]
    locks = [row["locks"] for row in rows]
    return (waits[0] == max(waits) and waits[-1] == min(waits)
            and waits[0] > waits[-1] * 2
            and locks == sorted(locks) and locks[-1] > locks[0])


def test_e2_lock_granularity():
    sweeps = sweep(run, GRANULARITIES)
    print_sweep(
        "E2  lock granularity trade-off (4 authors)", "granularity",
        GRANULARITIES, sweeps,
        {"edits": "edits", "mean wait (s)": "wait",
         "blocked fraction": "blocked", "locks per edit": "locks"})
    check(sweeps, claim_holds, "(waiting falls and locking overhead rises "
          "from document to word)")
