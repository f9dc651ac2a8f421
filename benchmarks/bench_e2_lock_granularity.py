"""E2 — the lock-granularity trade-off (§4.2.1).

*"it is not clear in joint authoring applications whether locks should be
applied at the granularity of sections, paragraphs, sentences or even
words"* — because it is a trade-off.  One co-editing workload (hot-spot
skewed) is replayed against a hard lock table at each granularity:

* coarse units → few lock operations but high conflict waiting;
* fine units → minimal waiting but many lock operations per edit.

The bench reports mean wait per edit, fraction of edits that blocked, and
locks acquired per edit across the granularity spectrum.
"""

from benchmarks._util import print_table, run_once
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


def run_granularity(granularity, document, events):
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
    return {
        "wait": wait,
        "locks": locks_per_edit,
        "blocked_fraction": blocked_edits[0] / max(1, len(events)),
    }


def run_experiment():
    document = StructuredDocument(sections=4, paragraphs_per_section=5,
                                  sentences_per_paragraph=4,
                                  words_per_sentence=10)
    events = EditingWorkload(USERS, document=document, think_mean=4.0,
                             span_mean=6.0, edit_duration_mean=2.0,
                             hotspot_skew=1.2, duration=DURATION,
                             seed=17).generate()
    return {granularity: run_granularity(granularity, document, events)
            for granularity in GRANULARITIES}, len(events)


def test_e2_lock_granularity(benchmark):
    results, edit_count = run_once(benchmark, run_experiment)
    rows = [(granularity,
             stats["wait"].mean,
             stats["blocked_fraction"],
             stats["locks"].mean)
            for granularity, stats in results.items()]
    print_table(
        "E2  lock granularity trade-off ({} edits, 4 authors)".format(
            edit_count),
        ["granularity", "mean wait (s)", "blocked fraction",
         "locks per edit"],
        rows)
    # Shape: waiting decreases monotonically from document to word...
    waits = [results[g]["wait"].mean for g in GRANULARITIES]
    assert waits[0] == max(waits)
    assert waits[-1] == min(waits)
    assert results["document"]["wait"].mean > \
        results["word"]["wait"].mean * 2
    # ...while lock overhead increases.
    locks = [results[g]["locks"].mean for g in GRANULARITIES]
    assert locks == sorted(locks)
    assert results["word"]["locks"].mean > \
        results["document"]["locks"].mean
    benchmark.extra_info["edits"] = edit_count
