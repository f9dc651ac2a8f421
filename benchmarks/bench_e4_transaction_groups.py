"""E4 — transaction groups with semantic access rules (§4.2.1).

Skarra & Zdonik: *"Within a transaction group, the notion of
serialisability is replaced by access rules based on the semantics of the
cooperation...  these policies can be tailored for a particular
application by amending the access rules."*

One co-authoring pattern — a writer revising a section while colleagues
repeatedly read it ("read over their shoulder") — runs under three access
rules on the same workload:

* **serialisable** — readers block for the whole writing burst;
* **cooperative** — readers are admitted and see work in progress
  (counted as *cooperative interleavings*, interactions serialisability
  forbids);
* **free** — everything admitted (the other extreme).

Also demonstrated: tailoring, by swapping in a custom rule mid-family.

Declared claim, per seed: under serialisability readers block, wait
longer than under the cooperative rule and never see work in progress;
the cooperative rule admits every read at once and readers see the
writer's in-progress drafts; the tailored rule admits every read at
once too.
"""

from benchmarks._util import check, print_sweep, sweep
from repro.concurrency import (
    AccessRule,
    SharedStore,
    TransactionGroup,
    cooperative_rule,
    free_rule,
    serialisable_rule,
)
from repro.obs.metrics import Tally
from repro.sim import Environment, RandomStreams, exponential

READERS = 3
READS_PER_READER = 10
WRITE_BURSTS = 4
BURST_LENGTH = 6.0
READ_THINK = 2.0


def run(seed, rule_name):
    rule = RULES[rule_name]()
    env = Environment()
    store = SharedStore()
    store.write("section", "published v0")
    group = TransactionGroup(env, store, rule=rule)
    group.add_member("writer")
    for i in range(READERS):
        group.add_member("reader-{}".format(i))
    rng = RandomStreams(seed).stream("rule-" + rule.name)
    read_wait = Tally("read-wait")
    fresh_reads = [0]
    writing_now = [False]

    def writer(env):
        for burst in range(WRITE_BURSTS):
            yield env.timeout(2.0)
            yield group.write("writer", "section",
                              "draft burst {}".format(burst))
            writing_now[0] = True
            yield env.timeout(BURST_LENGTH)  # writing session
            writing_now[0] = False
            group.release("writer", "section", "write")

    def reader(env, name):
        for _ in range(READS_PER_READER):
            yield env.timeout(exponential(rng, READ_THINK))
            start = env.now
            value = yield group.read(name, "section")
            read_wait.record(env.now - start)
            if writing_now[0] and isinstance(value, str) \
                    and value.startswith("draft"):
                fresh_reads[0] += 1  # saw work while it was in progress
            group.release(name, "section", "read")

    env.process(writer(env))
    for i in range(READERS):
        env.process(reader(env, "reader-{}".format(i)))
    env.run()
    return {
        "read wait": read_wait.mean,
        "max read wait": read_wait.maximum,
        "fresh reads": fresh_reads[0],
        "cooperative reads": group.counters["cooperative_reads"],
        "blocked": group.counters["blocked"],
    }


def tailored_rule() -> AccessRule:
    """Tailoring demo: only the lead may write, everyone may read."""
    def predicate(requester, op, key, holders):
        if op == "write":
            return requester == "writer" and all(
                o == "read" for m, o in holders if m != requester)
        return True

    return AccessRule(predicate, name="lead-writer-only")


RULES = {"serialisable": serialisable_rule,
         "cooperative": cooperative_rule,
         "free": free_rule,
         "lead-writer-only": tailored_rule}


def claim_holds(rows):
    serialisable, cooperative, _free, tailored = rows
    return (serialisable["blocked"] > 0
            and serialisable["read wait"] > cooperative["read wait"]
            and serialisable["cooperative reads"] == 0
            and cooperative["max read wait"] == 0.0
            and cooperative["cooperative reads"] > 0
            and cooperative["fresh reads"] > 0
            and tailored["max read wait"] == 0.0)


def test_e4_transaction_groups():
    sweeps = sweep(run, list(RULES))
    print_sweep(
        "E4  access rules replace serialisability in a transaction group",
        "access rule", list(RULES), sweeps,
        {"mean read wait (s)": "read wait", "blocked requests": "blocked",
         "cooperative reads": "cooperative reads",
         "in-progress reads seen": "fresh reads"})
    check(sweeps, claim_holds, "(serialisable readers wait and see no "
          "drafts; cooperative readers read over the shoulder at once)")
