"""Q1 — asynchronous co-authoring: Quilt suggestions vs direct edits of a
shared base (§3.2.3, Figure 1's different-time column).

N co-authors revise one base document.  Each reads the base, spends
``READ_LAG_S`` writing, then submits, so a submission is stale when
another revision landed in between.  The same intents (per-author think
times from a stream named after the author, so adding authors at a
larger N leaves the first ones' intents unchanged) go two ways:

* direct — ``HypertextNetwork.edit_node`` on the version the author
  read: a stale edit branches into an alternative node and is recorded
  as a conflict;
* Quilt — ``suggest_revision``, which the document's author then
  ``incorporate``s into the current base.  A suggestion made over a base
  that has since moved is counted as stale: Quilt does not remove that
  concurrency, it hands it to the author as a social decision.

Declared claim, per seed, with N swept from 2 to 8: Quilt records 0
conflicts at every N, and direct edits record more than 0 conflicts at
every N and strictly more at each larger N.
"""

import statistics

from benchmarks._util import print_table, run_once
from repro.hypertext import CO_AUTHOR, HypertextNetwork, QuiltDocument
from repro.sim import Environment, RandomStreams, exponential

SEEDS = range(20)
AUTHOR_COUNTS = (2, 4, 6, 8)
REVISIONS = 10
THINK_MEAN_S = 60.0
READ_LAG_S = 30.0
BASE_TEXT = "CSCW challenges ODP."
CLAIM_FRACTION = 0.95


def revise(seed, authors, read, submit):
    """Drive every co-author's read, write, submit loop to the end."""
    env = Environment()
    streams = RandomStreams(seed)

    def co_author(env, name):
        rng = streams.stream(name)
        for i in range(REVISIONS):
            yield env.timeout(exponential(rng, THINK_MEAN_S))
            seen = read()
            yield env.timeout(READ_LAG_S)
            submit(name, "{} revision {}".format(name, i), seen)

    for i in range(authors):
        env.process(co_author(env, "co-author-{}".format(i)))
    env.run()


def run(seed, authors):
    network = HypertextNetwork("paper")
    base = network.add_node("editor", "base", BASE_TEXT)
    revise(seed, authors, lambda: base.version,
           lambda name, text, seen: network.edit_node(
               name, base.node_id, text, base_version=seen))

    doc = QuiltDocument("paper", BASE_TEXT, creator="editor")
    for i in range(authors):
        doc.add_participant("co-author-{}".format(i), CO_AUTHOR)
    stale = []

    def suggest(name, text, seen):
        suggestion = doc.suggest_revision(name, text)
        stale.append(seen != doc.base_version)
        doc.incorporate("editor", suggestion.node_id)

    revise(seed, authors, lambda: doc.base_version, suggest)
    return {"direct_conflicts": len(network.conflicts),
            "quilt_conflicts": len(doc.network.conflicts),
            "quilt_stale": sum(stale)}


def claim_holds(rows):
    """The declared claim on one seed's sweep (rows in sweep order)."""
    direct = [row["direct_conflicts"] for row in rows]
    return (all(row["quilt_conflicts"] == 0 for row in rows)
            and direct[0] > 0
            and all(a < b for a, b in zip(direct, direct[1:])))


def run_experiment():
    return {seed: [run(seed, n) for n in AUTHOR_COUNTS] for seed in SEEDS}


def test_q1_quilt_coauthoring(benchmark):
    sweeps = run_once(benchmark, run_experiment)
    rows = []
    for i, n in enumerate(AUTHOR_COUNTS):
        at_n = [sweep[i] for sweep in sweeps.values()]
        direct = [row["direct_conflicts"] for row in at_n]
        rows.append((
            n, n * REVISIONS, statistics.median(direct),
            "{}–{}".format(min(direct), max(direct)),
            max(row["quilt_conflicts"] for row in at_n),
            statistics.median(row["quilt_stale"] for row in at_n)))
    print_table(
        "Q1  direct edits vs Quilt suggestions ({} seeds, {} revisions "
        "each, {:.0f} s read lag)".format(len(SEEDS), REVISIONS,
                                          READ_LAG_S),
        ["co-authors", "revisions", "direct conflicts (median)",
         "direct conflicts range", "Quilt conflicts (max)",
         "Quilt stale suggestions (median)"],
        rows)
    fraction = sum(claim_holds(sweep) for sweep in sweeps.values()) \
        / len(sweeps)
    print("claim (Quilt 0 conflicts; direct > 0 and growing with N): "
          "holds on {:.0%} of seeds".format(fraction))
    assert all(row["quilt_conflicts"] == 0
               for sweep in sweeps.values() for row in sweep)
    assert fraction >= CLAIM_FRACTION
    benchmark.extra_info["claim_fraction"] = fraction
