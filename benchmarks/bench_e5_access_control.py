"""E5 — access rights that change during the collaboration (§4.2.1).

The classic access matrix assumes rights are "set up and only
occasionally altered by a single administrator"; CSCW needs rights that
change *during* the collaboration, often "as a result of negotiation
between parties involved".  Alice works through a document section by
section and needs write access to each one before she edits it.  The
seed draws when she asks and, under negotiation, whether the section's
owner is away (the request expires at its deadline), refuses or assents,
and how long the answer takes.  Three mechanisms:

* access matrix — the single administrator applies every change after
  the administrative delay;
* dynamic roles — alice takes the section's editor role, at once;
* negotiated — the owner is asked; an assent installs the right.

Declared claim, per seed: a role change takes effect at once, a
negotiation concludes sooner on average than an administered change, and
under every mechanism alice can write exactly the sections she was
granted (no fewer, and nothing else).

Part (b), fine granularity: Shen & Dewan's model states per-line rights
as a few entries inherited down the subject and object hierarchies,
negative ones included.  The seed draws who of six users is an author
(the rest review), which sections are frozen (authors may not write
them), one paragraph per frozen section re-opened for one user, and one
reviewer who becomes an author mid-way (one hierarchy move).  The swept
parameter is lines per paragraph.  Declared claim, per seed: the model
grants exactly the intended per-line rights before and after the role
change, and the matrix needs more entries than the model by a factor
that grows with the document.
"""

from benchmarks._util import check, print_sweep, sweep
from repro.access import (
    AccessMatrix,
    AccessNegotiator,
    DENIED,
    EXPIRED,
    GRANTED,
    Hierarchy,
    Role,
    RoleBasedPolicy,
    ShenDewanPolicy,
    WRITE,
)
from repro.obs.metrics import Tally
from repro.sim import Environment, RandomStreams, exponential

SECTIONS = 10
THINK_MEAN = 30.0       # alice's time on a section before the next
ADMIN_DELAY = 120.0     # the administrator gets to it eventually
ANSWER_MEAN = 2.0       # an owner at their desk answers within seconds
AWAY, REFUSE = 0.2, 0.3  # shares of requests the owner misses, refuses
DEADLINE = 30.0
ARTEFACTS = ["doc/sec:{}".format(i) for i in range(SECTIONS)] + [
    "doc/appendix"]     # never asked for
MECHANISMS = ("access matrix", "dynamic roles", "negotiated")


def run(seed, mechanism):
    env = Environment()
    streams = RandomStreams(seed)
    alice_rng, owner_rng = streams.stream("alice"), streams.stream("owner")
    matrix = AccessMatrix(env, administrator="admin",
                          admin_delay=ADMIN_DELAY)
    policy = RoleBasedPolicy()
    negotiator = AccessNegotiator(env, policy)
    waits = Tally("wait")
    outcomes = {GRANTED: set(), DENIED: set(), EXPIRED: set()}

    def owner(request):
        draw = owner_rng.random()
        if draw < AWAY:
            return

        def answer(env):
            yield env.timeout(exponential(owner_rng, ANSWER_MEAN))
            negotiator.respond(request.request_id, "owner",
                               draw >= AWAY + REFUSE)
        env.process(answer(env))

    negotiator.on_request("owner", owner)

    def alice(env):
        for section in ARTEFACTS[:SECTIONS]:
            yield env.timeout(exponential(alice_rng, THINK_MEAN))
            asked = env.now
            outcome = GRANTED
            if mechanism == "access matrix":
                yield matrix.request_change("admin", "alice", section, WRITE)
            elif mechanism == "dynamic roles":
                policy.define(Role(section).allow(section, WRITE))
                policy.assign("alice", section, at=env.now)
            else:
                outcome = yield negotiator.request(
                    "alice", section, WRITE, ["owner"], deadline=DEADLINE)
            waits.record(env.now - asked)
            outcomes[outcome].add(section)

    env.process(alice(env))
    env.run()
    holds = matrix.check if mechanism == "access matrix" else policy.check
    writable = {artefact for artefact in ARTEFACTS
                if holds("alice", artefact, WRITE)}
    granted = outcomes[GRANTED]
    return {"wait": waits.mean, "max wait": waits.maximum,
            "granted": len(granted), "refused": len(outcomes[DENIED]),
            "expired": len(outcomes[EXPIRED]),
            "beyond grant": len(writable - granted),
            "short of grant": len(granted - writable)}


def claim_holds(rows):
    matrix, roles, negotiated = rows
    return (roles["max wait"] == 0.0
            and negotiated["wait"] < matrix["wait"]
            and all(row["beyond grant"] == row["short of grant"] == 0
                    for row in rows))


USERS = ["user-{}".format(i) for i in range(6)]
DOC_SECTIONS, PARAGRAPHS = 4, 3
LINES = (2, 4, 8)


def run_granularity(seed, lines):
    rng = RandomStreams(seed).stream("policy")
    subjects, objects = Hierarchy("everyone"), Hierarchy("doc")
    subjects.add("authors", "everyone")
    subjects.add("reviewers", "everyone")
    authors = {user for user in USERS if rng.random() < 0.5}
    for user in USERS:
        subjects.add(user, "authors" if user in authors else "reviewers")
    policy = ShenDewanPolicy(subjects, objects)
    policy.grant("authors", "doc", WRITE)
    paragraph_of, reopened, frozen = {}, {}, set()
    for s in range(DOC_SECTIONS):
        section = objects.add("sec:{}".format(s), "doc")
        if rng.random() < 0.5:
            frozen.add(section)
            policy.deny("authors", section, WRITE)
            paragraph = "par:{}.{}".format(s, rng.randrange(PARAGRAPHS))
            reopened[paragraph] = rng.choice(USERS)
        for p in range(PARAGRAPHS):
            paragraph = objects.add("par:{}.{}".format(s, p), section)
            for line in range(lines):
                paragraph_of[objects.add("{}.{}".format(paragraph, line),
                                         paragraph)] = (section, paragraph)
    for paragraph, user in reopened.items():
        policy.grant(user, paragraph, WRITE)

    def intended():
        return {(user, line) for user in USERS
                for line, (section, paragraph) in paragraph_of.items()
                if reopened.get(paragraph) == user
                or (user in authors and section not in frozen)}

    def granted():
        return {(user, line) for user in USERS for line in paragraph_of
                if policy.check(user, line, WRITE)}

    before = intended()
    exact = granted() == before
    newcomer = rng.choice(sorted(set(USERS) - authors) or USERS)
    subjects.move(newcomer, "authors")
    authors.add(newcomer)
    after = intended()
    return {"lines": len(paragraph_of), "entries": policy.entry_count,
            "matrix entries": len(before),
            "factor": len(before) / policy.entry_count,
            "matrix edits": len(before ^ after),
            "exact": exact and granted() == after}


def granularity_holds(rows):
    factors = [row["factor"] for row in rows]
    return (all(row["exact"] for row in rows)
            and factors == sorted(factors) and factors[-1] > factors[0])


def test_e5_access_control():
    sweeps = sweep(run, MECHANISMS)
    print_sweep(
        "E5a  rights changes mid-collaboration ({} sections)".format(
            SECTIONS), "mechanism", MECHANISMS, sweeps,
        {"mean wait (s)": "wait", "max wait (s)": "max wait",
         "granted": "granted", "refused": "refused", "expired": "expired",
         "writable beyond grant": "beyond grant"})
    check(sweeps, claim_holds, "(roles at once; negotiation before the "
          "administrator; rights exactly as granted)")
    granularity = sweep(run_granularity, LINES)
    print_sweep(
        "E5b  per-line rights: Shen & Dewan entries vs the access matrix",
        "lines per paragraph", LINES, granularity,
        {"lines": "lines", "entries": "entries",
         "matrix entries": "matrix entries", "factor (x)": "factor",
         "matrix edits per role change": "matrix edits"})
    check(granularity, granularity_holds, "(exactly the intended per-line "
          "rights; the matrix's entries grow with the document, the "
          "model's do not)")
