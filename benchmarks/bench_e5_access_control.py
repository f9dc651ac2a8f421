"""E5 — access control for collaboration (§4.2.1 "Security").

Three claims operationalised:

1. **Dynamic change**: the classic access matrix assumes rights are
   "set up and only occasionally altered by a single administrator";
   CSCW needs changes that take effect *during* the collaboration.  We
   measure time-to-effect of a rights change under (a) the administered
   matrix, (b) dynamic roles and (c) negotiation between the parties.
2. **Fine granularity**: per-line rights via patterns and via the
   Shen & Dewan object hierarchy, with the check cost as the document
   hierarchy deepens.
3. **Visibility**: the role policy prints as a complete specification.
"""

from benchmarks._util import print_table, run_once
from repro.access import (
    AccessMatrix,
    AccessNegotiator,
    GRANTED,
    Hierarchy,
    READ,
    Role,
    RoleBasedPolicy,
    ShenDewanPolicy,
    WRITE,
)
from repro.obs.metrics import Tally
from repro.sim import Environment

ADMIN_DELAY = 120.0      # the administrator gets to it eventually
NEGOTIATION_RTT = 2.0    # colleagues answer within seconds
CHANGES = 10


def run_matrix_changes():
    env = Environment()
    matrix = AccessMatrix(env, administrator="admin",
                          admin_delay=ADMIN_DELAY)
    effect = Tally("matrix-effect")

    def collaboration(env):
        for i in range(CHANGES):
            requested = env.now
            done = matrix.request_change(
                "admin", "alice", "doc/sec:{}".format(i), WRITE)
            yield done
            effect.record(env.now - requested)

    env.process(collaboration(env))
    env.run()
    return effect


def run_role_changes():
    env = Environment()
    policy = RoleBasedPolicy()
    policy.define(Role("editor-of-sec").allow("doc/*", WRITE))
    effect = Tally("role-effect")
    for _ in range(CHANGES):
        requested = env.now
        policy.assign("alice", "editor-of-sec", at=env.now)
        effect.record(env.now - requested)  # immediate
        policy.revoke("alice", "editor-of-sec", at=env.now)
    return effect


def run_negotiated_changes():
    env = Environment()
    policy = RoleBasedPolicy()
    negotiator = AccessNegotiator(env, policy)
    effect = Tally("negotiation-effect")

    def owner_behaviour(request):
        def answer(env):
            yield env.timeout(NEGOTIATION_RTT)
            negotiator.respond(request.request_id, "owner", True)
        env.process(answer(env))

    negotiator.on_request("owner", owner_behaviour)

    def collaboration(env):
        for i in range(CHANGES):
            requested = env.now
            outcome = yield negotiator.request(
                "alice", "doc/sec:{}".format(i), WRITE, ["owner"])
            assert outcome == GRANTED
            effect.record(env.now - requested)

    env.process(collaboration(env))
    env.run()
    return effect


def run_check_cost():
    """Shen & Dewan check cost vs object-hierarchy depth."""
    rows = []
    for depth in (2, 4, 6, 8):
        subjects = Hierarchy("everyone")
        subjects.add("authors", "everyone")
        subjects.add("alice", "authors")
        objects = Hierarchy("doc")
        parent = "doc"
        for level in range(depth):
            node = "level-{}".format(level)
            objects.add(node, parent)
            parent = node
        policy = ShenDewanPolicy(subjects, objects)
        policy.grant("authors", "doc", READ)
        policy.deny("alice", parent, READ)
        assert policy.check("alice", parent, READ) is False
        leafward = policy.counters["entries_examined"]
        rows.append((depth, leafward))
    return rows


def run_experiment():
    return {
        "changes": {
            "access matrix (single admin)": run_matrix_changes(),
            "dynamic roles": run_role_changes(),
            "negotiated": run_negotiated_changes(),
        },
        "check_cost": run_check_cost(),
    }


def test_e5_access_control(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = [(name, tally.count, tally.mean, tally.maximum)
            for name, tally in results["changes"].items()]
    print_table(
        "E5a  time for a rights change to take effect mid-collaboration",
        ["mechanism", "changes", "mean (s)", "max (s)"],
        rows)
    print_table(
        "E5b  Shen & Dewan check cost vs hierarchy depth",
        ["object depth", "entries examined per check"],
        results["check_cost"])
    matrix = results["changes"]["access matrix (single admin)"]
    roles = results["changes"]["dynamic roles"]
    negotiated = results["changes"]["negotiated"]
    # Shape: administered changes are orders of magnitude slower than
    # role changes; negotiation sits between (human-latency bound).
    assert matrix.mean >= ADMIN_DELAY
    assert roles.mean == 0.0
    assert 0 < negotiated.mean <= 2 * NEGOTIATION_RTT
    assert matrix.mean > negotiated.mean > roles.mean
    # Check cost grows with hierarchy depth (linear, not exponential).
    depths = [row[0] for row in results["check_cost"]]
    costs = [row[1] for row in results["check_cost"]]
    assert costs == sorted(costs)
    assert costs[-1] <= costs[0] * (depths[-1] / depths[0]) * 3

    # Visibility: the policy describes itself completely.
    policy = RoleBasedPolicy()
    policy.define(Role("author").allow("doc/*", READ, WRITE))
    policy.assign("alice", "author")
    description = policy.describe()
    assert "author" in description and "doc/*" in description
    benchmark.extra_info["admin_over_roles"] = matrix.mean
