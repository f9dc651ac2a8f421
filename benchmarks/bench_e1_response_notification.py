"""E1 — response time and notification time per mechanism (§4.2.1).

Ellis's two real-time requirements: *"response time, which must be short
to support a highly interactive system, and notification time, the time
it takes for one user's actions to be propagated to the other users"*.

Four editors on a WAN make edits with think times.  Three mechanisms:

* **operation transformation** (GROVE/Jupiter): local application is
  immediate (response 0); notification = network propagation;
* **pessimistic locking** (transactions): response includes waiting for
  the lock under contention; notification waits for the release/commit;
* **reservation** (floor passing): response includes waiting for the
  session floor and its grant's round trip; no interleaving at all.

Declared claim, per seed: every OT edit responds at once (response
exactly 0) and the replicas converge on one text; locking and
reservation pay contention in a longer response than OT's, and OT
notifies the other editors sooner than either (the OT notification is
network propagation; theirs waits for the hold and the release).
"""

from benchmarks._util import check, print_sweep, sweep
from repro import CooperativePlatform
from repro.concurrency import EXCLUSIVE, LockTable, SharedStore
from repro.obs.metrics import Tally
from repro.sim import Environment, RandomStreams, exponential

EDITORS = 4
EDITS_PER_EDITOR = 15
THINK_MEAN = 2.0
EDIT_DURATION = 1.0
NET_LATENCY = 0.04


def run_ot(seed):
    platform = CooperativePlatform(sites=EDITORS, hosts_per_site=1,
                                   site_latency=NET_LATENCY / 2, seed=seed)
    members = platform.host_names()
    session = platform.create_session("edit", members, floor=None)
    doc = session.shared_document("doc", initial="x" * 50)
    response = Tally("ot-response")
    notification = Tally("ot-notify")
    sent_at = {}

    for member in members:
        client = doc.client(member)

        def on_remote(ops, member=member):
            for op in ops:
                key = getattr(op, "char", None)
                if key in sent_at:
                    notification.record(
                        platform.env.now - sent_at[key])

        client.on_remote = on_remote

    rng = RandomStreams(seed).stream("ot")
    marker = iter(range(10 ** 6))

    def editor(env, member, index):
        client = doc.client(member)
        for _ in range(EDITS_PER_EDITOR):
            yield env.timeout(exponential(rng, THINK_MEAN))
            start = env.now
            tag = chr(33 + (next(marker) % 90))
            sent_at[tag] = env.now
            client.insert(len(client.text) // 2, tag)
            response.record(env.now - start)  # immediate: same instant

    for index, member in enumerate(members):
        platform.env.process(editor(platform.env, member, index))
    platform.run()
    return response, notification, doc.converged


def run_locking(seed):
    env = Environment()
    store = SharedStore()
    store.write("doc", "")
    table = LockTable(env)
    response = Tally("lock-response")
    notification = Tally("lock-notify")
    rng = RandomStreams(seed).stream("lock")

    def editor(env, name):
        for _ in range(EDITS_PER_EDITOR):
            yield env.timeout(exponential(rng, THINK_MEAN))
            start = env.now
            yield env.timeout(NET_LATENCY)  # reach the lock server
            grant = yield table.acquire("doc", name, EXCLUSIVE)
            response.record(env.now - start)
            yield env.timeout(EDIT_DURATION)  # hold while editing
            store.write("doc", name, writer=name, at=env.now)
            yield env.timeout(NET_LATENCY)  # propagation to others
            # Others see the change only now, after hold + propagation.
            notification.record(env.now - start)
            grant.release()

    for i in range(EDITORS):
        env.process(editor(env, "editor-{}".format(i)))
    env.run()
    return response, notification, None


def run_reservation(seed):
    platform = CooperativePlatform(sites=EDITORS, hosts_per_site=1,
                                   site_latency=NET_LATENCY / 2, seed=seed)
    members = platform.host_names()
    floor = platform.create_session("edit", members, "fcfs").session.floor
    response = Tally("resv-response")
    notification = Tally("resv-notify")
    rng = RandomStreams(seed).stream("resv")

    def editor(env, name):
        for _ in range(EDITS_PER_EDITOR):
            yield env.timeout(exponential(rng, THINK_MEAN))
            start = env.now
            yield floor.request(name)
            response.record(env.now - start)
            yield env.timeout(EDIT_DURATION)
            notification.record(env.now - start + NET_LATENCY)
            floor.release(name)

    for member in members:
        platform.env.process(editor(platform.env, member))
    platform.run()
    return response, notification, None


MECHANISMS = {"operation transformation": run_ot,
              "pessimistic locking": run_locking,
              "reservation (floor)": run_reservation}


def run(seed, mechanism):
    # Only OT keeps replicas; the others return None for ``converged``.
    response, notification, converged = MECHANISMS[mechanism](seed)
    return {"edits": response.count, "response mean": response.mean,
            "response p95": response.p95, "response max": response.maximum,
            "notify mean": notification.mean, "converged": converged}


def claim_holds(rows):
    ot, locking, reservation = rows
    return (ot["edits"] == EDITORS * EDITS_PER_EDITOR
            and ot["response max"] == 0.0 and ot["converged"]
            and all(row["response mean"] > ot["response mean"]
                    and row["notify mean"] > ot["notify mean"]
                    for row in (locking, reservation)))


def test_e1_response_notification():
    sweeps = sweep(run, list(MECHANISMS))
    print_sweep("E1  response time vs notification time under contention",
                "mechanism", list(MECHANISMS), sweeps,
                {"edits": "edits", "response mean (s)": "response mean",
                 "response p95 (s)": "response p95",
                 "notify mean (s)": "notify mean"})
    check(sweeps, claim_holds, "(OT responds at once and converges; "
          "locking and reservation respond and notify later)")
