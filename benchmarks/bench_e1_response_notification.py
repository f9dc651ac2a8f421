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
  floor; no interleaving at all.

Expected shape: OT response ≈ 0 and stays flat as contention rises;
locking and reservation response grow with contention; all three deliver
every edit eventually.
"""

from benchmarks._util import print_table, run_once
from repro import CooperativePlatform
from repro.concurrency import (
    EXCLUSIVE,
    LockTable,
    ReservationControl,
    SharedStore,
)
from repro.sim import Environment, RandomStreams, Tally, exponential

EDITORS = 4
EDITS_PER_EDITOR = 15
THINK_MEAN = 2.0
EDIT_DURATION = 1.0
NET_LATENCY = 0.04


def run_ot():
    platform = CooperativePlatform(sites=EDITORS, hosts_per_site=1,
                                   site_latency=NET_LATENCY / 2, seed=5)
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

    rng = RandomStreams(1).stream("ot")
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
    return response, notification


def run_locking():
    env = Environment()
    store = SharedStore()
    store.write("doc", "")
    table = LockTable(env)
    response = Tally("lock-response")
    notification = Tally("lock-notify")
    rng = RandomStreams(2).stream("lock")

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
    return response, notification


def run_reservation():
    env = Environment()
    floor = ReservationControl(env)
    response = Tally("resv-response")
    notification = Tally("resv-notify")
    rng = RandomStreams(3).stream("resv")

    def editor(env, name):
        for _ in range(EDITS_PER_EDITOR):
            yield env.timeout(exponential(rng, THINK_MEAN))
            start = env.now
            yield floor.request(name)
            response.record(env.now - start)
            yield env.timeout(EDIT_DURATION)
            notification.record(env.now - start + NET_LATENCY)
            floor.release(name)

    for i in range(EDITORS):
        env.process(editor(env, "editor-{}".format(i)))
    env.run()
    return response, notification


def run_experiment():
    return {
        "operation transformation": run_ot(),
        "pessimistic locking": run_locking(),
        "reservation (floor)": run_reservation(),
    }


def test_e1_response_notification(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = []
    for name, (response, notification) in results.items():
        rows.append((name, response.count, response.mean, response.p95,
                     notification.mean))
    print_table(
        "E1  response time vs notification time under contention",
        ["mechanism", "edits", "response mean (s)", "response p95 (s)",
         "notify mean (s)"],
        rows)
    ot_response, ot_notify = results["operation transformation"]
    lock_response, _ = results["pessimistic locking"]
    resv_response, _ = results["reservation (floor)"]
    assert ot_response.count == EDITORS * EDITS_PER_EDITOR
    # GROVE's claim: operations proceed immediately.
    assert ot_response.maximum == 0.0
    # Locking and reservation pay contention in response time.
    assert lock_response.mean > 0.1
    assert resv_response.mean > 0.1
    # OT notification is bounded by propagation, far below lock waits.
    assert ot_notify.mean < 0.5
    benchmark.extra_info["lock_over_ot_response"] = (
        lock_response.mean + 1e-9) / (ot_response.mean + 1e-9)
