"""F2 — Figure 2: transactional walls vs awareness-based sharing (§4.2.1).

Figure 2a: classic atomic transactions "control shared access by creating
walls between the different users and the existence of other users is
masked out completely".  Figure 2b: information flows between users so a
social protocol can regulate access.

Operationalisation: one author makes a burst of edits to a shared section
over a long editing session, committing only at the end.  A colleague
at the other site of a two-site WAN watches.  We measure **notification
time** — how long after each change the colleague learns of it — under
three regimes:

* serialisable transactions (walls): nothing until commit;
* notification locks: every write signals watchers immediately, the
  signal taking the WAN's one-way delay;
* workspace awareness (Figure 2b): every write flows as an awareness
  datagram over the WAN.

Paper-shape expectation: transactional notification time is unbounded-
until-commit (mean ≈ half the session length), the awareness mechanisms
are bounded by the one-way delay between the sites, read from the
topology — orders of magnitude smaller.
"""

from benchmarks._util import one_way, print_table
from repro.awareness import AwarenessBus, WorkspaceAwareness
from repro.awareness.events import EVENT_SIZE
from repro.concurrency import (
    EXCLUSIVE,
    LockTable,
    NOTIFICATION,
    SharedStore,
    TransactionManager,
)
from repro.net import Network, wan
from repro.net.packet import HEADER_BYTES
from repro.obs.metrics import Tally
from repro.sim import Environment

EDITS = 20
EDIT_INTERVAL = 10.0          # seconds between author edits
AUTHOR, COLLEAGUE = "site0.host0", "site1.host0"


def two_sites(env):
    return wan(env, sites=2, hosts_per_site=1)


def hop():
    """The author-to-colleague one-way delay of an awareness datagram."""
    return one_way(two_sites(Environment()), AUTHOR, COLLEAGUE,
                   EVENT_SIZE + HEADER_BYTES)


def run_transactions():
    env = Environment()
    tm = TransactionManager(env, SharedStore())
    tm.store.write("section", "v0")
    edit_times = []
    notify = Tally("txn-notify")
    tm.store.subscribe(lambda key, value, version, writer:
                       [notify.record(env.now - at)
                        for at in edit_times] if writer == "author"
                       else None)

    def author(env):
        txn = tm.begin("author")
        for i in range(EDITS):
            yield env.timeout(EDIT_INTERVAL)
            yield from tm.write(txn, "section", "edit-{}".format(i))
            edit_times.append(env.now)
        yield from tm.commit(txn)

    env.process(author(env))
    env.run()
    return notify


def run_notification_locks():
    env = Environment()
    table = LockTable(env, style=NOTIFICATION)
    store = SharedStore()
    store.write("section", "v0")
    notify = Tally("lock-notify")
    pending = []

    def on_notify(key, writer, kind):
        for at in pending:
            notify.record(env.now - at)
        pending.clear()

    table.watch("section", on_notify)
    signal_delay = hop()

    def author(env):
        grant = yield table.acquire("section", "author", EXCLUSIVE)
        for i in range(EDITS):
            yield env.timeout(EDIT_INTERVAL)
            store.write("section", "edit-{}".format(i), writer="author",
                        at=env.now)
            pending.append(env.now)
            # Notification locks propagate the change signal at once;
            # it reaches the colleague one WAN hop later.
            yield env.timeout(signal_delay)
            table.notify_write("section", "author")
        grant.release()

    env.process(author(env))
    env.run()
    return notify


def run_workspace_awareness():
    env = Environment()
    store = SharedStore()
    store.write("section", "v0")
    workspace = WorkspaceAwareness(
        store, AwarenessBus(Network(env, two_sites(env))))
    notify = Tally("awareness-notify")
    edit_at = {}
    workspace.watch(COLLEAGUE,
                    lambda event: notify.record(
                        env.now - edit_at[event.detail["version"]]))

    def author(env):
        for i in range(EDITS):
            yield env.timeout(EDIT_INTERVAL)
            version = store.write("section", "edit-{}".format(i),
                                  writer=AUTHOR, at=env.now)
            edit_at[version] = env.now

    env.process(author(env))
    env.run()
    return notify


def run_experiment():
    return {
        "transactions (Fig 2a)": run_transactions(),
        "notification locks": run_notification_locks(),
        "workspace awareness (Fig 2b)": run_workspace_awareness(),
    }


def test_f2_walls_vs_awareness():
    results = run_experiment()
    rows = [(name, tally.count, tally.mean, tally.maximum)
            for name, tally in results.items()]
    print_table(
        "F2  notification time: when does a colleague learn of a change?",
        ["mechanism", "changes seen", "mean notify (s)", "max notify (s)"],
        rows)
    txn = results["transactions (Fig 2a)"]
    locks = results["notification locks"]
    awareness = results["workspace awareness (Fig 2b)"]
    # Every change is eventually seen under all three mechanisms.
    assert txn.count == locks.count == awareness.count == EDITS
    # The walls: mean notification ≈ half the session; the alternatives
    # are bounded by the hop between the sites — orders of magnitude
    # smaller.
    assert txn.mean > EDITS * EDIT_INTERVAL / 4
    assert locks.mean <= 2 * hop()
    assert awareness.mean <= 2 * hop()
    assert txn.mean / awareness.mean > 100
