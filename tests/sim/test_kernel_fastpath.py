"""The kernel fast paths must behave exactly like the generic paths."""

import ast
import gc
import os
import re
import weakref

import pytest

from repro.analysis.lint import iter_python_files, lint_source
from repro.concurrency.locks import EXCLUSIVE, LockTable
from repro.errors import SimulationError
from repro.net import Network, Topology
from repro.net.link import Channel
from repro.sim import Environment, Event, Store, Timeout
from repro.sim.environment import dispatch_parts
from repro.sim.events import NORMAL, URGENT

from tests.counting import CountingEnvironment

ROOT = os.path.normpath(os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir))


@pytest.fixture
def env():
    return Environment()


def test_timeout_fast_path_matches_generic_event(env):
    event = env.timeout(1.5, value="v")
    assert isinstance(event, Timeout)
    assert event.delay == 1.5
    assert event.triggered and event.ok
    assert event.value == "v"
    assert env.events_scheduled == 1


def test_timeout_rejects_negative_delay(env):
    with pytest.raises(SimulationError):
        env.timeout(-0.1)
    # The failed call must not have queued anything.
    assert env.events_scheduled == 0
    assert env.peek() == float("inf")


def test_events_scheduled_counts_every_queued_event(env):
    env.timeout(0.1)
    env.schedule(Event(env))
    assert env.events_scheduled == 2
    env.run(until=1.0)
    # run(until=...) queues the until-event itself.
    assert env.events_scheduled == 3
    assert env.events_processed == 3


def test_urgent_still_beats_normal_at_same_instant(env):
    order = []
    normal = env.timeout(0.0)
    normal.callbacks.append(lambda _e: order.append("normal"))
    urgent = Event(env)
    urgent._ok = True
    urgent.callbacks.append(lambda _e: order.append("urgent"))
    env.schedule(urgent, priority=URGENT)
    env.run()
    assert order == ["urgent", "normal"]
    assert URGENT < NORMAL


def test_events_are_slotted(env):
    with pytest.raises(AttributeError):
        env.timeout(0.1).arbitrary = 1
    with pytest.raises(AttributeError):
        Event(env).arbitrary = 1


def test_events_processed_is_exact_after_failed_run(env):
    def boom(env):
        yield env.timeout(0.1)
        raise RuntimeError("bang")

    env.timeout(0.05)
    env.process(boom(env))
    with pytest.raises(RuntimeError):
        env.run()
    # Initialize + plain timeout + process timeout + process-failure
    # event all drained before the error escalated.
    assert env.events_processed == 4


# -- a booked channel, elided puts, queue edge cases ----------------------

def test_equal_priority_claims_stay_fifo(env):
    """Behind a booking (the one-event hop), equal-priority claims start
    in claim order, each when the one before it ends."""
    channel = Channel()
    channel.busy_until = 0.5
    order = []

    class Claim:
        priority = 5
        tx = 0.01
        start = None

    def claimant(env, tag):
        claim = Claim()
        channel.book(claim, env.now)
        yield env.timeout(claim.start + claim.tx - env.now)
        order.append(tag)
        channel.booked.remove(claim)

    for tag in range(8):
        env.process(claimant(env, tag))
    env.run()
    assert order == list(range(8))
    assert env.now == pytest.approx(0.5 + 8 * 0.01)
    assert not channel.booked


def test_store_put_queues_nothing_and_hands_items_on_in_order(env):
    """Each item reaches the waiting consumer in the put, and a put
    queues no event of its own: the run's events are the processes' own
    (two starts, three timeouts, two exits).  A take the consumer waits
    on is handed over in the call (``Event.resolve``), so the three
    takes queue nothing either."""
    def consumer(env, store, seen):
        for _ in range(3):
            item = yield store.get()
            seen.append((env.now, item))

    def producer(env, store):
        for i in range(3):
            yield env.timeout(0.1)
            store.put(i)

    store = Store(env)
    seen = []
    env.process(consumer(env, store, seen))
    env.process(producer(env, store))
    env.run()
    assert seen == [(0.1, 0), (0.1 + 0.1, 1), (0.1 + 0.1 + 0.1, 2)]
    assert (env.now, len(store)) == (0.1 + 0.1 + 0.1, 0)
    assert env.events_processed == env.events_scheduled == 7


# -- one clock, one wake-up callback, one queued event per grant ----------

def private_clocks(root):
    """Lines under ``root``'s ``src/`` and ``tests/`` that read a private
    twin of the clock, and kernel lines that define ``now``."""
    twin = re.compile(r"[.]_now\b")  # spelt so that it does not match itself
    kernel = os.path.join(root, "src", "repro", "sim", "environment.py")
    found = []
    for path in iter_python_files([os.path.join(root, "src"),
                                   os.path.join(root, "tests")]):
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        found += ["{}:{}".format(path, number)
                  for number, line in enumerate(lines, 1)
                  if twin.search(line)
                  or (path == kernel and re.search(r"def now\b", line))]
    return found


def test_the_clock_is_one_attribute_and_rpr006_sees_every_read_of_it():
    """``now`` is a plain attribute the run loop writes, with no private
    twin: every clock read in ``src/`` and ``tests/`` is spelt ``.now``,
    which is what RPR006 matches, so a float ``==`` on any of them is
    flagged."""
    env = Environment()
    env.run(until=2.5)
    assert "now" not in vars(Environment) and vars(env)["now"] == 2.5
    env.timeout(1.0)
    env.run()
    assert vars(env)["now"] == 3.5
    assert private_clocks(ROOT) == []
    reads = 0
    for path in iter_python_files([os.path.join(ROOT, "src")]):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        reads += sum(isinstance(node, ast.Attribute) and node.attr == "now"
                     for node in ast.walk(tree))
    assert reads > 0
    for read in ("env.now", "self.env.now", "self.now", "clock.now"):
        for compare in ("==", "!="):
            source = "def f(x):\n    return {} {} x\n".format(read, compare)
            assert [finding.code for finding in lint_source(source, "t.py")] \
                == ["RPR006"], source


@pytest.mark.parametrize("path, line", [
    ("tests/test_planted.py", "return x." "_now"),
    ("src/repro/planted.py", "return x." "_now"),
    ("src/repro/sim/environment.py", "def now(self):"),
])
def test_a_private_clock_planted_in_a_tree_is_caught(tmp_path, path, line):
    """A private clock read under ``tests/`` is caught as one under
    ``src/`` is, and so is a ``now`` defined in the kernel."""
    planted = tmp_path / path
    planted.parent.mkdir(parents=True)
    planted.write_text(line + "\n")
    assert private_clocks(str(tmp_path)) == [str(planted) + ":1"]


def test_a_process_rearms_every_wait_with_one_callback(env):
    waits = [env.timeout(1.0), env.timeout(2.0)]

    def worker(env):
        for wait in waits:
            yield wait

    env.process(worker(env))
    env.step()                  # the process starts and waits on waits[0]
    wake = waits[0].callbacks[-1]
    env.run(until=1.5)          # ... and is woken, then waits on waits[1]
    assert waits[1].callbacks[-1] is wake


def test_a_finished_process_is_freed_by_refcount(env):
    """The wake-up callback refers back to its process; the process
    drops it when its generator returns, so nothing is left for the
    cycle collector."""
    def worker(env):
        yield env.timeout(1.0)
        yield env.timeout(1.0)
        return "done"

    generator = worker(env)
    ref = weakref.ref(generator)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        env.process(generator)
        del generator
        env.run()
        alive = ref() is not None
    finally:
        if was_enabled:
            gc.enable()
    assert not alive


def _raises(env):
    yield env.timeout(1.0)
    raise KeyError("bang")


def _yields_a_non_event(env):
    yield env.timeout(1.0)
    yield "not an event"


@pytest.mark.parametrize("body", [_raises, _yields_a_non_event])
def test_a_failed_process_lets_go_of_its_callback(env, body):
    """A process that fails, by raising or by yielding a non-event,
    drops its wake-up callback just as one that returns does."""
    def parent(env, child):
        try:
            yield child
        except (KeyError, SimulationError):
            pass

    process = env.process(body(env))
    env.process(parent(env, process))
    env.run()
    assert not process.ok and process._wake is None


def test_a_failed_process_is_freed_by_refcount(env):
    """The stored failure's traceback starts in the generator, not in
    the kernel frame that holds the process, so a raising child that
    its parent catches forms no cycle with its process."""
    refs = []

    def child(env):
        generator = _raises(env)
        refs.append(weakref.ref(generator))
        return env.process(generator)

    def parent(env):
        try:
            yield child(env)
        except KeyError:
            pass

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        env.process(parent(env))
        env.run()
        alive = refs[0]() is not None
    finally:
        if was_enabled:
            gc.enable()
    assert not alive


def test_a_defused_process_that_raises_does_not_fail_the_run(env):
    process = env.process(_raises(env))
    process.defuse()
    env.run()
    assert not process.ok and isinstance(process.value, KeyError)


def test_an_immediate_lock_grant_queues_no_event():
    env = CountingEnvironment()
    table = LockTable(env)
    granted = table.acquire("k", "ann", EXCLUSIVE)
    assert (granted.processed, granted.ok, env.pushes) == (True, True, 0)
    assert granted.value.owner == "ann"
    waiting = table.acquire("k", "bob", EXCLUSIVE)
    assert (waiting.triggered, env.pushes) == (False, 0)
    env.run()
    assert env.now == 0.0 and env.pushes == 0


# -- an outcome reaches its waiter in the call -----------------------------

def test_a_hand_over_to_waiters_queues_nothing_and_runs_them_in_order():
    env = CountingEnvironment()
    order = []
    event = env.event()

    def waiter(env, tag):
        value = yield event
        order.append((tag, value, env.now))
        yield env.event()               # and waits on, so it never exits

    for tag in ("first", "second"):
        env.process(waiter(env, tag))
    env.run()                           # both processes start and wait
    event.callbacks.append(lambda fired: order.append(("callback",
                                                       fired.value)))
    pushed = env.pushes
    assert event.resolve("v") is event
    assert event.processed and env.pushes == pushed
    assert order == [("first", "v", 0.0), ("second", "v", 0.0),
                     ("callback", "v")]
    with pytest.raises(SimulationError):
        event.resolve("again")


def test_a_failure_handed_to_a_waiter_is_thrown_into_it_in_the_call():
    env = CountingEnvironment()
    event = env.event()
    caught = []

    def waiter(env):
        try:
            yield event
        except KeyError as error:
            caught.append(error.args[0])

    env.process(waiter(env))
    env.run()
    pushed = env.pushes
    event.reject(KeyError("bang"))
    assert caught == ["bang"] and event.defused
    assert env.pushes == pushed + 1     # the waiter's exit, not the event


def test_with_no_waiter_a_hand_over_queues_the_event_as_succeed_does():
    env = CountingEnvironment()
    fine = env.event().resolve("v")
    assert (fine.triggered, fine.processed, env.pushes) == (True, False, 1)
    env.run()
    assert fine.processed and fine.value == "v"
    failed = env.event().reject(KeyError("unhandled"))
    assert (failed.processed, env.pushes) == (False, 2)
    with pytest.raises(KeyError):
        env.run()


def test_an_unhandled_failure_handed_to_a_callback_raises_in_the_call():
    env = Environment()
    event = env.event()
    event.callbacks.append(lambda fired: None)      # does not defuse
    with pytest.raises(KeyError):
        event.reject(KeyError("unhandled"))
    assert event.processed


def test_an_until_event_handed_over_stops_the_run_in_its_loop():
    """The run's stopper is no waiter: the event is queued, so the code
    that resolved it runs to its end before run() returns."""
    env = CountingEnvironment()
    done = env.event()
    after = []

    def resolver(env):
        yield env.timeout(1.0)
        done.resolve("v")
        after.append(env.now)
        yield env.timeout(1.0)

    process = env.process(resolver(env))
    assert env.run(until=done) == "v"
    assert after == [1.0] and process.is_alive
    env.run()
    assert process.ok


def test_a_process_resumed_in_a_packet_handler_leaves_the_carrier_active():
    """A process handed an outcome inside a push handler runs in the
    call and gives the active process back: the packet's carrier stays
    the stand-in, so a send the handler makes afterwards begins at once
    (it queues its first hop's arrival, not a start at this instant)."""
    env = CountingEnvironment()
    topology = Topology(env)
    topology.add_link("a", "b", latency=0.01, bandwidth=1e9)
    network = Network(env, topology)
    a, b = network.host("a"), network.host("b")
    reply = env.event()
    seen = []

    def waiter(env):
        seen.append(("resumed", (yield reply)))

    def handler(packet):
        carrier = env.active_process
        reply.resolve(packet.payload)
        seen.append(("active", env.active_process is carrier,
                     carrier is not None))
        queued = len(env._queue)
        b.send("a", payload="pong", port=9)
        start = [entry for entry in env._queue
                 if entry[0] == env.now
                 and dispatch_parts(entry[1])[0] == URGENT]
        seen.append(("begun", len(env._queue) - queued, start))

    b.on_packet(9, handler)
    env.process(waiter(env))
    a.send("b", payload="ping", port=9)
    env.run(until=0.015)
    assert seen == [("resumed", "ping"), ("active", True, True),
                    ("begun", 1, [])]


def test_a_store_take_made_inside_a_hand_off_keeps_fifo_order():
    """A consumer handed an item in a put takes again in the call: the
    take already waiting is served first, and the item put after both
    goes to the new take."""
    env = CountingEnvironment()
    store = Store(env)
    got = []

    def greedy(env):
        got.append(("greedy", (yield store.get())))
        got.append(("greedy", (yield store.get())))

    def patient(env):
        got.append(("patient", (yield store.get())))

    env.process(greedy(env))
    env.process(patient(env))
    env.run()                           # both wait, greedy first
    store.items.extend([1, 2])          # two items, then one serve
    store._serve()
    assert got == [("greedy", 1), ("patient", 2)]
    store.put(3)
    assert got == [("greedy", 1), ("patient", 2), ("greedy", 3)]
    assert len(store) == 0 and not store._getters
