"""The kernel fast paths must behave exactly like the generic paths."""

import ast
import gc
import os
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import iter_python_files, lint_source
from repro.concurrency.locks import EXCLUSIVE, LockTable
from repro.errors import SimulationError
from repro.net import Network, Topology
from repro.net.link import Channel
from repro.sim import Environment, Event, Store, Timeout
from repro.sim.environment import Batch, dispatch_parts
from repro.sim.events import NORMAL, URGENT

from tests.counting import CountingEnvironment, ShuffledEnvironment

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


# -- a batch stands for its timeouts -----------------------------------------

class _BatchCounting(CountingEnvironment):
    """Counts the pushes of batches apart, and the batches."""

    def __init__(self):
        super().__init__()
        self.batch_pushes = 0
        self.batches = []

    def _push(self, time, key, event):
        if isinstance(event, Batch):
            self.batch_pushes += 1
            if not any(event is seen for seen in self.batches):
                self.batches.append(event)
        super()._push(time, key, event)


def _note(env, order, tag):
    order.append((env.now, tag, "started"))
    yield env.timeout(0)
    order.append((env.now, tag, "resumed"))


def _dispatch(batched, plan):
    """Run ``plan`` with each call queued by ``env.batch`` or, unbatched,
    as the callback of an event of its own; return the trace of what
    ran, the environment and the number of calls made.

    A plan step is ``(delay, priority, actions, foreign)``: a call, and,
    with ``foreign``, a plain timeout queued after it for the same
    instant.  A call logs itself and then does its actions in order:
    start a process, send a packet with no active process (to another
    host, or to its own, whose start delivers it), queue a zero-delay
    NORMAL timeout, or make a further call carrying the actions left.
    """
    env = _BatchCounting()
    topology = Topology(env)
    topology.add_link("a", "b", latency=0.25, bandwidth=1e9)
    network = Network(env, topology)
    a, b = network.host("a"), network.host("b")
    trace = []
    calls = []
    for host in (a, b):
        host.on_packet(5, lambda packet: trace.append(
            (env.now, "packet", packet.payload)))

    def later(delay, priority, entry):
        calls.append(entry)
        if batched:
            env.batch(delay, call, entry, priority)
            return
        event = Event(env)
        event._ok = True
        event.callbacks.append(lambda _event: call(entry))
        env.schedule(event, priority, delay)

    def call(entry):
        tag, actions = entry
        trace.append((env.now, tag))
        for index, (kind, delay, priority) in enumerate(actions):
            sub = "{}.{}".format(tag, index)
            if kind == "process":
                env.process(_note(env, trace, sub))
            elif kind in ("send", "self-send"):
                a.send("b" if kind == "send" else "a", payload=sub, port=5)
            elif kind == "zero":
                env.timeout(0).callbacks.append(
                    lambda _event, sub=sub: trace.append((env.now, sub)))
            else:
                later(delay, priority, (sub, actions[index + 1:]))
                break

    for tag, (delay, priority, actions, foreign) in enumerate(plan):
        later(delay, priority, (str(tag), actions))
        if foreign:
            env.timeout(delay).callbacks.append(
                lambda _event, tag=tag: trace.append((env.now, -tag)))
    env.run()
    return trace, env, len(calls)


_DELAYS = st.sampled_from([0.0, 0.5, 1.0])
_PRIORITIES = st.sampled_from([URGENT, NORMAL])
_ACTIONS = st.lists(st.tuples(
    st.sampled_from(["process", "send", "self-send", "zero", "call"]),
    _DELAYS, _PRIORITIES), max_size=4)
_PLANS = st.lists(st.tuples(_DELAYS, _PRIORITIES, _ACTIONS, st.booleans()),
                  min_size=1, max_size=10)


@settings(max_examples=300)
@given(_PLANS)
def test_a_batch_dispatches_as_its_timeouts_would(plan):
    """The calls run where their own events would have, at the same
    instants and in the same order, also when one starts a process,
    sends a packet or queues a zero-delay event at the batch's instant;
    the batch starts no process of its own, and it queues one entry,
    plus one each time it yields to what a call queued."""
    trace, batched, calls = _dispatch(True, plan)
    expected, plain, same_calls = _dispatch(False, plan)
    assert trace == expected and calls == same_calls
    assert batched.processes == plain.processes
    assert batched.pushes - batched.batch_pushes == plain.pushes - calls
    assert 1 <= len(batched.batches) <= calls


def test_a_batch_queues_one_entry_and_one_more_per_yield():
    env = CountingEnvironment()
    order = []

    def starter(tag):
        order.append(tag)
        env.process(_note(env, order, "process"))

    env.batch(1.0, order.append, "a")
    env.batch(1.0, starter, "b")
    env.batch(1.0, order.append, "c")
    assert env.pushes == env.events_scheduled == 1
    env.run()
    assert order == ["a", "b", (1.0, "process", "started"), "c",
                     (1.0, "process", "resumed")]
    # The batch, the start, the batch again, the timeout and the exit.
    assert (env.pushes, env.processes) == (5, 1)


def test_a_call_joins_a_batch_only_while_nothing_else_was_queued():
    env = CountingEnvironment()
    seen = []
    pushes = []
    for delay, tag, priority in ((1.0, "a", NORMAL), (1.0, "b", NORMAL),
                                 (2.0, "c", NORMAL), (1.0, "d", NORMAL),
                                 (1.0, "e", URGENT), (5.0, "timeout", None),
                                 (1.0, "f", NORMAL)):
        if priority is None:
            env.timeout(delay).callbacks.append(
                lambda _event: seen.append("timeout"))
        else:
            env.batch(delay, seen.append, tag, priority)
        pushes.append(env.pushes)
    # b and d join a's batch (d after c's, another instant); e has
    # another priority; f comes after the timeout was queued.
    assert pushes == [1, 1, 2, 2, 3, 4, 5]
    env.run()
    assert seen == ["e", "a", "b", "d", "f", "c", "timeout"]


def test_a_call_that_raises_leaves_the_rest_queued():
    env = CountingEnvironment()
    seen = []

    def boom(tag):
        raise KeyError(tag)

    for callback, tag in ((seen.append, "a"), (boom, "b"),
                          (seen.append, "c")):
        env.batch(0.5, callback, tag)
    with pytest.raises(KeyError):
        env.run()
    assert seen == ["a"] and env.now == 0.5
    env.run()
    assert seen == ["a", "c"] and env.pushes == 2


def test_a_popped_batch_takes_no_more_calls():
    env = CountingEnvironment()
    seen = []

    def again(tag):
        seen.append(tag)
        env.batch(0.0, seen.append, tag + "'")

    env.batch(0.0, again, "a")
    env.batch(0.0, again, "b")
    env.run()
    assert seen == ["a", "b", "a'", "b'"] and env.pushes == 2


@pytest.mark.parametrize("seed", range(10))
def test_a_shuffled_environment_keeps_a_batch_in_call_order(seed):
    """ShuffledEnvironment reorders the ties among queue entries, and a
    batch is one entry: it cannot reorder one batch's calls."""
    env = ShuffledEnvironment(seed)
    seen = []
    for tag in range(5):
        env.batch(1.0, seen.append, tag)
    env.timeout(1.0).callbacks.append(lambda _event: seen.append("t"))
    env.run()
    assert [tag for tag in seen if tag != "t"] == list(range(5))
