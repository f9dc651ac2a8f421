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
from repro.net.link import Channel
from repro.sim import Environment, Event, Store, Timeout
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
    """Each item reaches the waiting consumer at the instant it is put,
    and a put queues no event of its own: the run's events are the
    processes' own (two starts, three timeouts, three takes, two
    exits)."""
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
    assert env.events_processed == env.events_scheduled == 10


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
