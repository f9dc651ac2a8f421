"""Tests for telepointers: shared cursors with throttling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SessionError
from repro.sessions import TelepointerService
from repro.sim import Environment
from tests.counting import CountingEnvironment


@pytest.fixture
def env():
    return Environment()


def test_validation(env):
    with pytest.raises(SessionError):
        TelepointerService(env, update_interval=-1)
    service = TelepointerService(env)
    with pytest.raises(SessionError):
        service.move("ghost", 1, 2)
    with pytest.raises(SessionError):
        service.position_of("ghost")
    service.join("alice")
    with pytest.raises(SessionError):
        service.join("alice")


def test_movement_reaches_colleagues(env):
    service = TelepointerService(env, update_interval=0.1, latency=0.02)
    seen = []
    service.join("alice")
    service.join("bob", on_move=lambda member, x, y: seen.append(
        (member, x, y)))
    service.move("alice", 10.0, 20.0)
    env.run(until=1.0)
    assert ("alice", 10.0, 20.0) in seen
    assert service.position_of("alice") == (10.0, 20.0)


def test_own_movements_not_echoed(env):
    service = TelepointerService(env, update_interval=0.1)
    seen = []
    service.join("alice", on_move=lambda member, x, y: seen.append(
        member))
    service.move("alice", 1.0, 1.0)
    env.run(until=1.0)
    assert seen == []


def test_throttling_coalesces_rapid_movement(env):
    """A burst of moves publishes at most one update per interval."""
    service = TelepointerService(env, update_interval=0.2, latency=0.0)
    service.join("alice")
    service.join("bob")

    def wiggle(env):
        for i in range(100):
            service.move("alice", float(i), 0.0)
            yield env.timeout(0.01)  # 100 Hz of raw movement

    env.process(wiggle(env))
    env.run(until=2.0)
    assert service.counters["moves"] == 100
    # 1 s of movement at 0.2 s interval -> ~5-6 published updates.
    assert service.counters["updates_published"] <= 8
    # The final position still gets through.
    assert service.position_of("alice")[0] >= 94.0


def test_multiple_watchers(env):
    service = TelepointerService(env, update_interval=0.05)
    seen = {"bob": [], "carol": []}
    service.join("alice")
    service.join("bob", on_move=lambda m, x, y: seen["bob"].append(m))
    service.join("carol",
                 on_move=lambda m, x, y: seen["carol"].append(m))
    service.move("alice", 5, 5)
    env.run(until=0.5)
    assert seen["bob"] == ["alice"]
    assert seen["carol"] == ["alice"]


def test_default_position(env):
    service = TelepointerService(env)
    service.join("alice")
    assert service.position_of("alice") == (0.0, 0.0)


# -- leaving -------------------------------------------------------------------

def test_leave_validation(env):
    service = TelepointerService(env)
    with pytest.raises(SessionError):
        service.leave("ghost")


def test_after_every_member_leaves_the_run_ends(env):
    """A publisher exits at its first tick after leave(), so a drained
    service no longer keeps env.run() alive; nothing reaches or names a
    member once it has left, not even its update already in flight."""
    service = TelepointerService(env, update_interval=0.1, latency=0.02)
    seen = {name: [] for name in ("alice", "bob", "carol")}
    for name, feed in seen.items():
        service.join(name, on_move=lambda member, x, y, feed=feed:
                     feed.append((env.now, member)))

    def script(env):
        for name in seen:
            service.move(name, 1.0, 1.0)
        yield env.timeout(0.11)     # published at 0.1, due at 0.12
        service.move("alice", 3.0, 3.0)
        service.move("carol", 4.0, 4.0)
        yield env.timeout(0.10)     # published at 0.2, due at 0.22
        service.leave("alice")      # alice's own update is in flight
        yield env.timeout(0.10)
        service.leave("bob")
        service.leave("carol")

    env.process(script(env))
    env.run()                       # no until: returns only if drained
    assert env.now == pytest.approx(0.4)
    assert seen["alice"] == [(pytest.approx(0.12), "bob"),
                             (pytest.approx(0.12), "carol")]
    assert seen["bob"] == [(pytest.approx(0.12), "alice"),
                           (pytest.approx(0.12), "carol"),
                           (pytest.approx(0.22), "carol")]
    assert seen["carol"] == [(pytest.approx(0.12), "alice"),
                             (pytest.approx(0.12), "bob")]
    assert service.published == {}
    with pytest.raises(SessionError):
        service.move("alice", 0, 0)


def test_rejoining_within_a_tick_leaves_one_publisher():
    env = CountingEnvironment()
    service = TelepointerService(env, update_interval=0.1, latency=0.02)
    service.join("alice")
    service.join("bob")

    def script(env):
        yield env.timeout(0.05)
        service.leave("alice")
        service.join("alice")

    env.process(script(env))
    env.run(until=0.051)
    before = env.pushes
    env.run(until=1.051)
    # Ten ticks each for bob and the one alice, the superseded alice's
    # exit at 0.1 and the until-event.
    assert env.pushes - before == 22


# -- subscribing from inside a delivery ----------------------------------------

def test_join_and_watch_from_inside_a_delivery(env):
    """A subscription made during a delivery does not receive the update
    being delivered and does receive the next."""
    service = TelepointerService(env, update_interval=0.1, latency=0.02)
    feeds = {"bob": [], "carol": [], "dave": []}

    def bob_sees(member, x, y):
        feeds["bob"].append(x)
        if x == 1.0:
            service.join("carol", on_move=lambda m, x, y:
                         feeds["carol"].append(x))
            service.watch("dave", lambda m, x, y: feeds["dave"].append(x))

    service.join("alice")
    service.join("bob", on_move=bob_sees)
    service.join("dave")

    def script(env):
        service.move("alice", 1.0, 0.0)
        yield env.timeout(0.15)
        service.move("alice", 2.0, 0.0)

    env.process(script(env))
    env.run(until=1.0)
    assert feeds == {"bob": [1.0, 2.0], "carol": [2.0], "dave": [2.0]}
    assert service.counters["deliveries"] == 4


def test_leave_from_inside_a_delivery_applies_from_the_next(env):
    service = TelepointerService(env, update_interval=0.1, latency=0.02)
    feeds = {"bob": [], "carol": []}

    def bob_sees(member, x, y):
        feeds["bob"].append(x)
        service.leave("carol")

    service.join("alice")
    service.join("bob", on_move=bob_sees)
    service.join("carol", on_move=lambda m, x, y: feeds["carol"].append(x))
    service.move("alice", 1.0, 0.0)
    env.run(until=0.05)
    service.move("alice", 2.0, 0.0)
    service.join("carol")
    env.run(until=1.0)
    assert feeds == {"bob": [1.0, 2.0], "carol": [1.0]}


# -- cost, failure, zero delay -------------------------------------------------

def _pushes(moves):
    env = CountingEnvironment()
    service = TelepointerService(env, update_interval=0.1, latency=0.02)
    for name in ("alice", "bob", "carol"):
        service.join(name, on_move=lambda member, x, y: None)

    def mover(env):
        for i in range(moves):
            service.move("alice", float(i), 0.0)
            service.move("bob", 0.0, float(i))
            yield env.timeout(0.1)

    env.process(mover(env))
    env.run(until=5.0)
    assert service.counters["updates_published"] == 2 * moves
    assert service.counters["deliveries"] == 4 * moves
    return env.pushes, env.processes


def test_a_pointer_update_costs_one_queued_event_and_no_process():
    idle_pushes, idle_processes = _pushes(0)
    # One extra tick of the mover per move, then one event per update.
    pushes, processes = _pushes(20)
    assert pushes - idle_pushes == 20 + 40
    assert processes == idle_processes == 4


def test_a_raising_on_move_callback_surfaces_from_run_and_the_run_resumes(
        env):
    service = TelepointerService(env, update_interval=0.1, latency=0.02)
    seen = []

    def bob_sees(member, x, y):
        if x == 1.0:
            raise LookupError("no such window")
        seen.append(x)

    service.join("alice")
    service.join("bob", on_move=bob_sees)
    service.join("carol", on_move=lambda m, x, y: seen.append(-x))
    service.move("alice", 1.0, 0.0)
    with pytest.raises(LookupError, match="no such window"):
        env.run(until=1.0)
    assert env.now == pytest.approx(0.02) and env.active_process is None
    service.move("alice", 2.0, 0.0)
    env.run(until=1.0)
    assert seen == [2.0, -2.0]


def test_zero_latency_delivers_at_the_same_instant_after_the_tick(env):
    service = TelepointerService(env, update_interval=0.1, latency=0.0)
    seen = []
    service.join("alice")
    service.join("bob", on_move=lambda m, x, y: seen.append(
        (env.now, service.counters["updates_published"], x)))
    service.join("carol")

    def script(env):
        yield env.timeout(0.25)
        service.move("alice", 1.0, 0.0)
        service.move("carol", 2.0, 0.0)

    env.process(script(env))
    env.run(until=1.0)
    # Both published at the 0.3 tick and both ticks had returned (2
    # published) before either was delivered, at that same instant.
    assert seen == [(pytest.approx(0.3), 2, 1.0),
                    (pytest.approx(0.3), 2, 2.0)]
    assert seen[0][0] == seen[1][0]


# -- an independent model ------------------------------------------------------
#
# The service as it was: a publisher that spawns one fire-and-forget
# generator process per update, which walks the watcher table with a
# name compare and counts each delivery.  A reference, not a second
# path.  Every instant in the scripts is a multiple of 1/64 s, so
# members publish at the same instant, deliveries tie with ticks, with
# the script's own steps and with each other, and what the watchers see
# must still be equal, in the same order.
#
# The one declared difference is at latency 0: the model delivers ahead
# of whatever else is queued for the instant (a process starts URGENT),
# the service behind it (a timeout is NORMAL) — see
# test_zero_latency_delivers_at_the_same_instant_after_the_tick.  A
# subscription made at the very instant of a tick would see that, so
# zero-latency scripts only move.

class _ModelService(TelepointerService):

    def _publisher(self, member, serial):
        while member in self._members:
            if self._dirty.get(member):
                self._dirty[member] = False
                position = self._current[member]
                self.counters.incr("updates_published")
                self.env.process(self._deliver(member, position))
            if self.update_interval > 0:
                yield self.env.timeout(self.update_interval)
            else:
                yield self.env.timeout(1e-6)

    def _deliver(self, member, position):
        if self.latency > 0:
            yield self.env.timeout(self.latency)
        self.published[member] = position
        x, y = position
        for viewer, callbacks in self._watchers.items():
            if viewer == member:
                continue
            for callback in callbacks:
                self.counters.incr("deliveries")
                callback(member, x, y)


_NAMES = ["m0", "m1", "m2", "m3", "m4"]
_TICK = 1 / 64

# Several members move at one instant (and so publish at one tick).
_MOVES = st.tuples(
    st.just("move"), st.integers(0, 6),
    st.lists(st.sampled_from(_NAMES), min_size=1, max_size=5))
_SUBSCRIPTIONS = st.tuples(
    st.sampled_from(["join", "watch"]), st.integers(0, 6),
    st.sampled_from(_NAMES))


@st.composite
def _pointer_scripts(draw):
    latency = draw(st.sampled_from([0, 1, 2, 4, 8]))
    steps = _MOVES if latency == 0 else st.one_of(_MOVES, _SUBSCRIPTIONS)
    return (draw(st.sampled_from([1, 4, 8])), latency,
            draw(st.lists(steps, min_size=1, max_size=30)))


def _feeds(service_class, interval, latency, steps):
    env = Environment()
    service = service_class(env, update_interval=interval * _TICK,
                            latency=latency * _TICK)
    feeds = {}

    def viewer(name):
        feed = feeds.setdefault(name, [])
        return lambda member, x, y: feed.append((env.now, member, x, y))

    joined = ["m0", "m1", "m2"]
    for name in joined:
        service.join(name, on_move=viewer(name))

    def script(env):
        for serial, (kind, gap, who) in enumerate(steps):
            yield env.timeout(gap * _TICK)
            if kind == "move":
                for name in who:
                    if name in joined:
                        service.move(name, float(serial), env.now)
            elif kind == "watch":
                service.watch(who, viewer(who))
            elif who not in joined:
                joined.append(who)
                service.join(who, on_move=viewer(who))

    env.process(script(env))
    env.run(until=(6 * len(steps) + 40) * _TICK)
    return feeds, dict(service.published), service.counters.as_dict()


@settings(max_examples=200, deadline=None)
@given(_pointer_scripts())
def test_service_delivers_what_the_process_per_update_model_delivers(
        script):
    assert _feeds(TelepointerService, *script) \
        == _feeds(_ModelService, *script)
