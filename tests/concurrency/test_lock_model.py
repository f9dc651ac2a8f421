"""The lock table against the one it replaced.

``tests/concurrency/lock_model.py`` keeps the old ``LockTable``: a
registry lookup per ``lock.wait`` record, un-gated sanitizer hooks, a
conflict refresh on every release, ``all(<genexpr>)`` compatibility and
a ``Counter.incr`` call per count.
Both tables are driven, in every style, with the same random script of
acquires (shared and exclusive, several owners, two keys), releases —
of live, released and revoked grants alike — upgrades, withdrawn
waits, touches and write notifications, with runs of steps at one
instant between advances of the clock.  Every returned value, grant
order and grant instant, ``revoked``/``conflicting`` flag, callback,
``counters.as_dict()``, ``lock.wait`` value, lock-journal record of the
flight recorder and (when on) sanitizer clock must be equal in the two
worlds, and the new table must look its histogram up once.  Both run
again with their ties in two seeded random orders, where all of it must
still be equal.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.analysis.hb import NOOP_SANITIZER, ConflictSanitizer, use_sanitizer
from repro.concurrency.locks import EXCLUSIVE, SHARED, STYLES, LockTable
from repro.errors import LockError
from repro.obs.flight import FlightRecorder, use_flight
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.sim import Environment

from tests.concurrency import lock_model as model
from tests.counting import ShuffledEnvironment
from tests.lockstep import lockstep

OWNERS = ("ann", "bob", "cat", "dan")
KEYS = ("a", "b")

_PICK = st.integers(0, 1000)
_KEY = st.sampled_from(KEYS)
_OWNER = st.sampled_from(OWNERS)
_ACQUIRE = st.tuples(st.just("acquire"), _KEY, _OWNER,
                     st.sampled_from([SHARED, EXCLUSIVE]))
_STEPS = st.one_of(
    _ACQUIRE, _ACQUIRE, _ACQUIRE,
    *[st.tuples(st.just(kind), _PICK)
      for kind in ("release", "release", "upgrade", "cancel", "touch")],
    st.tuples(st.just("notify"), _KEY, _OWNER),
    # Steps between two advances are tied at one instant.
    st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 2.5])))


class _World:
    """One table, its clock, flight recorder, registry and sanitizer, and
    what the script has asked of it."""

    def __init__(self, table_cls, style, sanitized, env_cls):
        self.flight = FlightRecorder(ring=1 << 16)
        self.metrics = MetricsRegistry()
        self.sanitizer = ConflictSanitizer() if sanitized else NOOP_SANITIZER
        # The environment keeps these; the two worlds then step in turn
        # with no scope around either.
        with use_flight(self.flight), use_metrics(self.metrics), \
                use_sanitizer(self.sanitizer):
            self.env = env_cls()
        self.table = table = table_cls(self.env, style=style,
                                       tickle_grace=1.0)
        self.style = style
        self.drained = False
        self.log = []
        self.requests = []
        table.on_takeover = lambda grant, taker: self.log.append(
            ("takeover", grant.grant_id, taker, self.env.now))
        table.on_conflict = lambda grant, other: self.log.append(
            ("conflict", grant.grant_id, other, self.env.now))
        for key in KEYS:
            table.watch(key, lambda key, writer, kind: self.log.append(
                ("watch", key, writer, kind, self.env.now)))

    def request(self, event):
        index = len(self.requests)
        self.requests.append(event)
        event.callbacks.append(lambda event: self.log.append(
            ("granted", index, event.value.grant_id, self.env.now)))
        return index, event.triggered

    def grants(self):
        """Every grant ever handed out, in issue order."""
        seen = {}
        for event in self.requests:
            if event.triggered:
                seen.setdefault(event.value.grant_id, event.value)
        return [seen[grant_id] for grant_id in sorted(seen)]

    def step(self, step):
        kind, table = step[0], self.table
        if kind == "acquire":
            return self.request(table.acquire(*step[1:]))
        if kind == "advance":
            self.env.run(until=self.env.now + step[1])
            return self.env.now
        if kind == "drain":     # what only the end of the run shows
            self.drained = True
            self.env.run()
            return self.env.now
        if kind == "notify":
            return table.notify_write(*step[1:])
        if kind == "cancel":
            pending = [event for event in self.requests
                       if not event.triggered]
            if not pending:
                return None
            event = pending[step[1] % len(pending)]
            return [table.cancel_wait(key, event) for key in KEYS]
        grants = self.grants()
        if not grants:
            return None
        grant = grants[step[1] % len(grants)]
        if kind == "touch":
            grant.touch()
            return grant.grant_id
        try:
            if kind == "release":
                return table.release(grant)
            return self.request(table.upgrade(grant))
        except LockError as error:
            return str(error)

    def observe(self):
        table, metrics = self.table, self.metrics
        seen = {"state": (
            self.env.now, self.log,
            [(grant.grant_id, grant.key, grant.owner, grant.mode,
              grant.granted_at, grant.last_activity, grant.revoked,
              grant.conflicting) for grant in self.grants()],
            [event.triggered for event in self.requests],
            {key: ([grant.grant_id for grant in table.holders(key)],
                   table.queue_length(key)) for key in KEYS}),
            "counters": table.counters.as_dict()}
        if self.drained:
            seen.update(
                histograms=metrics.histograms(),
                wait=metrics.histogram("lock.wait",
                                       style=self.style).values,
                journal=[record for record in self.flight.ring
                         if record["kind"] == "lock"],
                clocks={owner: self.sanitizer.clock(owner)
                        for owner in OWNERS})
        return seen


def _lockstep(style, sanitized, steps, env_cls=Environment):
    # One histogram lookup: at the first record, the first acquire's.
    new = _World(LockTable, style, sanitized, env_cls)
    lockstep(new, _World(model.LockTable, style, sanitized, env_cls),
             steps + [("drain",)],
             budget=(new.metrics, "histogram", lambda world, step: int(
                 step[0] == "acquire" and not world.requests)))


@pytest.mark.parametrize("style", STYLES)
@settings(max_examples=120)
@given(st.booleans(), st.lists(_STEPS, min_size=20, max_size=80))
def test_the_table_does_what_the_old_table_does(style, sanitized, steps):
    _lockstep(style, sanitized, steps)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("style", STYLES)
@settings(max_examples=15)
@given(st.booleans(), st.lists(_STEPS, min_size=20, max_size=80))
def test_ties_in_any_order_leave_the_tables_equal(style, seed, sanitized,
                                                  steps):
    _lockstep(style, sanitized, steps,
              functools.partial(ShuffledEnvironment, seed))
