"""Flight recorder: ring bounds, epoch digests, its clock, journaling."""

import collections
import hashlib
import json
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.flight import (
    EPOCH_INTERVAL,
    NOOP_FLIGHT,
    FlightRecorder,
    _PLAIN,
    _plain_label,
    canonical,
    use_flight,
)
from repro.run import RunSpec, run, trace_digest
from repro.sim import Environment
from repro.sim.rng import RandomStreams


def _clocked(recorder):
    """Attach ``recorder`` to a fresh stub clock at 0.0; the clock."""
    clock = SimpleNamespace(now=0.0)
    recorder.attach(clock)
    return clock


def _feed(recorder, draws):
    """One draw per 0.125 s of a stub clock: four per epoch."""
    clock = _clocked(recorder)
    for index in range(draws):
        clock.now = index * 0.125
        recorder.record_rng("s", "random", index)


# -- ring bounds and counters ----------------------------------------------


def test_ring_is_bounded_and_counts_evictions():
    recorder = FlightRecorder(ring=8)
    _feed(recorder, 20)
    assert len(recorder.ring) == 8
    assert recorder.recorded == 20
    assert recorder.evicted == 12
    # The ring holds the *newest* records.
    assert [r["value"] for r in recorder.ring] \
        == [repr(index) for index in range(12, 20)]


def test_validation():
    with pytest.raises(ValueError):
        FlightRecorder(ring=0)


# -- epoch digests ---------------------------------------------------------


def test_finish_closes_the_partial_epoch_once():
    recorder = FlightRecorder()
    _feed(recorder, 10)
    assert recorder.epoch == 2          # two closed, one partial
    assert recorder.finish() == 3
    assert recorder.finish() == 3       # idempotent


def test_epoch_interval_rolls_at_time_boundaries():
    assert EPOCH_INTERVAL == 0.5
    recorder = FlightRecorder()
    clock = _clocked(recorder)
    for time in [0.1, 0.25, 0.6, 0.95, 1.75]:
        clock.now = time
        recorder.record_rng("s", "random", time)
    # t=0.6 passed boundary 1; t=1.75 passed boundaries 2 and 3.
    assert recorder.epoch == 3
    epochs = [r["epoch"] for r in recorder.ring]
    assert epochs == [0, 0, 1, 1, 3]
    # Boundaries the clock passes after the last record close (empty)
    # epochs too, once somebody looks.
    clock.now = 2.5
    assert recorder.epoch == 5
    recorder.finish()
    assert len(recorder.epoch_digests) == 5


def test_digests_chain_prefix_property():
    # Identical prefixes hash identically; appending records changes
    # only subsequent epochs.
    short = FlightRecorder()
    long = FlightRecorder()
    _feed(short, 8)
    _feed(long, 12)
    short.finish()
    long.finish()
    assert short.epoch_digests[:2] == long.epoch_digests[:2]
    assert len(long.epoch_digests) == 3


def test_digests_stable_across_retention_settings():
    # Digests cover the whole run regardless of how little the ring
    # retains — divergence compares digests from tiny-ring runs.
    variants = [
        FlightRecorder(ring=2),
        FlightRecorder(ring=4096),
        FlightRecorder(ring=4096, keep_epochs=(1, 1)),
    ]
    for recorder in variants:
        _feed(recorder, 10)
        recorder.finish()
    digests = {tuple(recorder.epoch_digests) for recorder in variants}
    assert len(digests) == 1


def test_digests_differ_on_injected_fork():
    run_a = FlightRecorder()
    run_b = FlightRecorder()
    _feed(run_a, 10)
    clock = _clocked(run_b)
    for index in range(10):
        clock.now = index * 0.125
        run_b.record_rng("s", "random", index)
        if index == 6:                  # one extra draw in epoch 1
            run_b.record_rng("s", "random", 0.123)
    run_a.finish()
    run_b.finish()
    assert run_a.epoch_digests[0] == run_b.epoch_digests[0]
    assert run_a.epoch_digests[1] != run_b.epoch_digests[1]


# -- the clock -------------------------------------------------------------


def test_a_run_that_journals_nothing_never_calls_the_recorder():
    # A per-event hook would be called once per dispatched event.
    calls = []

    class Watched(FlightRecorder):
        def __getattribute__(self, name):
            value = object.__getattribute__(self, name)
            if name.startswith("__") or not callable(value):
                return value

            def counted(*args, **kwargs):
                calls.append(name)
                return value(*args, **kwargs)
            return counted

    recorder = Watched()
    with use_flight(recorder):
        env = Environment()
    env.run()               # attaches: the recorder reads env's clock
    calls.clear()
    for index in range(100):
        env.timeout(index * 0.25)
    env.run()
    assert (env.events_processed, calls) == (100, [])
    # The boundaries the run passed are rolled when somebody looks.
    assert recorder.epoch == 49


def test_records_while_a_second_env_is_built_carry_the_first_ones_instant():
    # Until the second environment runs, the recorder reads the first
    # one's clock; the fuzz-reg-900641c7b37b pin in seed_digests.json
    # depends on it.
    recorder = FlightRecorder()
    with use_flight(recorder):
        first = Environment()
        first.timeout(1.75)
        first.run()
        second = Environment()
        streams = RandomStreams(1)
        streams.stream("build").random()
        second.timeout(0.25)
        second.step()
        streams.stream("run").random()
    assert [(r["kind"], r["stream"], r["time"], r["epoch"])
            for r in recorder.ring] \
        == [("rng", "build", 1.75, 3), ("rng", "run", 0.25, 3)]


def test_a_clock_at_infinity_passes_no_boundary():
    # run(until=inf) leaves the clock at infinity; rolling "every
    # boundary it has passed" there would never end.
    recorder = FlightRecorder()
    with use_flight(recorder):
        env = Environment()
    env.timeout(0.25)
    env.run(until=float("inf"))
    recorder.record_spawn("late")
    assert recorder.finish() == 1
    assert recorder.ring[0]["time"] == float("inf")


class _EagerJournal:
    """The reference: one dict, one ``json.dumps`` and one hash update
    per record, in the order they happen, each record first rolling the
    boundaries its clock has passed — what :class:`FlightRecorder`
    (which buffers an epoch and folds it in one pass) must be
    indistinguishable from, whenever and however it is read."""

    def __init__(self, ring=4096, keep_epochs=None, context=64):
        self.keep = keep_epochs
        self.ring = collections.deque(maxlen=ring)
        self.context = collections.deque(maxlen=context)
        self.epoch_digests = []
        self.recorded = self.evicted = self.epoch = self.open = 0
        self.hash = hashlib.sha256()
        self.env, self.boundary, self.finished = None, 1, False

    def tick(self):
        """Roll the boundaries the attached clock has passed; its time."""
        now = 0.0 if self.env is None else self.env.now
        while self.boundary * EPOCH_INTERVAL <= now < float("inf"):
            self.roll()
            self.boundary += 1
        return now

    def attach(self, env):
        self.tick()
        self.env = env

    def add(self, kind, side=None, **fields):
        record = dict(kind=kind, time=self.tick(), **fields)
        if side is not None:
            record.update(_trace=side[0], _span=side[1], _op=side[2])
        record["epoch"] = self.epoch
        self.recorded += 1
        self.open += 1
        self.hash.update(json.dumps(
            {k: v for k, v in record.items() if k[0] != "_"},
            sort_keys=True, separators=(",", ":")).encode())
        if self.keep is not None and self.epoch < self.keep[0]:
            self.context.append(record)
        elif self.keep is None or self.epoch <= self.keep[1]:
            self.evicted += len(self.ring) == self.ring.maxlen
            self.ring.append(record)

    def roll(self):
        self.epoch_digests.append(self.hash.hexdigest())
        self.hash = hashlib.sha256(self.epoch_digests[-1].encode())
        self.epoch += 1
        self.open = 0

    def record_rng(self, stream, method, value):
        self.add("rng", stream=stream, method=method, value=repr(value))

    def record_hop(self, link, node, src, dst, port, transit=None):
        self.add("hop", _side_of(transit), link=link, node=node, src=src,
                 dst=dst, port=port)

    def record_drop(self, reason, link, src, dst, port, span=None):
        self.add("drop", _side_of(span), reason=reason, link=link,
                 src=src, dst=dst, port=port)

    def record_lock(self, event, key, owner, mode, style, span=None):
        self.add("lock", _side_of(span), event=event, key=key,
                 owner=owner, mode=mode, style=style)

    def record_spawn(self, actor):
        self.add("spawn", actor=actor)

    def record_exit(self, actor, ok):
        self.add("exit", actor=actor, ok=bool(ok))

    def finish(self):
        if not self.finished:
            self.tick()
            if self.open:
                self.roll()
        self.finished = True
        return len(self.epoch_digests)


def _side_of(span):
    if span is not None and span.is_recording:
        return span.trace_id, span.span_id, span.name
    return None


def _assert_same(recorder, model):
    """Everything a reader can see; text-compared so that ``0.0`` vs
    ``-0.0`` and ``1`` vs ``1.0`` (equal as values) cannot hide.  Every
    reader catches up with the clock first, so the model does too."""
    model.tick()
    assert recorder.epoch_digests == model.epoch_digests
    assert recorder.epoch == model.epoch
    for mine, theirs in ((recorder.ring, model.ring),
                         (recorder.context, model.context)):
        assert [json.dumps(r, sort_keys=True) for r in mine] \
            == [json.dumps(r, sort_keys=True) for r in theirs]
    assert recorder.recorded == model.recorded
    assert recorder.evicted == model.evicted
    assert len(recorder) == len(model.ring)


def _exercise(recorder, streams=("s", 'we"ird\\')):
    clock = _clocked(recorder)
    times = [0, 1, 0.1, 1.5e-9, 123.45678901234567, 2.0 ** -40]
    for index, time in enumerate(times):
        clock.now = time
        for stream in streams:
            recorder.record_rng(stream, "random", 0.5 + index)
            recorder.record_rng(stream, "getrandbits", index * 7)
        recorder.record_hop("a<->b", "a", "a", "b", 9)
        recorder.record_hop('q"\\uote', "a", "a", "b", 9)
    recorder.finish()


def test_fast_path_canonical_matches_generic_encoder():
    # The hot channels (rng/hop) hash hand-formatted canonical forms
    # instead of json.dumps; they must stay byte-identical to the
    # generic encoder for ints, floats, plain strings AND fall back
    # correctly on strings needing JSON escapes.
    fast = FlightRecorder()
    slow = _EagerJournal()
    _exercise(fast)
    _exercise(slow)
    _assert_same(fast, slow)
    for record in fast.ring:
        assert json.loads(canonical(record)) == record


def test_labels_needing_escapes_take_the_generic_encoder():
    # More distinct labels than the plain-label table holds, every
    # third one needing a JSON escape, each seen twice (a miss, then —
    # for the recent ones — a hit): the table must never let an
    # escaped label through to the hand-formatted form.
    labels = ["n{}".format(i) if i % 3 else 'n"{}\\'.format(i)
              for i in range(_plain_label.cache_info().maxsize + 50)]
    fast = FlightRecorder(ring=8)
    slow = _EagerJournal(ring=8)
    for recorder in (fast, slow):
        clock = _clocked(recorder)
        for index, label in enumerate(labels + labels[-20:]):
            clock.now = index * 0.03125
            recorder.record_hop(label, "a", label, "b", 9)
            recorder.record_rng(label, "random", 0.25)
        recorder.finish()
    _assert_same(fast, slow)
    assert not _plain_label('n"0\\') and _plain_label("n1")
    for value in (7, -7, 0.5, -0.0, 1e300, 1e-300, float("inf"),
                  float("nan"), 2 ** 70):
        assert _PLAIN(repr(value))      # why record_rng skips the check


class _Span:
    is_recording = True
    trace_id, span_id, name = "t1", "s1", "net.transmit"
    trace_no, span_no = 1, 1


class _SampledOutSpan(_Span):
    is_recording = False


# Bounded: a recorder closes one epoch per boundary its clock passes.
_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, 0.1, 1.5e-9, 0.5, 2.5, 7,
                     45.678901234567891]),
    st.floats(min_value=-1.0, max_value=50.0))
_LABELS = st.one_of(
    st.sampled_from(["a", "n1", "n1<->n2", 'q"uote', "back\\slash",
                     "caf\u00e9", "tab\t", ""]),
    st.text(max_size=6))
_SPANS = st.sampled_from([None, _Span(), _SampledOutSpan()])
# A hop journals its transit when that is recording, else None.
_TRANSITS = st.sampled_from([None, _Span()])
_VALUES = st.one_of(st.integers(), st.floats(), st.booleans(),
                    st.none(), st.text(max_size=4),
                    st.lists(st.integers(), max_size=2))
_SMALL = st.integers(0, 9)
_CLOCK = st.integers(0, 1)
_STEPS = st.one_of(
    st.tuples(st.just("tick"), _CLOCK, _TIMES),
    st.tuples(st.just("tick"), _CLOCK, _TIMES),
    st.tuples(st.just("attach"), _CLOCK),
    st.tuples(st.just("record_rng"), _LABELS, _LABELS, _VALUES),
    st.tuples(st.just("record_hop"), _LABELS, _LABELS, _LABELS, _LABELS,
              _SMALL, _TRANSITS),
    st.tuples(st.just("record_drop"), _LABELS,
              st.one_of(st.none(), _LABELS), _LABELS, _LABELS, _SMALL,
              _SPANS),
    st.tuples(st.just("record_lock"), _LABELS, _LABELS, _LABELS, _LABELS,
              _LABELS, _SPANS),
    st.tuples(st.just("record_spawn"), _LABELS),
    st.tuples(st.just("record_exit"), _LABELS, st.booleans()),
    st.just(("read",)))
_CONFIGS = st.fixed_dictionaries({
    "ring": st.integers(1, 40),
    "context": st.integers(1, 5),
    "keep_epochs": st.one_of(st.none(), st.tuples(
        st.integers(0, 4), st.integers(0, 4)).map(sorted).map(tuple))})


@settings(max_examples=200, deadline=None)
@given(config=_CONFIGS, steps=st.lists(_STEPS, min_size=10, max_size=100),
       read_every_step=st.booleans())
@example(   # a label ending in a newline is not plain: JSON escapes it
    config={"ring": 1, "context": 1, "keep_epochs": None},
    steps=[("attach", 0), ("tick", 0, 0.5)]
    + [("record_rng", "a", "a", None)] * 7
    + [("record_rng", "a", "\n", None)],
    read_every_step=False)
def test_folding_is_indistinguishable_from_eager_journalling(
        config, steps, read_every_step):
    # Random interleavings of every channel, two stub clocks moved
    # across epoch boundaries and handed over between, with reads
    # wherever they fall: after every step, or only at the drawn "read"
    # steps — so the buffer folded at a roll or a read holds anything
    # from one record to several times the ring.
    clocks = [SimpleNamespace(now=0.0), SimpleNamespace(now=0.0)]
    fast, slow = FlightRecorder(**config), _EagerJournal(**config)
    for step in steps:
        if step[0] == "tick":
            clocks[step[1]].now = step[2]
        elif step[0] == "attach":
            for recorder in (fast, slow):
                recorder.attach(clocks[step[1]])
        elif step[0] != "read":
            for recorder in (fast, slow):
                getattr(recorder, step[0])(*step[1:])
        if read_every_step or step[0] == "read":
            _assert_same(fast, slow)
            assert fast.epoch_records(slow.epoch) == [
                r for r in slow.ring if r["epoch"] == slow.epoch]
    assert fast.finish() == slow.finish()
    _assert_same(fast, slow)
    assert fast.finish() == slow.finish()
    _assert_same(fast, slow)


def test_side_fields_do_not_influence_digests():
    plain = FlightRecorder()
    traced = FlightRecorder()
    plain.record_hop("l", "n", "a", "b", 7)
    traced.record_hop("l", "n", "a", "b", 7, transit=_Span())
    plain.finish()
    traced.finish()
    assert plain.epoch_digests == traced.epoch_digests
    record = list(traced.ring)[0]
    assert record["_trace"] == "t1"
    assert "_trace" not in json.loads(canonical(record))


# -- keep_epochs / context -------------------------------------------------


def test_keep_epochs_restricts_ring_and_fills_context():
    recorder = FlightRecorder(keep_epochs=(1, 1), context=3)
    _feed(recorder, 12)
    recorder.finish()
    assert [r["epoch"] for r in recorder.ring] == [1] * 4
    assert [r["value"] for r in recorder.context] == ["1", "2", "3"]
    assert recorder.epoch_records(1) == list(recorder.ring)
    assert len(recorder.epoch_digests) == 3


def _mixed(recorder):
    """Per 0.25 s of a stub clock, one of each record shape: a traced
    and an untraced hop, an rng draw, a drop (a built dict) and a hop
    whose label JSON escapes (a built dict with side fields)."""
    clock = _clocked(recorder)
    for index in range(8):
        clock.now = index * 0.25
        recorder.record_hop("a<->b", "a", "a", "b", index, transit=_Span())
        recorder.record_hop("b<->c", "b", "a", "c", index)
        recorder.record_rng("s", "random", index / 4)
        recorder.record_drop("loss", "b<->c", "a", "c", index, span=_Span())
        recorder.record_hop('q"uote', "c", "a", "c", index, transit=_Span())
    recorder.finish()


def _hop(time, epoch, link, node, src, dst, port, traced):
    record = {"kind": "hop", "time": time, "link": link, "node": node,
              "src": src, "dst": dst, "port": port, "epoch": epoch}
    if traced:
        record.update(_trace="t1", _span="s1", _op="net.transmit")
    return record


def _expected(index):
    """The five records ``_mixed`` journals at step ``index``, as the
    tuple-per-record journal read them back."""
    time, epoch = index * 0.25, index // 2
    return [
        _hop(time, epoch, "a<->b", "a", "a", "b", index, True),
        _hop(time, epoch, "b<->c", "b", "a", "c", index, False),
        {"kind": "rng", "time": time, "stream": "s", "method": "random",
         "value": repr(index / 4), "epoch": epoch},
        {"kind": "drop", "time": time, "reason": "loss", "link": "b<->c",
         "src": "a", "dst": "c", "port": index, "_trace": "t1",
         "_span": "s1", "_op": "net.transmit", "epoch": epoch},
        {"kind": "hop", "time": time, "link": 'q"uote', "node": "c",
         "src": "a", "dst": "c", "port": index, "_trace": "t1",
         "_span": "s1", "_op": "net.transmit", "epoch": epoch}]


def test_a_flat_journal_reads_back_each_record_as_it_was_given():
    # Fixed-width fields under ring eviction (a ring of 7 records keeps
    # the last one and a half steps) and under keep_epochs with context
    # read back as the records they were: same dicts, same key order.
    every = [record for index in range(8) for record in _expected(index)]
    evicting = FlightRecorder(ring=7)
    _mixed(evicting)
    assert [list(r.items()) for r in evicting.ring] \
        == [list(r.items()) for r in every[-7:]]
    assert (evicting.recorded, evicting.evicted, len(evicting)) \
        == (40, 33, 7)
    assert evicting.epoch_records(3) == every[-7:]
    kept = FlightRecorder(keep_epochs=(2, 2), context=6)
    _mixed(kept)
    assert kept.ring == every[20:30] == kept.epoch_records(2)
    assert kept.context == every[14:20]
    assert (kept.recorded, kept.evicted, len(kept)) == (40, 0, 10)
    assert kept.epoch_digests == evicting.epoch_digests


# -- journaling a real workload --------------------------------------------


@pytest.mark.parametrize("name", ["locks-hard", "flaky-links",
                                  "traced-rpc"])
def test_recorder_never_perturbs_workload(name):
    baseline = trace_digest(run(RunSpec(name, 31)).outcome)
    recorder = FlightRecorder()
    observed = trace_digest(
        run(RunSpec(name, 31, journal=recorder)).outcome)
    assert observed == baseline
    assert recorder.recorded > 0
    assert len(recorder.epoch_digests) >= 1


def test_same_seed_runs_journal_identically():
    digests = []
    for _ in range(2):
        recorder = FlightRecorder(ring=16)
        run(RunSpec("locks-hard", 31, journal=recorder))
        digests.append(recorder.epoch_digests)
    assert digests[0] == digests[1]


def test_workload_journal_covers_all_channels():
    recorder = FlightRecorder(ring=1 << 16)
    run(RunSpec("locks-hard", 31, journal=recorder))
    kinds = {record["kind"] for record in recorder.ring}
    assert {"rng", "lock", "spawn", "exit"} <= kinds
    assert kinds <= {"rng", "hop", "drop", "lock", "spawn", "exit"}


def test_journalled_rng_draws_match_plain_rng():
    import random

    from repro.sim.rng import RandomStreams

    plain = RandomStreams(77).stream("s")
    recorder = FlightRecorder(ring=64)
    with use_flight(recorder):
        journalled = RandomStreams(77).stream("s")
    sequence = [journalled.random(), journalled.getrandbits(16),
                journalled.randrange(10), journalled.gauss(0, 1),
                journalled.choice([1, 2, 3])]
    expected = [plain.random(), plain.getrandbits(16),
                plain.randrange(10), plain.gauss(0, 1),
                plain.choice([1, 2, 3])]
    assert sequence == expected
    assert isinstance(plain, random.Random)
    assert recorder.recorded > 0
    assert all(r["stream"] == "s" for r in recorder.ring)


# -- the process-wide default ----------------------------------------------


def test_noop_flight_is_inert_default():
    assert obs.get_flight() is NOOP_FLIGHT
    assert not NOOP_FLIGHT.enabled
    NOOP_FLIGHT.record_rng("s", "random", 0.5)
    assert NOOP_FLIGHT.finish() == 0
    assert len(NOOP_FLIGHT) == 0


def test_use_flight_scopes_and_restores():
    recorder = FlightRecorder()
    with use_flight(recorder):
        assert obs.get_flight() is recorder
    assert obs.get_flight() is NOOP_FLIGHT
