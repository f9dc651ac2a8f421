"""Flight recorder: ring bounds, epoch digests, journaling."""

import collections
import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.flight import (
    NOOP_FLIGHT,
    FlightRecorder,
    _PLAIN,
    _plain_label,
    canonical,
    use_flight,
)
from repro.run import RunSpec, run, trace_digest


def _feed(recorder, dispatches, rng_every=None):
    """Feed a deterministic synthetic stream of kernel decisions."""
    for eid in range(dispatches):
        recorder.on_dispatch(float(eid), 0, eid)
        if rng_every and eid % rng_every == 0:
            recorder.record_rng("s", "random", 0.5)


# -- ring bounds and counters ----------------------------------------------


def test_ring_is_bounded_and_counts_evictions():
    recorder = FlightRecorder(ring=8, epoch_events=1000)
    _feed(recorder, 20)
    assert len(recorder.ring) == 8
    assert recorder.recorded == 20
    assert recorder.evicted == 12
    # The ring holds the *newest* records.
    assert [r["eid"] for r in recorder.ring] == list(range(12, 20))


def test_validation():
    with pytest.raises(ValueError):
        FlightRecorder(ring=0)
    with pytest.raises(ValueError):
        FlightRecorder(epoch_events=0)
    with pytest.raises(ValueError):
        FlightRecorder(epoch_interval=0.0)
    with pytest.raises(ValueError):
        FlightRecorder(epoch_events=10, epoch_interval=1.0)


# -- epoch digests ---------------------------------------------------------


def test_epoch_rolls_every_n_events():
    recorder = FlightRecorder(epoch_events=4)
    _feed(recorder, 10)
    assert recorder.epoch == 2          # two closed, one partial
    assert recorder.finish() == 3
    assert recorder.finish() == 3       # idempotent


def test_epoch_interval_rolls_at_time_boundaries():
    recorder = FlightRecorder(epoch_interval=1.0)
    for eid, time in enumerate([0.1, 0.5, 1.2, 1.9, 3.5]):
        recorder.on_dispatch(time, 0, eid)
    # t=1.2 crossed boundary 1; t=3.5 crossed boundaries 2 and 3.
    assert recorder.epoch == 3
    epochs = [r["epoch"] for r in recorder.ring]
    assert epochs == [0, 0, 1, 1, 3]
    recorder.finish()
    assert len(recorder.epoch_digests) == 4


def test_digests_chain_prefix_property():
    # Identical prefixes hash identically; appending records changes
    # only subsequent epochs.
    short = FlightRecorder(epoch_events=4)
    long = FlightRecorder(epoch_events=4)
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
        FlightRecorder(ring=2, epoch_events=4),
        FlightRecorder(ring=4096, epoch_events=4),
        FlightRecorder(ring=4096, epoch_events=4, keep_epochs=(1, 1)),
    ]
    for recorder in variants:
        _feed(recorder, 10, rng_every=3)
        recorder.finish()
    digests = {tuple(recorder.epoch_digests) for recorder in variants}
    assert len(digests) == 1


def test_digests_differ_on_injected_fork():
    run_a = FlightRecorder(epoch_events=4)
    run_b = FlightRecorder(epoch_events=4)
    _feed(run_a, 10)
    for eid in range(10):
        run_b.on_dispatch(float(eid), 0, eid)
        if eid == 6:                    # one extra draw in epoch 1
            run_b.record_rng("s", "random", 0.123)
    run_a.finish()
    run_b.finish()
    assert run_a.epoch_digests[0] == run_b.epoch_digests[0]
    assert run_a.epoch_digests[1] != run_b.epoch_digests[1]


class _EagerJournal:
    """The reference: one dict, one ``json.dumps`` and one hash update
    per record, in the order they happen — what :class:`FlightRecorder`
    (which buffers an epoch and folds it in one pass) must be
    indistinguishable from, whenever and however it is read."""

    def __init__(self, ring=4096, epoch_events=None, epoch_interval=None,
                 keep_epochs=None, context=64):
        self.events = epoch_events if epoch_interval is None \
            else None
        if self.events is None and epoch_interval is None:
            self.events = 512
        self.interval, self.keep = epoch_interval, keep_epochs
        self.ring = collections.deque(maxlen=ring)
        self.context = collections.deque(maxlen=context)
        self.epoch_digests = []
        self.recorded = self.evicted = self.epoch = 0
        self.hash = hashlib.sha256()
        self.open = self.dispatches = 0
        self.boundary, self.time, self.finished = 1, 0.0, False

    def add(self, kind, span=None, **fields):
        record = dict(kind=kind, time=self.time, **fields)
        if span is not None and span.is_recording:
            record.update(_trace=span.trace_id, _span=span.span_id,
                          _op=span.name)
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
        self.open = self.dispatches = 0

    def on_dispatch(self, time, priority, eid):
        while self.interval is not None \
                and time >= self.boundary * self.interval:
            self.roll()
            self.boundary += 1
        self.time = time
        self.add("dispatch", eid=eid, priority=priority)
        if self.events is not None:
            self.dispatches += 1
            if self.dispatches >= self.events:
                self.roll()

    def record_rng(self, stream, method, value):
        self.add("rng", stream=stream, method=method, value=repr(value))

    def record_hop(self, link, node, src, dst, port, span=None):
        self.add("hop", span, link=link, node=node, src=src, dst=dst,
                 port=port)

    def record_drop(self, reason, link, src, dst, port, span=None):
        self.add("drop", span, reason=reason, link=link, src=src,
                 dst=dst, port=port)

    def record_lock(self, event, key, owner, mode, style, span=None):
        self.add("lock", span, event=event, key=key, owner=owner,
                 mode=mode, style=style)

    def record_spawn(self, actor):
        self.add("spawn", actor=actor)

    def record_exit(self, actor, ok):
        self.add("exit", actor=actor, ok=bool(ok))

    def finish(self):
        if not self.finished and (self.open or self.dispatches):
            self.roll()
        self.finished = True
        return len(self.epoch_digests)


def _assert_same(recorder, model):
    """Everything a reader can see; text-compared so that ``0.0`` vs
    ``-0.0`` and ``1`` vs ``1.0`` (equal as values) cannot hide."""
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
    times = [0, 1, 0.1, 1.5e-9, 12345.678901234567, 2.0 ** 40]
    for eid, time in enumerate(times):
        recorder.on_dispatch(time, eid % 3, eid)
        for stream in streams:
            recorder.record_rng(stream, "random", 0.5 + eid)
            recorder.record_rng(stream, "getrandbits", eid * 7)
        recorder.record_hop("a<->b", "a", "a", "b", 9)
        recorder.record_hop('q"\\uote', "a", "a", "b", 9)
    recorder.finish()


def test_fast_path_canonical_matches_generic_encoder():
    # The hot channels (dispatch/rng/hop) hash hand-formatted canonical
    # forms instead of json.dumps; they must stay byte-identical to the
    # generic encoder for ints, floats, plain strings AND fall back
    # correctly on strings needing JSON escapes.
    fast = FlightRecorder(epoch_events=3)
    slow = _EagerJournal(epoch_events=3)
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
    fast = FlightRecorder(ring=8, epoch_events=64)
    slow = _EagerJournal(ring=8, epoch_events=64)
    for recorder in (fast, slow):
        for eid, label in enumerate(labels + labels[-20:]):
            recorder.on_dispatch(eid * 0.5, 1, eid)
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


class _SampledOutSpan(_Span):
    is_recording = False


# Bounded: an ``epoch_interval`` recorder closes one epoch per boundary
# a dispatch crosses.
_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, 0.1, 1.5e-9, 2.5, 7,
                     45.678901234567891]),
    st.floats(min_value=-1.0, max_value=50.0))
_LABELS = st.one_of(
    st.sampled_from(["a", "n1", "n1<->n2", 'q"uote', "back\\slash",
                     "caf\u00e9", "tab\t", ""]),
    st.text(max_size=6))
_SPANS = st.sampled_from([None, _Span(), _SampledOutSpan()])
_VALUES = st.one_of(st.integers(), st.floats(), st.booleans(),
                    st.none(), st.text(max_size=4),
                    st.lists(st.integers(), max_size=2))
_SMALL = st.integers(0, 9)
_STEPS = st.one_of(
    st.tuples(st.just("on_dispatch"), _TIMES, _SMALL, st.integers(0)),
    st.tuples(st.just("on_dispatch"), _TIMES, _SMALL, st.integers(0)),
    st.tuples(st.just("record_rng"), _LABELS, _LABELS, _VALUES),
    st.tuples(st.just("record_hop"), _LABELS, _LABELS, _LABELS, _LABELS,
              _SMALL, _SPANS),
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
        st.integers(0, 4), st.integers(0, 4)).map(sorted).map(tuple)),
    "epoch": st.one_of(
        st.tuples(st.just("epoch_events"), st.integers(1, 50)),
        st.tuples(st.just("epoch_interval"),
                  st.sampled_from([0.25, 1.0, 1000.0])))})


@settings(max_examples=200, deadline=None)
@given(config=_CONFIGS, steps=st.lists(_STEPS, min_size=10, max_size=100),
       read_every_step=st.booleans())
@example(   # a label ending in a newline is not plain: JSON escapes it
    config={"ring": 1, "context": 1, "keep_epochs": None,
            "epoch": ("epoch_events", 1)},
    steps=[("on_dispatch", 0.0, 0, 0)] * 9
    + [("record_rng", "a", "\n", None)],
    read_every_step=False)
def test_folding_is_indistinguishable_from_eager_journalling(
        config, steps, read_every_step):
    # Random interleavings of every channel, with reads wherever they
    # fall: after every step, or only at the drawn "read" steps — so
    # the buffer folded at a roll or a read holds anything from one
    # record to several times the ring.
    config = dict(config)
    name, value = config.pop("epoch")
    config[name] = value
    fast, slow = FlightRecorder(**config), _EagerJournal(**config)
    for step in steps:
        if step[0] != "read":
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
    plain = FlightRecorder(epoch_events=4)
    traced = FlightRecorder(epoch_events=4)
    plain.record_hop("l", "n", "a", "b", 7)
    traced.record_hop("l", "n", "a", "b", 7, span=_Span())
    plain.finish()
    traced.finish()
    assert plain.epoch_digests == traced.epoch_digests
    record = list(traced.ring)[0]
    assert record["_trace"] == "t1"
    assert "_trace" not in json.loads(canonical(record))


# -- keep_epochs / context -------------------------------------------------


def test_keep_epochs_restricts_ring_and_fills_context():
    recorder = FlightRecorder(epoch_events=4, keep_epochs=(1, 1),
                              context=3)
    _feed(recorder, 12)
    recorder.finish()
    assert [r["epoch"] for r in recorder.ring] == [1] * 4
    assert [r["eid"] for r in recorder.context] == [1, 2, 3]
    assert recorder.epoch_records(1) == list(recorder.ring)
    assert len(recorder.epoch_digests) == 3


# -- journaling a real workload --------------------------------------------


@pytest.mark.parametrize("name", ["locks-hard", "flaky-links",
                                  "traced-rpc"])
def test_recorder_never_perturbs_workload(name):
    baseline = trace_digest(run(RunSpec(name, 31)).outcome)
    recorder = FlightRecorder(epoch_events=64)
    observed = trace_digest(
        run(RunSpec(name, 31, journal=recorder)).outcome)
    assert observed == baseline
    assert recorder.recorded > 0
    assert len(recorder.epoch_digests) >= 1


def test_same_seed_runs_journal_identically():
    digests = []
    for _ in range(2):
        recorder = FlightRecorder(ring=16, epoch_events=64)
        run(RunSpec("locks-hard", 31, journal=recorder))
        digests.append(recorder.epoch_digests)
    assert digests[0] == digests[1]


def test_workload_journal_covers_all_channels():
    recorder = FlightRecorder(ring=1 << 16)
    run(RunSpec("locks-hard", 31, journal=recorder))
    kinds = {record["kind"] for record in recorder.ring}
    assert {"dispatch", "rng", "lock", "spawn", "exit"} <= kinds


def test_channel_flags_silence_their_records():
    recorder = FlightRecorder(ring=1 << 16, journal_dispatch=False,
                              journal_rng=False, journal_locks=False,
                              journal_actors=False)
    run(RunSpec("locks-hard", 31, journal=recorder))
    assert len(recorder.ring) == 0
    # Epochs still advance on dispatch even with every channel off.
    assert len(recorder.epoch_digests) >= 1


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
    NOOP_FLIGHT.on_dispatch(0.0, 0, 0)
    NOOP_FLIGHT.record_rng("s", "random", 0.5)
    assert NOOP_FLIGHT.finish() == 0
    assert len(NOOP_FLIGHT) == 0


def test_use_flight_scopes_and_restores():
    recorder = FlightRecorder()
    with use_flight(recorder):
        assert obs.get_flight() is recorder
    assert obs.get_flight() is NOOP_FLIGHT
