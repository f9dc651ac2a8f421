"""Tests for mobile hosts and disconnected caching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hb import ConflictSanitizer, use_sanitizer
from repro.concurrency import SharedStore
from repro.errors import DisconnectedError, MobilityError
from repro.mobility import (
    DisconnectionTolerantContract,
    MobileCache,
    MobileHost,
    StoreServer,
)
from repro.net import ConnectivityLevel, Network, lan
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_mobile(env, level=ConnectivityLevel.FULL):
    topo = lan(env, hosts=2)
    net = Network(env, topo)
    mobile = MobileHost(net, "laptop", "host0", level=level)
    return net, mobile


# -- mobile host ------------------------------------------------------------------

def test_mobile_host_levels(env):
    net, mobile = make_mobile(env)
    assert mobile.connected
    mobile.set_level(ConnectivityLevel.PARTIAL)
    assert mobile.connected
    mobile.set_level(ConnectivityLevel.DISCONNECTED)
    assert not mobile.connected


def test_outage_accounting(env):
    net, mobile = make_mobile(env)

    def journey(env):
        yield env.timeout(1.0)
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        yield env.timeout(5.0)
        mobile.set_level(ConnectivityLevel.PARTIAL)
        yield env.timeout(1.0)
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        yield env.timeout(2.0)
        mobile.set_level(ConnectivityLevel.FULL)

    env.process(journey(env))
    env.run()
    assert mobile.total_disconnected == pytest.approx(7.0)
    assert mobile.longest_outage == pytest.approx(5.0)
    assert mobile.counters["outages"] == 2
    assert mobile.counters["reconnections"] == 2


def test_current_outage_during_disconnection(env):
    net, mobile = make_mobile(env, level=ConnectivityLevel.DISCONNECTED)
    env.run(until=3.0)
    assert mobile.current_outage() == pytest.approx(3.0)


def test_level_change_listeners(env):
    net, mobile = make_mobile(env)
    seen = []
    mobile.on_level_change(seen.append)
    mobile.set_level(ConnectivityLevel.PARTIAL)
    assert seen == [ConnectivityLevel.PARTIAL]


def test_disconnection_contract_violation(env):
    net, mobile = make_mobile(env)
    violations = []
    contract = DisconnectionTolerantContract(
        env, mobile, max_outage=3.0,
        on_violation=violations.append)

    def journey(env):
        yield env.timeout(1.0)
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        yield env.timeout(5.0)  # exceeds accepted 3s
        mobile.set_level(ConnectivityLevel.FULL)

    env.process(journey(env))
    env.run(until=10.0)
    assert contract.violations == 1
    assert violations and violations[0] > 3.0


def test_disconnection_contract_tolerates_short_outage(env):
    net, mobile = make_mobile(env)
    contract = DisconnectionTolerantContract(env, mobile, max_outage=3.0)

    def journey(env):
        yield env.timeout(1.0)
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        yield env.timeout(2.0)  # within the accepted level
        mobile.set_level(ConnectivityLevel.FULL)

    env.process(journey(env))
    env.run(until=10.0)
    assert contract.violations == 0


def test_contract_validation(env):
    net, mobile = make_mobile(env)
    with pytest.raises(MobilityError):
        DisconnectionTolerantContract(env, mobile, max_outage=-1)




# -- disconnected cache -------------------------------------------------------------

def make_cache(env, store=None):
    """A laptop on a radio to host0 and its cache of a store served at
    host1, which holds ``report`` and ``map``."""
    net, mobile = make_mobile(env)
    store = store or SharedStore("server")
    store.write("report", "v1", writer="server")
    store.write("map", "map-data", writer="server")
    cache = MobileCache(mobile, StoreServer(net, "host1", store))
    return mobile, store, cache


def test_hoard_then_disconnected_read(env):
    mobile, store, cache = make_cache(env)

    def root(env):
        yield from cache.hoard(["report", "map"])
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        value = yield from cache.read("report")
        return value

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == "v1"
    assert cache.counters["reads:cache"] == 1
    assert cache.cached_keys() == ["map", "report"]


def test_disconnected_miss_raises(env):
    mobile, store, cache = make_cache(env)
    mobile.set_level(ConnectivityLevel.DISCONNECTED)
    failures = []

    def root(env):
        try:
            yield from cache.read("report")  # never hoarded
        except DisconnectedError:
            failures.append(True)

    proc = env.process(root(env))
    env.run(proc)
    assert failures == [True]
    assert cache.counters["reads:miss"] == 1


def test_hoard_requires_connection(env):
    mobile, store, cache = make_cache(env)
    mobile.set_level(ConnectivityLevel.DISCONNECTED)
    with pytest.raises(DisconnectedError):
        next(cache.hoard(["report"]))


def test_connected_write_through(env):
    mobile, store, cache = make_cache(env)

    def root(env):
        version = yield from cache.write("report", "v2")
        return version

    proc = env.process(root(env))
    env.run(proc)
    assert store.read("report") == "v2"
    assert proc.value == 2


def test_disconnected_writes_logged_and_reintegrated(env):
    mobile, store, cache = make_cache(env)

    def root(env):
        yield from cache.hoard(["report"])
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        yield from cache.write("report", "field-edit-1")
        yield from cache.write("notes", "new-notes")
        assert cache.pending_updates == 2
        # Reads see the locally written value meanwhile.
        value = yield from cache.read("report")
        assert value == "field-edit-1"
        mobile.set_level(ConnectivityLevel.FULL)
        applied, conflicted = yield from cache.reintegrate()
        return (applied, conflicted)

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == (2, 0)
    assert store.read("report") == "field-edit-1"
    assert store.read("notes") == "new-notes"
    assert cache.pending_updates == 0


def test_reintegration_conflict_server_wins(env):
    mobile, store, cache = make_cache(env)

    def root(env):
        yield from cache.hoard(["report"])
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        yield from cache.write("report", "mobile-edit")
        # Someone at the office edits the same report meanwhile.
        store.write("report", "office-edit", writer="colleague")
        mobile.set_level(ConnectivityLevel.FULL)
        applied, conflicted = yield from cache.reintegrate()
        return (applied, conflicted)

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == (0, 1)
    assert store.read("report") == "office-edit"
    assert cache.conflicts == [("report", "office-edit", "mobile-edit")]


def test_a_second_offline_write_to_a_key_follows_the_first(env):
    """The mobile's own earlier write is not a write that raced it."""
    mobile, store, cache = make_cache(env)

    def root(env):
        yield from cache.hoard(["report"])
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        yield from cache.write("report", "a")
        yield from cache.write("report", "b")
        mobile.set_level(ConnectivityLevel.FULL)
        return (yield from cache.reintegrate())

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == (2, 0)
    assert store.read("report") == "b"
    assert cache.conflicts == []


def test_a_write_does_not_overtake_a_logged_one(env):
    """A write-through that fails is logged, and a later write joins it
    in the log instead of reaching the server first."""
    mobile, store, cache = make_cache(env)
    versions = []

    def cut(env):
        yield env.timeout(0.001)
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        yield env.timeout(60.0)
        mobile.set_level(ConnectivityLevel.FULL)

    def root(env):
        yield from cache.hoard(["report"])
        env.process(cut(env))
        versions.append((yield from cache.write("report", "first")))
        yield env.timeout(60.0)
        versions.append((yield from cache.write("report", "second")))
        versions.append((yield from cache.reintegrate()))

    env.run(env.process(root(env)))
    assert versions == [None, None, (2, 0)]
    assert store.read("report") == "second"
    assert cache.conflicts == []


def test_reintegrate_requires_connection(env):
    mobile, store, cache = make_cache(env)
    mobile.set_level(ConnectivityLevel.DISCONNECTED)
    with pytest.raises(DisconnectedError):
        next(cache.reintegrate())


def test_reintegrate_empty_log(env):
    mobile, store, cache = make_cache(env)

    def root(env):
        result = yield from cache.reintegrate()
        return result
        yield  # pragma: no cover

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == (0, 0)


def test_partial_link_slows_transfers(env):
    """Bulk updates exploit higher connection levels (paper §4.2.2)."""
    mobile, store, cache = make_cache(env)

    def timed_hoard(env, level):
        mobile.set_level(level)
        start = env.now
        yield from cache.hoard(["report"])
        return env.now - start

    fast = env.process(timed_hoard(env, ConnectivityLevel.FULL))
    env.run(fast)
    slow = env.process(timed_hoard(env, ConnectivityLevel.PARTIAL))
    env.run(slow)
    assert slow.value > fast.value * 10


def log_offline_writes(mobile, cache, count):
    """Hoard, go offline, write ``report/0`` … and reconnect on radio."""
    yield from cache.hoard(["report"])
    mobile.set_level(ConnectivityLevel.DISCONNECTED)
    for i in range(count):
        yield from cache.write("report/{}".format(i), "w{}".format(i))
    mobile.set_level(ConnectivityLevel.PARTIAL)


def test_a_cut_link_cuts_the_reintegration(env):
    """The radio goes down 0.05 s into the replay: nothing reaches the
    server while the laptop is disconnected, the unsent writes stay in
    the log, and the next reconnect sends them."""
    mobile, store, cache = make_cache(env, SharedStore(keep_history=True))
    written_offline = []
    store.subscribe(lambda key, value, version, writer: (
        written_offline.append(key) if not mobile.connected else None))
    results = []

    def cut(env):
        yield env.timeout(0.05)
        mobile.set_level(ConnectivityLevel.DISCONNECTED)

    def root(env):
        yield from log_offline_writes(mobile, cache, 5)
        env.process(cut(env))
        results.append((yield from cache.reintegrate()))
        results.append(cache.pending_updates)
        yield env.timeout(60.0)
        mobile.set_level(ConnectivityLevel.PARTIAL)
        results.append((yield from cache.reintegrate()))

    env.run(env.process(root(env)))
    assert written_offline == []
    assert results == [(0, 0), 5, (5, 0)]
    assert cache.pending_updates == 0
    assert [entry[1] for entry in store.history(writer="laptop")] == [
        "report/{}".format(i) for i in range(5)]
    assert mobile.network.drop_stats()["link-down"] == 1


def test_a_lost_reply_applies_the_write_once(env):
    """The radio is cut as the second write lands, so its answer cannot
    leave; replayed at the next reconnect, it is answered, not applied
    again, and it is no conflict."""
    mobile, store, cache = make_cache(env, SharedStore(keep_history=True))
    store.subscribe(lambda key, value, version, writer: (
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        if key == "report/1" else None))
    results = []

    def root(env):
        yield from log_offline_writes(mobile, cache, 5)
        results.append((yield from cache.reintegrate()))
        mobile.set_level(ConnectivityLevel.PARTIAL)
        results.append((yield from cache.reintegrate()))

    env.run(env.process(root(env)))
    assert results == [(1, 0), (4, 0)]
    assert [entry[1] for entry in store.history(writer="laptop")] == [
        "report/{}".format(i) for i in range(5)]
    assert cache.conflicts == []


def test_the_sanitizer_sees_who_read_through_the_cache_and_when():
    """A connected read and a conflicting replay are the laptop's reads,
    at the instant the server made them."""
    with use_sanitizer(ConflictSanitizer()) as sanitizer:
        env = Environment()
    mobile, store, cache = make_cache(env, SharedStore("srv", env=env))
    spans = []

    def root(env):
        start = env.now
        yield from cache.read("report")
        spans.append((start, env.now))
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        yield from cache.write("report", "mobile-edit")
        store.write("report", "office-edit", writer="colleague", at=env.now)
        mobile.set_level(ConnectivityLevel.FULL)
        start = env.now
        yield from cache.reintegrate()
        spans.append((start, env.now))

    env.run(env.process(root(env)))
    assert cache.conflicts == [("report", "office-edit", "mobile-edit")]
    reads = [access for access in sanitizer.accesses
             if access.kind == "read"]
    assert [access.actor for access in reads] == ["laptop", "laptop"]
    for access, (start, end) in zip(reads, spans):
        assert start < access.at < end


#: Connected spells (seconds up, then seconds down, the level while up)
#: and work items the property below draws from.
SPELLS = st.lists(st.tuples(
    st.floats(0.05, 3.0), st.floats(0.05, 40.0),
    st.sampled_from([ConnectivityLevel.PARTIAL, ConnectivityLevel.FULL])),
    max_size=10)
WORK = st.lists(st.tuples(
    st.floats(0.0, 3.0), st.sampled_from(["laptop", "office"]),
    st.sampled_from(["report", "map", "notes"])), max_size=24)


@settings(max_examples=200)
@given(spells=SPELLS, work=WORK)
def test_every_accepted_write_is_accounted_for_exactly_once(spells, work):
    """Under any connectivity trace, each write the cache accepted ends
    at the server, in the log or among the conflicts, exactly once."""
    env = Environment()
    mobile, store, cache = make_cache(env, SharedStore(keep_history=True))
    accepted = []

    def radio(env):
        for up, down, level in spells:
            mobile.set_level(level)
            yield env.timeout(up)
            mobile.set_level(ConnectivityLevel.DISCONNECTED)
            yield env.timeout(down)
        mobile.set_level(ConnectivityLevel.FULL)

    def field(env, radio_done):
        if mobile.connected:
            yield from cache.hoard(["report", "map"])
        for think, who, key in work:
            yield env.timeout(think)
            if mobile.connected and cache.pending_updates:
                yield from cache.reintegrate()
            if who == "office":
                store.write(key, "office", writer="office", at=env.now)
                continue
            number = len(accepted)
            accepted.append(number)
            yield from cache.write(key, number)
        yield radio_done
        yield from cache.reintegrate()

    day = env.process(field(env, env.process(radio(env))))
    env.run(day)
    assert day.ok
    at_server = [entry[2] for entry in store.history(writer="laptop")]
    conflicted = [client for _, _, client in cache.conflicts]
    assert cache.pending_updates == 0
    assert sorted(at_server + conflicted) == accepted
