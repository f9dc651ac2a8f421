"""Tests for mobile hosts and disconnected caching."""

import pytest

from repro.concurrency import SharedStore
from repro.errors import DisconnectedError, MobilityError
from repro.mobility import (
    CLIENT_WINS,
    DisconnectionTolerantContract,
    MobileCache,
    MobileHost,
    SERVER_WINS,
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

def make_cache(env, policy=SERVER_WINS):
    net, mobile = make_mobile(env)
    store = SharedStore("server")
    store.write("report", "v1", writer="server")
    store.write("map", "map-data", writer="server")
    cache = MobileCache(env, mobile, store, conflict_policy=policy)
    return mobile, store, cache


def test_cache_validation(env):
    net, mobile = make_mobile(env)
    with pytest.raises(MobilityError):
        MobileCache(env, mobile, SharedStore(), conflict_policy="duel")
    with pytest.raises(MobilityError):
        MobileCache(env, mobile, SharedStore(), transfer_rate=0)


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
    mobile, store, cache = make_cache(env, policy=SERVER_WINS)

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


def test_reintegration_conflict_client_wins(env):
    mobile, store, cache = make_cache(env, policy=CLIENT_WINS)
    conflicts = []
    cache.on_conflict = lambda key, server, client: conflicts.append(key)

    def root(env):
        yield from cache.hoard(["report"])
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        yield from cache.write("report", "mobile-edit")
        store.write("report", "office-edit", writer="colleague")
        mobile.set_level(ConnectivityLevel.FULL)
        applied, conflicted = yield from cache.reintegrate()
        return (applied, conflicted)

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == (1, 1)
    assert store.read("report") == "mobile-edit"
    assert conflicts == ["report"]


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
