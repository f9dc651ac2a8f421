"""Topology route/link caching: hits, invalidation, fault schedules."""

import pytest

from repro.errors import RoutingError
from repro.faults import FaultInjector, FaultSchedule
from repro.net.network import Network
from repro.net.topology import Topology, line, wan
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def test_path_is_served_from_cache(env):
    topo = line(env, length=4)
    first = topo.path("n0", "n3")
    assert [link.label for link in first] == \
        ["n0<->n1", "n1<->n2", "n2<->n3"]
    # Cache hit: the very same list object, no re-walk.
    assert topo.path("n0", "n3") is first


def test_path_cache_invalidated_by_add_link(env):
    topo = line(env, length=3)
    old = topo.path("n0", "n2")
    assert len(old) == 2
    topo.add_link("n0", "n2", latency=0.0001)
    new = topo.path("n0", "n2")
    assert new is not old
    assert len(new) == 1 and new[0].label == "n0<->n2"


def test_path_cache_invalidated_by_invalidate_routes(env):
    topo = line(env, length=3)
    old = topo.path("n0", "n2")
    topo.invalidate_routes()
    # Unchanged link state: the state-epoch memo serves the same
    # materialised route (a flap that healed costs a dict hit, not a
    # full Dijkstra rebuild).
    assert topo.path("n0", "n2") is old
    # A genuine state change keys a different epoch and re-walks.
    topo.link_between("n0", "n1").latency *= 2
    topo.invalidate_routes()
    rebuilt = topo.path("n0", "n2")
    assert rebuilt is not old
    assert [link.label for link in rebuilt] == [l.label for l in old]
    # Healing back to the original state revives the first epoch's
    # tables — and the very same route object.
    topo.link_between("n0", "n1").latency /= 2
    topo.invalidate_routes()
    assert topo.path("n0", "n2") is old


def test_no_route_is_cached_and_still_raises(env):
    topo = Topology(env)
    topo.add_node("a")
    topo.add_node("b")
    for _ in range(2):  # second raise comes from the cached verdict
        with pytest.raises(RoutingError):
            topo.path("a", "b")
    topo.add_link("a", "b")
    assert len(topo.path("a", "b")) == 1


def test_same_node_path_is_empty_and_cached(env):
    topo = line(env, length=2)
    assert topo.path("n0", "n0") == []
    assert topo.path("n0", "n0") is topo.path("n0", "n0")


def test_unknown_endpoint_raises(env):
    topo = line(env, length=2)
    with pytest.raises(RoutingError):
        topo.path("n0", "nope")


def test_links_cached_until_add_link(env):
    topo = line(env, length=4)
    first = topo.links()
    assert topo.links() is first
    assert len(first) == 3
    topo.add_link("n0", "n3")
    second = topo.links()
    assert second is not first
    assert len(second) == 4


def test_total_link_bytes_reads_cached_links(env):
    topo = line(env, length=3)
    network = Network(env, topo)
    for link in topo.links():
        link.stats.bytes += 100
    assert network.total_link_bytes() == 200


def test_link_down_schedule_reroutes_and_restores(env):
    topo = wan(env, sites=3, hosts_per_site=1, site_latency=0.004)
    network = Network(env, topo)
    direct = topo.link_between("site0.router", "site1.router")
    assert direct in topo.path("site0.host0", "site1.host0")
    schedule = (FaultSchedule()
                .link_down(0.010, "site0.router", "site1.router",
                           up_at=0.020))
    FaultInjector(env, network, schedule)
    env.run(until=0.015)
    detour = topo.path("site0.host0", "site1.host0")
    assert direct not in detour
    assert topo.link_between("site0.router", "site2.router") in detour
    env.run(until=0.025)
    assert direct in topo.path("site0.host0", "site1.host0")


def test_partition_schedule_invalidates_cached_routes(env):
    topo = wan(env, sites=2, hosts_per_site=1, site_latency=0.004)
    network = Network(env, topo)
    site0 = ["site0.router", "site0.host0"]
    rest = [node for node in topo.nodes if node not in site0]
    assert topo.path("site0.host0", "site1.host0")  # warm the cache
    schedule = (FaultSchedule()
                .partition(0.010, [site0, rest], heal_at=0.020))
    FaultInjector(env, network, schedule)
    env.run(until=0.015)
    for _ in range(2):  # the unreachable verdict is itself cached
        with pytest.raises(RoutingError):
            topo.path("site0.host0", "site1.host0")
    env.run(until=0.025)
    assert len(topo.path("site0.host0", "site1.host0")) == 3
