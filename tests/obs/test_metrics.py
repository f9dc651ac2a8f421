"""The metrics registry: instruments, labels, snapshot."""

import pytest

from repro import obs
from repro.net.network import Network
from repro.net.packet import HEADER_BYTES
from repro.net.topology import line
from repro.obs.metrics import MetricsRegistry
from repro.sim import Environment


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_basic(registry):
    registry.counter("net.drops", reason="loss").add()
    registry.counter("net.drops", reason="loss").add(2)
    registry.counter("net.drops", reason="no-route").add()
    assert registry.counter("net.drops", reason="loss").value == 3
    assert registry.counters("net.drops") == {
        "net.drops{reason=loss}": 3,
        "net.drops{reason=no-route}": 1,
    }


def test_instruments_cached_by_name_and_labels(registry):
    a = registry.counter("x", node="n1")
    b = registry.counter("x", node="n1")
    c = registry.counter("x", node="n2")
    assert a is b
    assert a is not c
    # Label order is irrelevant.
    h1 = registry.histogram("y", node="n1", op="read")
    h2 = registry.histogram("y", op="read", node="n1")
    assert h1 is h2


def test_histogram_summary(registry):
    hist = registry.histogram("rpc.latency", node="n1")
    for value in (0.1, 0.2, 0.3):
        hist.record(value)
    assert hist.count == 3
    assert abs(hist.mean - 0.2) < 1e-12
    summary = hist.summary()
    assert summary["count"] == 3.0
    assert summary["max"] == 0.3


def test_gauge_tracks_last_value(registry):
    gauge = registry.gauge("queue.depth", node="n1")
    gauge.set(3, at=1.0)
    gauge.set(5, at=2.0)
    assert gauge.last == 5


def test_snapshot_shape(registry):
    registry.counter("a").add()
    registry.histogram("b", k="v").record(1.0)
    registry.gauge("c").set(2.0, at=0.0)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"a": 1}
    assert snapshot["histograms"]["b{k=v}"]["count"] == 1.0
    assert snapshot["gauges"]["c"] == 2.0


def test_records_are_flat_and_typed(registry):
    registry.counter("a", x="1").add(4)
    registry.histogram("b").record(2.0)
    records = list(registry.records())
    kinds = {(r["type"], r["name"]) for r in records}
    assert kinds == {("counter", "a"), ("histogram", "b")}
    counter = next(r for r in records if r["type"] == "counter")
    assert counter == {"kind": "metric", "type": "counter", "name": "a",
                       "labels": {"x": "1"}, "value": 4}


def test_use_metrics_scopes_the_default():
    outer = obs.get_metrics()
    scoped = MetricsRegistry()
    with obs.use_metrics(scoped):
        assert obs.get_metrics() is scoped
        obs.get_metrics().counter("in.scope").add()
    assert obs.get_metrics() is outer
    assert scoped.counter("in.scope").value == 1


def test_bound_instruments_are_the_keyed_instruments(registry):
    # A site binds by keeping what the keyed factory returned.
    bound = registry.counter("net.sent", node="n1")
    bound.add(3)
    assert registry.counter("net.sent", node="n1").value == 3
    assert registry.counter_total("net.sent") == 3
    hist = registry.histogram("rpc.latency", node="n1")
    hist.record(0.5)
    assert registry.histogram_count("rpc.latency", node="n1") == 1
    gauge = registry.gauge("depth", node="n1")
    gauge.set(4, at=1.0)
    assert registry.gauges() == {"depth{node=n1}": 4.0}


def test_bound_counter_cache_binds_once_per_label_value():
    from repro.obs.metrics import BoundCounterCache
    with obs.use_metrics(MetricsRegistry()) as registry:
        cache = BoundCounterCache("chan.retries", "dst", node="n1")
        first = cache.get("n2")
        assert cache.get("n2") is first
        first.add()
        cache.get("n3").add(2)
        assert registry.counter("chan.retries", node="n1",
                                dst="n2").value == 1
        assert registry.counter("chan.retries", node="n1",
                                dst="n3").value == 2


def test_bound_counter_cache_keeps_the_registry_of_its_first_use():
    from repro.obs.metrics import BoundCounterCache
    cache = BoundCounterCache("c", "k")     # built under no scope at all
    with obs.use_metrics(MetricsRegistry()) as first:
        cache.get("v").add()
    with obs.use_metrics(MetricsRegistry()) as second:
        cache.get("v").add()
        cache.get("w").add()                # a label value new under B
    assert first.counters("c") == {"c{k=v}": 2, "c{k=w}": 1}
    assert second.counters("c") == {}


def test_count_below_is_incremental_after_first_query(registry):
    hist = registry.histogram("lat")
    for value in (0.1, 0.2, 0.3):
        hist.record(value)
    assert hist.count_below(0.2) == 2  # first query scans and registers
    hist.record(0.15)
    hist.record(0.9)
    assert hist.count_below(0.2) == 3  # later records kept it current
    assert hist.count_below(0.95) == 5  # fresh threshold backfills fully
    hist.record(0.05)
    assert hist.count_below(0.2) == 4
    assert hist.count_below(0.95) == 6


# -- label-subset queries ---------------------------------------------------

def test_counter_total_over_label_subsets(registry):
    registry.counter("reqs", node="a", op="post").add(3)
    registry.counter("reqs", node="a", op="read").add(2)
    registry.counter("reqs", node="b", op="post").add(5)
    registry.counter("reqs", node="b").add(7)  # coarser label set
    assert registry.counter_total("reqs") == 17
    assert registry.counter_total("reqs", node="a") == 5
    assert registry.counter_total("reqs", op="post") == 8
    assert registry.counter_total("reqs", node="b") == 12
    assert registry.counter_total("reqs", node="b", op="post") == 5


def test_counter_total_zero_match_subsets(registry):
    registry.counter("reqs", node="a").add(3)
    assert registry.counter_total("reqs", node="z") == 0
    assert registry.counter_total("reqs", shard="0") == 0
    assert registry.counter_total("other") == 0
    # Querying MORE labels than any instrument carries matches nothing.
    assert registry.counter_total("reqs", node="a", op="post") == 0


def test_histogram_count_below_over_label_subsets(registry):
    registry.histogram("lat", node="a", op="post").record(0.1)
    registry.histogram("lat", node="a", op="read").record(0.5)
    registry.histogram("lat", node="b", op="post").record(0.1)
    assert registry.histogram_count_below("lat", 0.2) == 2
    assert registry.histogram_count_below("lat", 0.2, node="a") == 1
    assert registry.histogram_count_below("lat", 0.2, op="post") == 2
    assert registry.histogram_count_below("lat", 1.0, node="a") == 2
    assert registry.histogram_count_below("lat", 0.2, node="z") == 0
    assert registry.histogram_count_below("lat", 0.2, shard="9") == 0
    assert registry.histogram_count("lat", op="post") == 2


# -- deterministic iteration order ------------------------------------------

def _populate_unordered(registry):
    # Insertion order deliberately scrambled relative to sort order.
    registry.counter("z.last", node="n9").add(1)
    registry.counter("a.first", node="n2").add(2)
    registry.counter("a.first", node="n1").add(3)
    registry.histogram("m.mid", op="b").record(1.0)
    registry.histogram("m.mid", op="a").record(2.0)
    registry.gauge("g", k="2").set(1.0, at=0.0)
    registry.gauge("g", k="1").set(2.0, at=0.0)


def test_snapshot_iterates_in_sorted_key_order(registry):
    _populate_unordered(registry)
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == [
        "a.first{node=n1}", "a.first{node=n2}", "z.last{node=n9}"]
    assert list(snapshot["histograms"]) == ["m.mid{op=a}", "m.mid{op=b}"]
    assert list(snapshot["gauges"]) == ["g{k=1}", "g{k=2}"]


def test_records_counters_views_and_items_share_the_order(registry):
    _populate_unordered(registry)
    expected = ["a.first{node=n1}", "a.first{node=n2}", "z.last{node=n9}"]
    assert list(registry.counters()) == expected
    assert [key for key, _ in registry.counter_items()] == expected
    assert [key for key, _ in registry.histogram_items()] == [
        "m.mid{op=a}", "m.mid{op=b}"]
    assert [key for key, _ in registry.gauge_items()] == [
        "g{k=1}", "g{k=2}"]
    records = list(registry.records())
    rendered = [(r["type"], r["name"], tuple(sorted(r["labels"].items())))
                for r in records]
    assert rendered == sorted(rendered, key=lambda r: (
        {"counter": 0, "histogram": 1, "gauge": 2}[r[0]], r[1], r[2]))


def test_items_return_live_instruments(registry):
    registry.counter("a", node="n1").add(2)
    ((key, inst),) = registry.counter_items()
    assert key == "a{node=n1}"
    inst.add(3)
    assert registry.counter("a", node="n1").value == 5


def test_histograms_and_gauges_views(registry):
    registry.histogram("h", k="v").record(1.0)
    registry.gauge("g").set(4.0, at=1.0)
    assert registry.histograms()["h{k=v}"]["count"] == 1.0
    assert registry.gauges() == {"g": 4.0}
    assert registry.histograms("nope") == {}


# -- name-scoped flush hooks -------------------------------------------------


def _counting_hook(registry, names=("net.drops",)):
    calls = []
    registry.add_flush_hook(lambda: calls.append(1), names)
    return calls


def test_keyed_lookups_flush_only_for_the_names_a_hook_backs(registry):
    calls = _counting_hook(registry)
    registry.gauge("rpc.inflight", node="n1").set(1, at=0.0)
    registry.counter("breaker.rejected", dst="n2").add()
    registry.histogram("resource.wait", resource="r").record(0.1)
    registry.counter("chan.retries", node="n1", dst="n2")
    assert calls == []
    registry.counter("net.drops", reason="loss")
    assert len(calls) == 1
    # The aggregate readers cannot know what they will meet: they flush.
    for read in (registry.snapshot, registry.counter_items,
                 lambda: registry.counter_total("anything"),
                 lambda: list(registry.records())):
        before = len(calls)
        read()
        assert len(calls) == before + 1


def test_flush_hook_must_name_its_instruments(registry):
    with pytest.raises(TypeError, match="names"):
        registry.add_flush_hook(lambda: None)
    with pytest.raises(ValueError, match="names"):
        registry.add_flush_hook(lambda: None, ())


@pytest.mark.parametrize("read, expected", [
    (lambda registry: registry.counter("net.sent").value, 5),
    (lambda registry: registry.counter_total("net.sent"), 5),
    (lambda registry: registry.snapshot()["counters"]["net.sent"], 5),
    (lambda registry: dict(registry.counter_items())["net.sent"].value, 5),
    (lambda registry: registry.histogram("net.delivery_latency").count, 3),
    (lambda registry: registry.counter("net.node.sent", node="n0").value, 5),
    (lambda registry: registry.counter("net.bytes", link="n0<->n1").value,
     5 * (64 + HEADER_BYTES)),
    (lambda registry: registry.counter("net.drops", reason="loss").value, 2),
    (lambda registry: registry.counter("net.link.drops", link="n1<->n2",
                                       reason="loss").value, 2),
], ids=["counter", "counter_total", "snapshot", "counter_items",
        "histogram", "labelled-counter", "bytes", "drops", "link-drops"])
def test_network_cells_are_fresh_on_first_read(registry, read, expected):
    # Packets land in the network's books; the first read of a backed
    # name — with no other read before it — must see them all.
    env = Environment()
    topology = line(env, length=3, seed=11)
    topology.link_between("n1", "n2").loss = 1.0
    network = Network(env, topology)
    network.host("n1")
    with obs.use_metrics(registry):
        for dst in ("n1", "n1", "n1", "n2", "n2"):
            network.host("n0").send(dst, size=64)
        env.run()
    assert read(registry) == expected
