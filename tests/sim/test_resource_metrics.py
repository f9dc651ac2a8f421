"""Tests for resource/store observability hooks and per-instance tickets."""

from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.sim import Environment, PriorityResource, Resource, Store


def drive(env, steps):
    env.run()
    return steps


def test_named_resource_records_queue_depth_and_wait():
    env = Environment()
    registry = MetricsRegistry()
    resource = Resource(env, capacity=1, name="cpu")

    def worker(env):
        with resource.request() as claim:
            yield claim
            yield env.timeout(2.0)

    with use_metrics(registry):
        env.process(worker(env))
        env.process(worker(env))
        env.run()

    snapshot = registry.snapshot()
    wait = snapshot["histograms"]["resource.wait{resource=cpu}"]
    assert wait["count"] == 2
    # First grant is immediate, the second waits the full hold.
    assert wait["max"] == 2.0
    gauge = registry.gauge("resource.queue_depth", resource="cpu")
    assert gauge.samples  # sampled on enqueue and dequeue
    assert gauge.last == 0


def test_unnamed_resource_records_nothing():
    env = Environment()
    registry = MetricsRegistry()
    resource = Resource(env, capacity=1)

    def worker(env):
        with resource.request() as claim:
            yield claim
            yield env.timeout(1.0)

    with use_metrics(registry):
        env.process(worker(env))
        env.process(worker(env))
        env.run()

    snapshot = registry.snapshot()
    assert snapshot["histograms"] == {}
    assert snapshot["gauges"] == {}


def test_named_store_records_depth_and_get_wait():
    env = Environment()
    registry = MetricsRegistry()
    store = Store(env, name="inbox")

    def consumer(env):
        yield store.get()

    def producer(env):
        yield env.timeout(3.0)
        yield store.put("message")

    with use_metrics(registry):
        env.process(consumer(env))
        env.process(producer(env))
        env.run()

    snapshot = registry.snapshot()
    wait = snapshot["histograms"]["store.wait{store=inbox}"]
    assert wait["count"] == 1
    assert wait["max"] == 3.0
    assert snapshot["gauges"]["store.depth{store=inbox}"] == 0


def test_priority_tickets_are_per_instance():
    env = Environment()
    first = PriorityResource(env, capacity=1)
    second = PriorityResource(env, capacity=1)
    # Exhausting tickets on one resource must not advance the other's
    # sequence: the tie-break counter is instance state, not module
    # state, so experiments sharing a process stay independent.
    for _ in range(5):
        next(first._ticket)
    assert next(second._ticket) == 1


def test_priority_order_still_respected_with_metrics():
    env = Environment()
    registry = MetricsRegistry()
    resource = PriorityResource(env, capacity=1, name="link")
    order = []

    def worker(env, label, priority):
        claim = resource.request(priority=priority)
        yield claim
        order.append(label)
        yield env.timeout(1.0)
        resource.release(claim)

    with use_metrics(registry):
        env.process(worker(env, "first", 5))

        def late(env):
            yield env.timeout(0.1)
            env.process(worker(env, "urgent", 0))
            env.process(worker(env, "relaxed", 9))

        env.process(late(env))
        env.run()

    assert order == ["first", "urgent", "relaxed"]
    wait = registry.snapshot()["histograms"]["resource.wait{resource=link}"]
    assert wait["count"] == 3
