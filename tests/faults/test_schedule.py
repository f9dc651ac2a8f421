"""Tests for fault schedules and their injector."""

import pytest

from repro.errors import SimulationError
from repro.faults.schedule import FaultInjector, FaultSchedule
from repro.net import Network, Topology
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer
from repro.run import RunSpec, run
from repro.sim import Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


def triangle(env, seed=5):
    streams = RandomStreams(seed)
    topo = Topology(env)
    topo.add_link("a", "b", latency=0.01, rng=streams.stream("ab"))
    topo.add_link("b", "c", latency=0.01, rng=streams.stream("bc"))
    topo.add_link("a", "c", latency=0.01, rng=streams.stream("ac"))
    return Network(env, topo)


# -- schedule building -------------------------------------------------------


def test_flap_expands_to_explicit_pairs():
    schedule = FaultSchedule()
    schedule.link_flap(10.0, "a", "b", count=2, period=4.0)
    assert [(e["at"], e["kind"]) for e in schedule.to_dict()["events"]] \
        == [(10.0, "link-down"), (12.0, "link-up"),
            (14.0, "link-down"), (16.0, "link-up")]


def test_timed_impairments_expand_to_pairs():
    schedule = FaultSchedule()
    schedule.latency_storm(5.0, scale=3.0, duration=2.0)
    schedule.loss_burst(6.0, extra_loss=0.5, duration=1.0,
                        links=[("b", "a")])
    kinds = [(e["at"], e["kind"]) for e in schedule.to_dict()["events"]]
    assert kinds == [(5.0, "latency-storm"), (6.0, "loss-burst"),
                     (7.0, "latency-calm"), (7.0, "loss-calm")]
    # Link pairs are canonicalised (sorted) at build time.
    burst = schedule.to_dict()["events"][1]
    assert burst["links"] == [["a", "b"]]


def test_same_time_events_keep_declaration_order():
    schedule = FaultSchedule()
    schedule.link_down(1.0, "a", "b")
    schedule.link_down(1.0, "b", "c")
    ordered = schedule.ordered()
    assert [(e.params["a"], e.params["b"]) for e in ordered] \
        == [("a", "b"), ("b", "c")]


def test_schedule_validation():
    schedule = FaultSchedule()
    with pytest.raises(SimulationError):
        schedule.link_down(2.0, "a", "b", up_at=1.0)
    with pytest.raises(SimulationError):
        schedule.partition(1.0, [["a"]])
    with pytest.raises(SimulationError):
        schedule.link_flap(1.0, "a", "b", count=0, period=1.0)
    with pytest.raises(SimulationError):
        schedule.latency_storm(1.0, scale=0.0, duration=1.0)
    with pytest.raises(SimulationError):
        schedule.loss_burst(1.0, extra_loss=1.5, duration=1.0)
    with pytest.raises(SimulationError):
        schedule._add(-1.0, "link-down")
    with pytest.raises(SimulationError):
        schedule._add(1.0, "meteor-strike")


# -- injection ---------------------------------------------------------------


def test_link_down_drops_traffic_until_up(env):
    net = triangle(env)
    delivered = []
    net.host("b").on_packet(9, lambda p: delivered.append(env.now))

    def sender(env):
        for _ in range(6):
            net.host("a").send("b", size=10, port=9)
            yield env.timeout(1.0)

    env.process(sender(env))
    schedule = FaultSchedule()
    # Cut both a's routes to b so no detour exists.
    schedule.link_down(1.5, "a", "b", up_at=3.5)
    schedule.link_down(1.5, "a", "c", up_at=3.5)
    injector = FaultInjector(env, net, schedule)
    env.run(until=8.0)
    # Sends at t=2 and t=3 fall inside the outage.
    assert len(delivered) == 4
    assert net.drop_stats().get("no-route", 0) == 2
    assert injector.links_down == 0


def test_overlapping_faults_refcount(env):
    net = triangle(env)
    link = net.topology.link_between("a", "b")
    schedule = FaultSchedule()
    schedule.partition(1.0, [["a", "c"], ["b"]], name="p", heal_at=3.0)
    schedule.node_crash(2.0, "b", restart_at=4.0)
    FaultInjector(env, net, schedule)
    env.run(until=1.5)
    assert not link.up
    env.run(until=3.5)
    # The heal lifted the partition, but b is still crashed: the a-b
    # link must stay down until the crash lifts too.
    assert not link.up
    env.run(until=4.5)
    assert link.up
    assert net.topology.link_between("b", "c").up


def test_overlapping_crashes_of_one_node_nest(env):
    net = triangle(env)
    adjacent = [net.topology.link_between("b", other)
                for other in ("a", "c")]
    schedule = FaultSchedule()
    schedule.node_crash(1.0, "b", restart_at=3.0)
    schedule.node_crash(2.0, "b", restart_at=4.0)
    injector = FaultInjector(env, net, schedule)
    env.run(until=3.5)
    # One crash is still open: b stays cut off.
    assert not any(link.up for link in adjacent)
    env.run(until=4.5)
    assert all(link.up for link in adjacent)
    assert injector.links_down == 0


def test_partition_cuts_only_crossing_links(env):
    net = triangle(env)
    schedule = FaultSchedule()
    schedule.partition(1.0, [["a", "b"], ["c"]], name="p")
    injector = FaultInjector(env, net, schedule)
    env.run(until=2.0)
    assert net.topology.link_between("a", "b").up
    assert not net.topology.link_between("a", "c").up
    assert not net.topology.link_between("b", "c").up
    assert injector.links_down == 2


def test_partition_rejects_overlapping_groups():
    # Rejected where the schedule is built, not when the injector runs.
    with pytest.raises(SimulationError, match="^groups .* 'b' is in two"):
        FaultSchedule().partition(1.0, [["a", "b"], ["b", "c"]], name="p")


def test_impairments_apply_and_lift(env):
    net = triangle(env)
    link = net.topology.link_between("a", "b")
    schedule = FaultSchedule()
    schedule.latency_storm(1.0, scale=4.0, duration=2.0,
                           links=[("a", "b")])
    schedule.loss_burst(1.5, extra_loss=0.3, duration=1.0,
                        links=[("a", "b")])
    FaultInjector(env, net, schedule)
    env.run(until=1.2)
    assert link.impaired
    env.run(until=1.7)
    assert link.impaired
    env.run(until=4.0)
    assert not link.impaired


def test_loss_burst_actually_drops(env):
    net = triangle(env)

    def sender(env):
        for _ in range(200):
            net.host("a").send("b", size=10, port=9)
            yield env.timeout(0.05)

    env.process(sender(env))
    schedule = FaultSchedule()
    schedule.loss_burst(2.0, extra_loss=0.9, duration=5.0,
                        links=[("a", "b")])
    FaultInjector(env, net, schedule)
    env.run(until=12.0)
    # Drops caused by injected extra loss are attributed to the
    # impairment, not the link's intrinsic loss rate (which is zero
    # on a pristine triangle).
    assert net.drop_stats().get("impairment", 0) > 50
    assert net.drop_stats().get("loss", 0) == 0


def test_injector_log_spans_and_metrics():
    with use_tracer(Tracer()) as tracer:
        env = Environment()
    net = triangle(env)
    schedule = FaultSchedule()
    schedule.link_down(1.0, "a", "b", up_at=2.0)
    injector = FaultInjector(env, net, schedule)
    env.run(until=3.0)
    metrics = env.metrics
    assert [entry["kind"] for entry in injector.log] \
        == ["link-down", "link-up"]
    assert [entry["at"] for entry in injector.log] == [1.0, 2.0]
    assert sorted(s.name for s in tracer.spans
                  if s.name.startswith("fault.")) \
        == ["fault.link-down", "fault.link-up"]
    assert metrics.counter_total("fault.injected") == 2


def test_injection_is_deterministic():
    def run():
        with use_metrics(MetricsRegistry()):
            env = Environment()
        net = triangle(env)
        count = [0]
        net.host("c").on_packet(9, lambda p: count.__setitem__(
            0, count[0] + 1))

        def sender(env):
            for _ in range(40):
                net.host("a").send("c", size=10, port=9)
                yield env.timeout(0.25)

        env.process(sender(env))
        schedule = FaultSchedule()
        schedule.link_flap(1.0, "a", "c", count=3, period=2.0)
        schedule.loss_burst(4.0, extra_loss=0.5, duration=3.0)
        injector = FaultInjector(env, net, schedule)
        env.run(until=12.0)
        return injector.log, count[0], env.stats()

    assert run() == run()


def test_empty_schedule_is_inert(env):
    net = triangle(env)
    injector = FaultInjector(env, net, FaultSchedule())
    env.run(until=2.0)
    assert injector.log == []
    assert injector.links_down == 0


# -- serialisation round-trip (from_dict) ------------------------------------


def test_schedule_round_trips_through_dict():
    schedule = FaultSchedule()
    schedule.link_flap(1.0, "a", "b", count=2, period=2.0)
    schedule.partition(2.0, [["a"], ["b", "c"]], name="p", heal_at=6.0)
    schedule.node_crash(3.0, "c", restart_at=5.0)
    schedule.loss_burst(4.0, 0.3, 1.5, links=[("a", "c")])
    data = schedule.to_dict()
    rebuilt = FaultSchedule.from_dict(data)
    assert rebuilt.to_dict() == data
    # Round-trip again: canonical form is a fixed point.
    assert FaultSchedule.from_dict(rebuilt.to_dict()).to_dict() == data


def test_from_dict_errors_name_the_offending_event():
    good = {"at": 1.0, "kind": "link-down", "a": "a", "b": "b"}
    with pytest.raises(SimulationError) as err:
        FaultSchedule.from_dict({"events": [
            good, {"at": 2.0, "kind": "link-down", "a": "a"}]})
    message = err.value.args[0]
    assert "event 1" in message and "'b'" in message

    with pytest.raises(SimulationError) as err:
        FaultSchedule.from_dict({"events": [
            good, good, {"at": -1.0, "kind": "heal", "name": "p"}]})
    assert "event 2" in err.value.args[0]

    with pytest.raises(SimulationError) as err:
        FaultSchedule.from_dict({"events": [
            {"at": 0.5, "kind": "meteor-strike"}]})
    message = err.value.args[0]
    assert "event 0" in message and "meteor-strike" in message


def test_from_dict_validates_param_types():
    with pytest.raises(SimulationError) as err:
        FaultSchedule.from_dict({"events": [
            {"at": 1.0, "kind": "partition", "name": "p",
             "groups": [["a"]]}]})
    assert "two groups" in err.value.args[0]

    with pytest.raises(SimulationError) as err:
        FaultSchedule.from_dict({"events": [
            {"at": 1.0, "kind": "loss-burst", "extra_loss": 1.5,
             "links": None}]})
    assert "(0, 1)" in err.value.args[0]

    with pytest.raises(SimulationError) as err:
        FaultSchedule.from_dict({"events": [
            {"at": 1.0, "kind": "latency-storm", "scale": 2.0,
             "links": [["a", "b", "c"]]}]})
    assert "[a, b] pair" in err.value.args[0]


def test_from_dict_rejects_non_schedule_shapes():
    with pytest.raises(SimulationError):
        FaultSchedule.from_dict({"not-events": []})
    with pytest.raises(SimulationError):
        FaultSchedule.from_dict({"events": "nope"})
    with pytest.raises(SimulationError):
        FaultSchedule.from_dict({"events": ["not-a-dict"]})


# -- balance ------------------------------------------------------------------


def test_balanced_requires_matching_lifts():
    schedule = FaultSchedule()
    schedule.link_down(1.0, "a", "b", up_at=3.0)
    schedule.node_crash(2.0, "c", restart_at=4.0)
    assert schedule.balanced()

    unbalanced = FaultSchedule()
    unbalanced.link_down(1.0, "a", "b")
    assert not unbalanced.balanced()

    # A lift for a *different* target does not balance the onset.
    mismatched = FaultSchedule.from_dict({"events": [
        {"at": 1.0, "kind": "link-down", "a": "a", "b": "b"},
        {"at": 2.0, "kind": "link-up", "a": "a", "b": "c"}]})
    assert not mismatched.balanced()


def test_empty_schedule_is_balanced():
    schedule = FaultSchedule()
    assert schedule.balanced()


# -- a run's schedule override -----------------------------------------------


def test_schedule_override_swaps_injected_schedule(env):
    swapped = FaultSchedule()
    swapped.link_down(1.0, "site0.host0", "site0.router", up_at=2.0)
    seen = {}

    def factory(network, schedule):
        seen["network"] = network
        seen["schedule"] = schedule
        return swapped

    result = run(RunSpec("partition-recovery", 31, schedule=factory))
    assert [(entry["at"], entry["kind"], entry["a"], entry["b"])
            for entry in result.outcome["faults"]] == [
        (1.0, "link-down", "site0.host0", "site0.router"),
        (2.0, "link-up", "site0.host0", "site0.router")]
    assert isinstance(seen["network"], Network)
    assert [event.kind for event in seen["schedule"].events] == \
        ["partition", "heal"]

    # Outside the run the override is gone.
    net = triangle(env)
    original = FaultSchedule()
    original.link_down(1.0, "a", "b", up_at=2.0)
    later = FaultInjector(env, net, original)
    assert later.schedule is original
