"""Tests for the chaos-search engine: generator, trials, campaigns."""

import json

import pytest

from repro.faults.fuzz import (
    PROFILES,
    TIME_QUANTUM,
    FuzzProfile,
    ScheduleGenerator,
    campaign_digest,
    evaluate_schedule,
    get_profile,
    main,
    run_campaign,
    run_trial,
)
from repro.net import Network, Topology
from repro.sim import Environment, RandomStreams


def mesh(env, seed=5):
    streams = RandomStreams(seed)
    topo = Topology(env)
    for a, b in (("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")):
        topo.add_link(a, b, latency=0.01,
                      rng=streams.stream(a + b))
    return Network(env, topo)


def probe_profile(**overrides):
    options = dict(active=(1.0, 10.0), heal_by=12.0, max_ops=4)
    options.update(overrides)
    return FuzzProfile("test", **options)


# -- generator ---------------------------------------------------------------


def test_generator_same_seed_byte_identical_sequence():
    profile = probe_profile()
    sequences = []
    for _ in range(2):
        net = mesh(Environment())
        rng = RandomStreams(3).stream("gen")
        generator = ScheduleGenerator(profile, rng)
        sequences.append([
            json.dumps(generator.generate(net).to_dict(),
                       sort_keys=True)
            for _ in range(8)])
    assert sequences[0] == sequences[1]


def test_generator_different_seeds_differ():
    profile = probe_profile()
    net = mesh(Environment())
    first = ScheduleGenerator(
        profile, RandomStreams(3).stream("gen")).generate(net)
    net2 = mesh(Environment())
    second = ScheduleGenerator(
        profile, RandomStreams(4).stream("gen")).generate(net2)
    assert first.to_dict() != second.to_dict()


def test_generated_schedules_are_valid_and_balanced():
    profile = probe_profile()
    net = mesh(Environment())
    generator = ScheduleGenerator(profile,
                                  RandomStreams(9).stream("gen"))
    for _ in range(20):
        schedule = generator.generate(net)
        assert 1 <= len(schedule) <= 2 * profile.max_ops
        assert schedule.balanced()
        for event in schedule.ordered():
            assert profile.active[0] <= event.at <= profile.heal_by
            # Every generated time sits on the quantum grid.
            assert abs(event.at / TIME_QUANTUM
                       - round(event.at / TIME_QUANTUM)) < 1e-9


def test_generated_targets_come_from_the_topology():
    profile = probe_profile()
    net = mesh(Environment())
    nodes = set(net.topology.nodes)
    generator = ScheduleGenerator(profile,
                                  RandomStreams(2).stream("gen"))
    for _ in range(10):
        for event in generator.generate(net).ordered():
            params = event.params
            for key in ("a", "b", "node"):
                if key in params:
                    assert params[key] in nodes
            for group in params.get("groups", []):
                assert set(group) <= nodes


# -- profiles ----------------------------------------------------------------


def test_get_profile_unknown_names_fuzzable_set():
    with pytest.raises(KeyError) as err:
        get_profile("locks-soft")
    assert "fuzzable" in err.value.args[0]
    assert "partition-recovery" in err.value.args[0]


def test_shipped_profiles_cover_the_chaos_workloads():
    # flaky-links has no profile: no invariant of it catches a bug
    # (docs/fuzzing.md "What the fault search catches").
    assert set(PROFILES) == {"partition-recovery"}


# -- trials and campaigns ----------------------------------------------------


def test_trial_replays_generated_schedule_identically():
    profile = get_profile("partition-recovery")
    generator = ScheduleGenerator(profile,
                                  RandomStreams(7).stream("trial"))
    trial = run_trial("partition-recovery", generator)
    assert trial["schedule"]["events"]
    # The generating run and a run of the captured schedule agree —
    # the generator's RNG is separate from the workload's streams.
    replay = evaluate_schedule("partition-recovery", 31, trial["schedule"])
    assert replay["digest"] == trial["digest"]
    assert replay["oracles"] == trial["oracles"]


def test_evaluate_schedule_clean_on_empty_schedule():
    report = evaluate_schedule("partition-recovery", 31, {"events": []})
    assert report["violations"] == []


def test_campaign_is_deterministic():
    first = run_campaign("partition-recovery", budget=3, seed=11)
    second = run_campaign("partition-recovery", budget=3, seed=11)
    assert first == second
    assert first["digest"] == campaign_digest(second)
    assert first["trials"] == 3


def test_campaign_digest_excludes_itself():
    summary = run_campaign("partition-recovery", budget=1, seed=11)
    recomputed = campaign_digest(summary)
    assert summary["digest"] == recomputed


# -- CLI ---------------------------------------------------------------------


@pytest.mark.parametrize("value", ["0", "-3"])
def test_a_campaign_that_would_run_nothing_is_refused(value, capsys):
    """``--max-failures 0`` stopped before the first trial and passed
    with ``trials=0``."""
    with pytest.raises(SystemExit) as exit_info:
        main(["--workload", "partition-recovery", "--max-failures", value])
    assert exit_info.value.code == 2
    assert "--max-failures must be >= 1" in capsys.readouterr().err
