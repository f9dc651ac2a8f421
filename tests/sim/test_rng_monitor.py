"""Tests for random streams."""

import pytest

from repro.sim import RandomStreams, exponential, zipf_index


def test_streams_are_deterministic():
    a = RandomStreams(seed=7).stream("net")
    b = RandomStreams(seed=7).stream("net")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_streams_differ_by_name():
    streams = RandomStreams(seed=7)
    assert streams.stream("net").random() != streams.stream("users").random()


def test_streams_differ_by_seed():
    a = RandomStreams(seed=1).stream("net").random()
    b = RandomStreams(seed=2).stream("net").random()
    assert a != b


def test_stream_is_cached():
    streams = RandomStreams(seed=3)
    assert streams.stream("x") is streams.stream("x")


def test_exponential_mean_roughly_correct():
    rng = RandomStreams(seed=11).stream("exp")
    draws = [exponential(rng, 2.0) for _ in range(20000)]
    mean = sum(draws) / len(draws)
    assert 1.9 < mean < 2.1


def test_exponential_non_positive_mean():
    rng = RandomStreams(seed=1).stream("e")
    assert exponential(rng, 0) == 0.0
    assert exponential(rng, -5) == 0.0


def test_zipf_concentrates_on_low_indices():
    rng = RandomStreams(seed=17).stream("z")
    draws = [zipf_index(rng, 100, skew=1.5) for _ in range(5000)]
    head = sum(1 for d in draws if d < 10)
    assert head > len(draws) * 0.5


def test_zipf_uniform_when_skew_zero():
    rng = RandomStreams(seed=19).stream("z0")
    draws = [zipf_index(rng, 10, skew=0) for _ in range(5000)]
    head = sum(1 for d in draws if d < 5)
    assert 0.4 < head / len(draws) < 0.6


def test_zipf_invalid_n():
    rng = RandomStreams(seed=1).stream("z")
    with pytest.raises(ValueError):
        zipf_index(rng, 0)
