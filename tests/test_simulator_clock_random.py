"""Unit tests for clock helpers and the seeded random source."""

import pytest

from repro.simulator.clock import (
    format_time,
    microseconds,
    milliseconds,
    seconds,
)
from repro.simulator.random_source import RandomSource


class TestClock(object):
    def test_units_relate_correctly(self):
        assert seconds(1) == 1.0
        assert milliseconds(1) == pytest.approx(1e-3)
        assert microseconds(1) == pytest.approx(1e-6)
        assert milliseconds(1000) == pytest.approx(seconds(1))
        assert microseconds(1000) == pytest.approx(milliseconds(1))

    def test_format_time_picks_unit(self):
        assert format_time(2.5) == "2.500 s"
        assert format_time(milliseconds(2.5)) == "2.500 ms"
        assert format_time(microseconds(3)) == "3.000 us"


class TestRandomSource(object):
    def test_same_seed_same_sequence(self):
        first = RandomSource(7)
        second = RandomSource(7)
        assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert RandomSource(1).random() != RandomSource(2).random()

    def test_fork_is_deterministic_and_independent(self):
        base = RandomSource(3)
        fork_a = base.fork("topology")
        fork_b = RandomSource(3).fork("topology")
        other = RandomSource(3).fork("workload")
        sequence_a = [fork_a.random() for _ in range(3)]
        sequence_b = [fork_b.random() for _ in range(3)]
        assert sequence_a == sequence_b
        assert sequence_a != [other.random() for _ in range(3)]

    def test_uniform_respects_bounds(self):
        source = RandomSource(11)
        for _ in range(100):
            value = source.uniform(2.0, 5.0)
            assert 2.0 <= value <= 5.0

    def test_randint_respects_bounds(self):
        source = RandomSource(12)
        values = {source.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_choice_and_sample(self):
        source = RandomSource(13)
        population = ["a", "b", "c", "d"]
        assert source.choice(population) in population
        sample = source.sample(population, 2)
        assert len(sample) == 2
        assert len(set(sample)) == 2

    def test_pair_returns_distinct_elements(self):
        source = RandomSource(14)
        for _ in range(50):
            first, second = source.pair(["x", "y", "z"])
            assert first != second

    def test_shuffle_preserves_elements(self):
        source = RandomSource(15)
        items = list(range(10))
        shuffled = list(items)
        source.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_expovariate_positive(self):
        source = RandomSource(16)
        assert all(source.expovariate(10.0) > 0 for _ in range(20))
