"""Unit tests for clock helpers and the seeded random streams."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from repro.simulator.clock import (
    microseconds,
    milliseconds,
    seconds,
)
from repro.simulator.random_source import fork_seed

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# ``fork_seed(seed, label)`` for every label the library forks
# (transit-stub structure and delays, workload generator).  Every seeded
# topology, delay and workload stream follows from these values.
FORKED_SEEDS = {
    0: {"transit-stub": 306120612, "transit-stub-delays": 1571929834,
        "workload": 248245869},
    1: {"transit-stub": 1786347687, "transit-stub-delays": 295032041,
        "workload": 2100472134},
    3: {"transit-stub": 475522159, "transit-stub-delays": 842905417,
        "workload": 1454902047},
}
LABELS = sorted(FORKED_SEEDS[0])


def _hashlib_derivation(seed, label):
    digest = hashlib.sha256(("%r|%r" % (seed, label)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFF


class TestClock(object):
    def test_units_relate_correctly(self):
        assert seconds(1) == 1.0
        assert milliseconds(1) == pytest.approx(1e-3)
        assert microseconds(1) == pytest.approx(1e-6)
        assert milliseconds(1000) == pytest.approx(seconds(1))
        assert microseconds(1000) == pytest.approx(milliseconds(1))


def _stream(seed, label="workload"):
    return random.Random(fork_seed(seed, label))


class TestForkedStreams(object):
    def test_same_seed_same_sequence(self):
        first = _stream(7)
        second = _stream(7)
        assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert _stream(1).random() != _stream(2).random()

    def test_fork_is_deterministic_and_independent(self):
        fork_a = _stream(3, "topology")
        fork_b = _stream(3, "topology")
        other = _stream(3, "workload")
        sequence_a = [fork_a.random() for _ in range(3)]
        sequence_b = [fork_b.random() for _ in range(3)]
        assert sequence_a == sequence_b
        assert sequence_a != [other.random() for _ in range(3)]

    @pytest.mark.parametrize("seed", sorted(FORKED_SEEDS))
    def test_forked_seeds_are_pinned(self, seed):
        assert {label: fork_seed(seed, label) for label in LABELS} == FORKED_SEEDS[seed]

    def test_fork_is_the_sha256_derivation(self):
        labels = LABELS + ["", "topology", "é", 7, ("a", 1), None]
        for seed in list(range(-3, 40)) + [2**31 - 1, 2**31, 2**64 + 5, "s", 1.5]:
            for label in labels:
                assert fork_seed(seed, label) == _hashlib_derivation(seed, label), (seed, label)

    def test_forked_seeds_do_not_depend_on_the_hash_seed(self):
        script = (
            "import json\n"
            "from repro.simulator.random_source import fork_seed\n"
            "print(json.dumps({seed: {label: fork_seed(seed, label)\n"
            "                         for label in %r} for seed in %r}))\n"
            % (LABELS, sorted(FORKED_SEEDS))
        )
        outputs = []
        for hash_seed in ("1", "4242"):
            environment = dict(os.environ, PYTHONHASHSEED=hash_seed)
            environment["PYTHONPATH"] = os.pathsep.join(
                [SRC] + [p for p in environment.get("PYTHONPATH", "").split(os.pathsep) if p]
            )
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=environment, check=True,
                capture_output=True, text=True, timeout=60,
            ).stdout)
        assert outputs[0] == outputs[1]
        assert {int(seed): seeds for seed, seeds in json.loads(outputs[0]).items()} == (
            FORKED_SEEDS)

    def test_uniform_respects_bounds(self):
        source = _stream(11)
        for _ in range(100):
            value = source.uniform(2.0, 5.0)
            assert 2.0 <= value <= 5.0

    def test_randint_respects_bounds(self):
        source = _stream(12)
        values = {source.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_choice_and_sample(self):
        source = _stream(13)
        population = ["a", "b", "c", "d"]
        assert source.choice(population) in population
        sample = source.sample(population, 2)
        assert len(sample) == 2
        assert len(set(sample)) == 2

    def test_pair_returns_distinct_elements(self):
        source = _stream(14)
        for _ in range(50):
            first, second = source.sample(["x", "y", "z"], 2)
            assert first != second

    def test_shuffle_preserves_elements(self):
        source = _stream(15)
        items = list(range(10))
        shuffled = list(items)
        source.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_expovariate_positive(self):
        source = _stream(16)
        assert all(source.expovariate(10.0) > 0 for _ in range(20))
