"""Shared configuration of the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures; the first
line of each file's docstring names it (``test_bench_experiment1_time.py`` is
Figure 5, left).  The workloads are scaled down from the
paper's (which used up to 300,000 sessions on an 11,000-router topology) so the
whole suite completes in a few minutes of pure Python; the *shapes* of the
series -- who wins, growth trends, crossovers -- are what is being reproduced.

Run with::

    pytest benchmarks/ --benchmark-only -s

(the ``-s`` flag shows the reproduced tables; without it they are captured).
"""

import pytest


@pytest.fixture
def print_table(capsys):
    """Print a reproduced table so it is visible even with output capturing."""

    def _print(title, text):
        with capsys.disabled():
            print()
            print("=" * 72)
            print(title)
            print("=" * 72)
            print(text)

    return _print
