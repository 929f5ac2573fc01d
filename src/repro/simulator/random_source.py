"""Seeded randomness for reproducible workloads and topologies.

All stochastic choices in the library (topology generation, session endpoints,
arrival times, WAN propagation delays) flow through a :class:`RandomSource`, so
a single integer seed makes an entire experiment reproducible.

:meth:`RandomSource.fork` derives a child seed as the SHA-256 digest of
``"%r|%r" % (seed, label)`` (UTF-8), whose first 8 bytes, read big-endian,
are masked with ``0x7FFFFFFF``.  The digest comes from the interpreter's
built-in SHA-256 module, ``_sha2`` on CPython 3.12 and later or ``_sha256``
on 3.9 to 3.11, and from ``hashlib`` only where neither exists: importing
``hashlib`` loads OpenSSL, about 3.5 MiB of resident memory for one hash of
some 20 bytes.  The standard library's own ``random`` module avoids
``hashlib`` for the same reason.  Either module gives the same digest.
"""

import random

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


class RandomSource(object):
    """A thin wrapper around :class:`random.Random` with domain helpers."""

    def __init__(self, seed=0):
        self.seed = seed
        self._rng = random.Random(seed)

    def fork(self, label):
        """Derive an independent stream, deterministically, from a label.

        Forked streams let different subsystems (topology vs. workload) draw
        random numbers without perturbing each other's sequences.  The child
        seed is derived with a *stable* hash: Python's built-in ``hash`` of a
        string is randomized per process (PYTHONHASHSEED), which used to make
        every "seeded" topology and workload differ from one interpreter run
        to the next.
        """
        digest = sha256(
            ("%r|%r" % (self.seed, label)).encode("utf-8")
        ).digest()
        derived_seed = int.from_bytes(digest[:8], "big") & 0x7FFFFFFF
        return RandomSource(derived_seed)

    def uniform(self, low, high):
        """Uniform float in ``[low, high]``."""
        return self._rng.uniform(low, high)

    def randint(self, low, high):
        """Uniform integer in ``[low, high]`` (inclusive)."""
        return self._rng.randint(low, high)

    def choice(self, sequence):
        """Uniformly chosen element of a non-empty sequence."""
        return self._rng.choice(sequence)

    def sample(self, population, count):
        """``count`` distinct elements drawn without replacement."""
        return self._rng.sample(population, count)

    def shuffle(self, items):
        """Shuffle ``items`` in place."""
        self._rng.shuffle(items)

    def random(self):
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def expovariate(self, rate):
        """Exponentially distributed value with the given rate."""
        return self._rng.expovariate(rate)

    def paretovariate(self, alpha):
        """Pareto-distributed value (heavy-tailed, minimum 1) with shape ``alpha``."""
        return self._rng.paretovariate(alpha)

    def pair(self, population):
        """Two distinct elements of ``population`` chosen uniformly."""
        first, second = self._rng.sample(population, 2)
        return first, second

    def __repr__(self):
        return "RandomSource(seed=%d)" % self.seed
