"""Seeded randomness for reproducible workloads and topologies.

All stochastic choices in the library (topology generation, session endpoints,
arrival times, WAN propagation delays) are drawn from a :class:`random.Random`
seeded with :func:`fork_seed`, so a single integer seed makes an entire
experiment reproducible, and each subsystem (topology structure, topology
delays, workload) draws from its own stream without perturbing the others.

:func:`fork_seed` derives a child seed as the SHA-256 digest of
``"%r|%r" % (seed, label)`` (UTF-8), whose first 8 bytes, read big-endian,
are masked with ``0x7FFFFFFF``.  The digest comes from the interpreter's
built-in SHA-256 module, ``_sha2`` on CPython 3.12 and later or ``_sha256``
on 3.9 to 3.11, and from ``hashlib`` only where neither exists: importing
``hashlib`` loads OpenSSL, about 3.5 MiB of resident memory for one hash of
some 20 bytes.  The standard library's own ``random`` module avoids
``hashlib`` for the same reason.  Either module gives the same digest.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def fork_seed(seed, label):
    """The seed of the stream ``label`` derived from ``seed``.

    The derivation uses a *stable* hash: Python's built-in ``hash`` of a
    string is randomized per process (PYTHONHASHSEED), which used to make
    every "seeded" topology and workload differ from one interpreter run to
    the next.
    """
    digest = sha256(("%r|%r" % (seed, label)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFF
