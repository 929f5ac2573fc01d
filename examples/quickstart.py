"""Quickstart: max-min fair rates on a dumbbell network with B-Neck.

Builds a dumbbell topology (a single 100 Mbps bottleneck between two sets of
edge routers), joins three sessions across the bottleneck plus one local
session that never touches it, as one batch of
:class:`~repro.core.actions.JoinAction` records, runs the distributed B-Neck
protocol until it becomes quiescent, and validates the run: the network is
stable (Definition 2 of the paper), the rates equal Centralized B-Neck's and
the max-min certificate finds no violation.

Run with::

    python examples/quickstart.py
"""

from repro import BNeckProtocol, MBPS, dumbbell_topology, validate_against_oracle
from repro.core import JoinAction
from repro.simulator.clock import microseconds


def main():
    # A dumbbell: west0..west2 -- left == right -- east0..east2, with a
    # 100 Mbps bottleneck between "left" and "right".
    network = dumbbell_topology(side_count=3, bottleneck_capacity=100 * MBPS)
    protocol = BNeckProtocol(network)

    def join(name, source_router, destination_router, demand):
        # API.Join at time 0 between two fresh hosts on 1000 Mbps access links.
        return JoinAction(name, source_router, destination_router, demand, 0.0,
                          1000 * MBPS, microseconds(1))

    # Three sessions across the bottleneck; one of them only wants 10 Mbps.
    # A local session between two hosts on the same edge router is not
    # limited by the bottleneck at all.
    sessions = protocol.apply_actions([
        join("bulk-1", "west0", "east0", demand=float("inf")),
        join("bulk-2", "west1", "east1", demand=float("inf")),
        join("capped", "west2", "east2", demand=10 * MBPS),
        join("local", "west0", "west1", demand=float("inf")),
    ])

    quiescence_time = protocol.run_until_quiescent()

    print("B-Neck became quiescent after %.3f ms of simulated time" % (quiescence_time * 1e3))
    print("control packets transmitted: %d" % protocol.tracer.total)
    print()
    print("max-min fair rates notified through API.Rate:")
    for name in sorted(sessions):
        print("  %-8s -> %7.2f Mbps" % (name, protocol.application(name).current_rate / MBPS))

    # The "capped" session keeps 10 Mbps, so the two bulk sessions share the
    # remaining 90 Mbps of the bottleneck: 45 Mbps each.  The local session
    # never crosses the bottleneck: it gets whatever its 1000 Mbps edge links
    # have left over after the bulk sessions' share.
    validation = validate_against_oracle(protocol)
    print()
    print("validation: %s" % ("OK" if validation.valid else "FAILED: %s" % validation.reason))
    print("  stable, no packet in flight (Definition 2): %s" % bool(validation.stability))
    print("  rates equal Centralized B-Neck's:           %s" % validation.matches_centralized)
    print("  max-min certificate violations:             %d" % len(validation.violations))


if __name__ == "__main__":
    main()
