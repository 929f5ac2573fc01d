"""Dynamic sessions: joins, leaves and rate changes, with API.Rate callbacks.

This example exercises the full session API of the paper on a parking-lot
topology, driven through the shared experiment entry point
(:class:`~repro.experiments.runner.ExperimentRunner` over a
:class:`~repro.experiments.runner.ScenarioSpec` with a custom topology):

* ``API.Join`` -- sessions arrive one after the other and B-Neck renegotiates
  the max-min rates each time;
* ``API.Change`` -- a session lowers its maximum requested rate, freeing
  bandwidth for the others;
* ``API.Leave`` -- a session departs and the remaining ones are upgraded;
* ``API.Rate`` -- every renegotiated rate is delivered to the application
  (a subclass of :class:`SessionApplication` that prints each notification).
  Deliveries are batched per simulation instant -- the protocol default --
  so an application sees one callback per renegotiated instant.

After every change the protocol becomes quiescent again: each
:meth:`~repro.experiments.runner.ExperimentRunner.checkpoint` validates the
allocation against the centralized oracle and reports the number of control
packets spent on the reconfiguration.

Run with::

    python examples/dynamic_sessions.py
"""

import argparse
import sys

from repro import MBPS, parking_lot_topology
from repro.core import SessionApplication
from repro.experiments import ExperimentRunner, ScenarioSpec
from repro.simulator.clock import microseconds


class PrintingApplication(SessionApplication):
    """An application that logs every API.Rate notification it receives."""

    def on_rate(self, time, rate):
        print(
            "    [t=%7.3f ms] API.Rate(%s, %.2f Mbps)"
            % (time * 1e3, self.session_id, rate / MBPS)
        )


def run_step(runner, description):
    print("%s" % description)
    measurement = runner.checkpoint(description)
    assert measurement.validated
    print(
        "    quiescent again at t=%.3f ms (+%d control packets)"
        % (measurement.quiescence_time * 1e3, measurement.packets)
    )
    print()


def parse_arguments(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    return parser.parse_args(argv)


def main(argv=None):
    parse_arguments(argv)
    # Three 100 Mbps links in a row: r0 - r1 - r2 - r3.
    spec = ScenarioSpec(
        name="parking-lot",
        network_builder=lambda: parking_lot_topology(3, capacity=100 * MBPS),
    )
    with ExperimentRunner(spec) as runner:
        network, protocol = runner.network, runner.protocol

        def new_session(name, source_router, destination_router, demand=float("inf")):
            source = network.attach_host(source_router, 1000 * MBPS, microseconds(1))
            sink = network.attach_host(destination_router, 1000 * MBPS, microseconds(1))
            session = protocol.create_session(
                source.node_id, sink.node_id, demand=demand, session_id=name
            )
            application = PrintingApplication(name, demand)
            protocol.join(session, application=application)
            return application

        new_session("long", "r0", "r3")
        run_step(runner, "1. 'long' joins and gets the whole path (100 Mbps)")

        new_session("short-a", "r0", "r1")
        run_step(runner, "2. 'short-a' joins on the first hop: both drop to 50 Mbps")

        new_session("short-b", "r1", "r2")
        new_session("short-c", "r2", "r3")
        run_step(runner, "3. 'short-b' and 'short-c' join: every link is now a 50/50 bottleneck")

        protocol.change("short-a", 20 * MBPS)
        run_step(runner, "4. 'short-a' caps itself at 20 Mbps: 'long' can only use 50 elsewhere")

        protocol.leave("short-b")
        run_step(runner, "5. 'short-b' leaves: 'long' is still limited by the last hop")

        protocol.leave("short-c")
        run_step(runner, "6. 'short-c' leaves too: 'long' grows to 80 Mbps (short-a keeps 20)")

        print("final rates:")
        allocation = protocol.current_allocation()
        for session_id, rate in sorted(allocation.as_dict().items()):
            print("    %-8s %7.2f Mbps" % (session_id, rate / MBPS))
        print("total control packets over the whole run: %d" % runner.tracer.total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
