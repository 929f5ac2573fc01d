"""Dynamic sessions: joins, leaves and rate changes, with API.Rate callbacks.

This example exercises the full session API of the paper on a parking-lot
topology, driven through the shared experiment entry point
(:class:`~repro.experiments.runner.ExperimentRunner` over a
:class:`~repro.experiments.runner.ScenarioSpec` with a prebuilt network):

* ``API.Join`` -- sessions arrive one after the other and B-Neck renegotiates
  the max-min rates each time;
* ``API.Change`` -- a session lowers its maximum requested rate, freeing
  bandwidth for the others;
* ``API.Leave`` -- a session departs and the remaining ones are upgraded;
* ``API.Rate`` -- every renegotiated rate is delivered to the session's
  :class:`~repro.core.api.SessionApplication`, which records it.  Deliveries
  are batched per simulation instant, so an application receives one
  notification per renegotiated instant.

Each step is one batch of :mod:`repro.core.actions` records dated at the
current simulated time.  After every step the protocol becomes quiescent
again: each :meth:`~repro.experiments.runner.ExperimentRunner.checkpoint`
validates the allocation against the centralized oracle and reports the
number of control packets spent on the reconfiguration, and the step's new
``API.Rate`` notifications are printed in time order.  Notifications of
one instant print in the order their sessions joined, which need not be
the order the protocol delivered them in.

Run with::

    python examples/dynamic_sessions.py
"""

import argparse
import sys

from repro import MBPS, parking_lot_topology
from repro.core import ChangeAction, JoinAction, LeaveAction
from repro.experiments import ExperimentRunner, ScenarioSpec
from repro.simulator.clock import microseconds


def parse_arguments(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    return parser.parse_args(argv)


def main(argv=None):
    parse_arguments(argv)
    # Three 100 Mbps links in a row: r0 - r1 - r2 - r3.
    spec = ScenarioSpec(network=parking_lot_topology(3, capacity=100 * MBPS))
    with ExperimentRunner(spec) as runner:
        protocol = runner.protocol
        # Session id -> how many of its notifications are printed already.
        printed = {}

        def step(description, *actions):
            print("%s" % description)
            runner.apply_actions(actions)
            measurement = runner.checkpoint(description)
            assert measurement.validated
            new = []
            for session_id in printed:
                notifications = protocol.application(session_id).notifications
                new.extend(notifications[printed[session_id]:])
                printed[session_id] = len(notifications)
            for notification in sorted(new, key=lambda notification: notification.time):
                print(
                    "    [t=%7.3f ms] API.Rate(%s, %.2f Mbps)"
                    % (notification.time * 1e3, notification.session_id,
                       notification.rate / MBPS)
                )
            print(
                "    quiescent again at t=%.3f ms (+%d control packets)"
                % (measurement.quiescence_time * 1e3, measurement.packets)
            )
            print()

        def join(name, source_router, destination_router):
            printed[name] = 0
            return JoinAction(name, source_router, destination_router, float("inf"),
                              protocol.simulator.now, 1000 * MBPS, microseconds(1))

        def now():
            return protocol.simulator.now

        step("1. 'long' joins and gets the whole path (100 Mbps)", join("long", "r0", "r3"))
        step("2. 'short-a' joins on the first hop: both drop to 50 Mbps",
             join("short-a", "r0", "r1"))
        step("3. 'short-b' and 'short-c' join: every link is now a 50/50 bottleneck",
             join("short-b", "r1", "r2"), join("short-c", "r2", "r3"))
        step("4. 'short-a' caps itself at 20 Mbps: 'long' can only use 50 elsewhere",
             ChangeAction("short-a", 20 * MBPS, now()))
        step("5. 'short-b' leaves: 'long' is still limited by the last hop",
             LeaveAction("short-b", now()))
        step("6. 'short-c' leaves too: 'long' grows to 80 Mbps (short-a keeps 20)",
             LeaveAction("short-c", now()))

        print("final rates:")
        allocation = protocol.current_allocation()
        for session_id, rate in sorted(allocation.as_dict().items()):
            print("    %-8s %7.2f Mbps" % (session_id, rate / MBPS))
        print("total control packets over the whole run: %d" % runner.tracer.total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
