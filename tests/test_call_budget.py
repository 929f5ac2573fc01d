"""Call-count budgets for the simulation hot path and for routing.

A small flash crowd (the shape of perfbench's ``crowd`` workload, scaled
down) runs to quiescence under :mod:`cProfile`, and the number of calls into
the ``repro`` package's Python functions per processed event must stay
within a budget.  The test counts calls, not time, so it is deterministic: a
change that puts one more Python frame on every packet's path fails it, on
any machine.

Built-in (C) calls and standard-library frames are not counted, so the
count is fixed by this package's code, not by the interpreter.  The one
version difference is comprehensions: up to CPython 3.11 each list, dict
or set comprehension runs in its own frame, and from 3.12 on they are
inlined (PEP 709) and not counted, so newer interpreters count fewer calls.

Measured on CPython 3.11.7: 20.4 calls per event when every hop resolved its
reverse link and the link's delay and key per packet and the simulator
pushed through the event queue; 16.0 with per-stage hop data and the
single-push send path, of which 0.6 are comprehension frames (so about 15.5
on 3.12), later 15.6; 8.8 once each send became one ``forward_*`` call
pushing one queue entry whose callback is the receiving handler (no
``_send_*``, ``_transmit``, ``_deliver`` or ``receive`` frame, and no
``pop_entry`` call for a bare head); 8.6 once the link state kept its
``R_e`` and ``F_e`` rate maxima, so the ``F_e`` offender pass asks for the
largest offender rate in one call instead of building the list of rated
members and a comprehension over it; 7.6 once a send counts its packet
with one increment of the session's list of per-type counts instead of a
``PacketTracer.record`` call; 5.6 once each handler step on the link state
became one call: ``B_e`` is a field instead of a method recomputing it,
``settle`` and ``wake`` fuse the state and rate changes of a Response and an
Update, ProcessNewRestricted runs inside the link state, and the endpoints'
delivery tables name their handlers instead of a ``receive`` that looks
them up again; 4.6 once a RouterLink forwards the packet it received
instead of building a new one per hop, a Join or Probe takes one link-state
call (``await_response``) instead of two or three, and the link state indexes
its IDLE ``R_e`` members by recorded rate, so no scan recounts a stale
``R_e`` maximum; 4.37 once a heap entry carries the handler, its target and
the packet as plain fields, so a delivery calls the handler with no
``functools.partial`` built per hop, and the RouterLink handlers compare
rates with an inline ``isclose`` and ask the link state one query instead of
``state_of`` plus a membership test or ``rate_of``; 4.22 once
``add_unrestricted`` moves a session from ``R_e`` to ``F_e`` in one frame
instead of three; 3.77 once every stage holds a hop row per session, so the
destination sends through ``forward_upstream`` (no
``forward_upstream_from_destination``), a Join or Probe calls
ProcessNewRestricted only when it can act, and an accepted Response settles
and answers Figure 2's line-25 test in one link-state call; 3.48 once a
SetBottleneck, a Leave and a refused Response each became one link-state
call (``set_bottleneck``, ``leave``, ``refuse``) instead of up to four, and
a Join or Probe calls ProcessNewRestricted only when some ``F_e`` rate can
offend ``B_e``, not whenever ``F_e`` is not empty.  Nearly every
event is a packet delivery, so one more frame per packet adds about 1.0.  The default
tracer must see no call at all per packet: the flash crowd makes none to
``record``.  No ``functools.partial`` may sit on the heap at any point of
the flash crowd, so a closure per hop cannot come back unnoticed (a
``partial`` call runs in C and would not show in the call count).

Every RouterLink delivery makes exactly one call to its link state, which
performs the handler's whole step of Figure 2: on a finite-demand Poisson
churn, where SetBottlenecks move sessions to ``F_e`` and Leaves wake the
sessions settled at ``B_e``, the calls from RouterLink handlers into
:mod:`repro.core.state` equal the deliveries.  Measured on that run (11,825
deliveries): 1.588 such calls per delivery while a SetBottleneck asked up
to four queries and transitions in turn, a Leave woke the settled sessions
one call at a time and a refused Response asked line 25's test apart.

Routing has a budget of its own: the hosts a workload attaches are leaves
that never relay, so routing a fixed set of router pairs must make the same
number of package calls however many hosts hang off the routers.  Measured
on CPython 3.11.7 for 200 router pairs of Medium: 79,886 calls with no host
and 318,364 with 2,000 hosts when the search looked up every new neighbour's
node; 38,460 with either when it expanded only a per-node relay list.  A
:class:`~repro.network.routing.PathComputer` reads each router's router
neighbours from a map it builds at its first search and rebuilds only when a
router or a router link has been added, so once that map exists its router
routes make no call per node: 800 calls for the same 200 pairs, with no host
or with 2,000, i.e. four per route (``router_route``, the network's
``router_changes`` it compares with the map's, the search and the path
reconstruction); 600, three per route, once the bidirectional search over
the dense router index rebuilt the path inside the search.
"""

import cProfile
import math
import os
import pstats
import random
from functools import partial

import repro
from repro.core import state as link_state
from repro.core.actions import ChangeAction, JoinAction, LeaveAction
from repro.core.protocol import BNeckProtocol
from repro.core.router_link import RouterLinkTask
from repro.core.validation import validate_against_oracle
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.network.routing import PathComputer
from repro.network.transit_stub import (
    HOST_LINK_CAPACITY,
    HOST_LINK_DELAY,
    LAN,
    medium_network,
    small_network,
    stub_routers,
)
from repro.simulator.tracing import PacketTracer
from repro.workloads.stochastic import PoissonChurnWorkload

SESSIONS = 40
# Calls per processed event: the measured 3.48 plus 0.4 of a frame per event.
CALLS_PER_EVENT_BUDGET = 3.9
PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _flash_crowd():
    """Greedy sessions join towards one stub domain within a millisecond;
    a fifth leave and a fifth change rate behind them."""
    rng = random.Random(11)
    network = small_network(LAN, seed=1)
    protocol = BNeckProtocol(network)
    routers = sorted(stub_routers(network))
    domains = {}
    for router in routers:
        domains.setdefault(router.rsplit(".", 1)[0], []).append(router)
    targets = domains[sorted(domains)[0]]
    outside = [router for router in routers if router not in targets]
    actions = []
    for index in range(1, SESSIONS + 1):
        source, destination = rng.choice(outside), rng.choice(targets)
        actions.append(JoinAction("session-%d" % index, source, destination, math.inf,
                                  rng.uniform(1e-4, 1.1e-3), HOST_LINK_CAPACITY, HOST_LINK_DELAY))
    churned = rng.sample([join.session_id for join in actions], SESSIONS * 2 // 5)
    for session_id in churned[: SESSIONS // 5]:
        actions.append(LeaveAction(session_id, rng.uniform(3e-3, 4e-3)))
    for session_id in churned[SESSIONS // 5:]:
        actions.append(ChangeAction(session_id, 5e6, rng.uniform(6e-3, 7e-3)))
    protocol.apply_actions(actions)
    return protocol


def _profile(function):
    """``{function label: (calls, {caller label: calls})}`` of the Python
    functions called while ``function`` runs."""
    profile = cProfile.Profile()
    profile.enable()
    function()
    profile.disable()
    return {
        label: (total_calls, {caller: counts[0] for caller, counts in callers.items()})
        for label, (_, total_calls, _, _, callers) in pstats.Stats(profile).stats.items()
    }


def _package_calls(calls):
    """The calls of a :func:`_profile` into the package's functions."""
    return sum(
        count
        for (filename, _, _), (count, _) in calls.items()
        if os.path.abspath(filename).startswith(PACKAGE_DIR)
    )


def _calls_to(calls, function):
    """The calls of a :func:`_profile` to the Python ``function``."""
    return calls.get(cProfile.label(function.__code__), (0, {}))[0]


def test_python_calls_per_event_within_budget():
    protocol = _flash_crowd()
    calls = _profile(protocol.run_until_quiescent)
    calls_per_event = _package_calls(calls) / protocol.simulator.events_processed
    assert protocol.tracer.total > 10000
    assert _calls_to(calls, BNeckProtocol.forward_downstream) > 0
    assert _calls_to(calls, PacketTracer.record) == 0
    assert validate_against_oracle(protocol).valid
    assert calls_per_event <= CALLS_PER_EVENT_BUDGET, (
        "%.2f package calls per event exceed the budget of %.1f: something "
        "added work to every event or packet" % (calls_per_event, CALLS_PER_EVENT_BUDGET)
    )


def _link_state_calls_per_delivery(calls):
    """``(calls from RouterLink handlers into core/state.py, RouterLink
    deliveries)`` in a :func:`_profile`."""
    handlers = {cProfile.label(handler.__code__) for handler in RouterLinkTask.delivery.values()}
    state_file = os.path.abspath(link_state.__file__)
    from_handlers = sum(
        count
        for (filename, _, _), (_, callers) in calls.items()
        if os.path.abspath(filename) == state_file
        for caller, count in callers.items()
        if caller in handlers
    )
    deliveries = sum(calls.get(handler, (0, {}))[0] for handler in handlers)
    return from_handlers, deliveries


def test_every_router_link_delivery_makes_one_link_state_call():
    """Poisson churn shaped as perfbench's ``poisson`` (about 150 sessions
    held, arrivals at 25,000 per simulated second, finite demands), on Small
    so that the sessions contend for links."""
    with ExperimentRunner(ScenarioSpec(size="small", seed=1)) as runner:
        calls = _profile(lambda: runner.run_scenario(PoissonChurnWorkload(
            arrival_rate=25000.0, mean_holding=6e-3, horizon=2e-3,
            segments=3, demand_low=10e6, demand_high=100e6)))
    from_handlers, deliveries = _link_state_calls_per_delivery(calls)
    assert deliveries > 10000
    # The run takes every fused transition.
    for transition in (link_state.LinkState.set_bottleneck, link_state.LinkState.leave,
                       link_state.LinkState.refuse):
        assert _calls_to(calls, transition) > 50, transition.__name__
    assert from_handlers == deliveries, (
        "%d calls into the link state for %d RouterLink deliveries (%.3f per "
        "delivery): a handler's step of Figure 2 is one call"
        % (from_handlers, deliveries, from_handlers / deliveries)
    )


def test_no_closure_sits_on_the_heap_during_the_flash_crowd():
    protocol = _flash_crowd()
    simulator = protocol.simulator
    pending = 0
    while simulator.step():
        for entry in simulator.heap:
            assert len(entry) == 5
            assert not any(isinstance(field, partial) for field in entry), entry
        pending += len(simulator.heap)
    assert simulator.events_processed > 10000
    assert pending > simulator.events_processed


def _routing_calls(attached_hosts):
    """Package calls to route 200 fixed router pairs on Medium with a
    :class:`PathComputer` whose router map is already built."""
    network = medium_network(LAN, seed=1)
    routers = sorted(node.node_id for node in network.routers())
    rng = random.Random(5)
    pairs = [(rng.choice(routers), rng.choice(routers)) for _ in range(200)]
    for _ in range(attached_hosts):
        network.attach_host(rng.choice(routers), HOST_LINK_CAPACITY, HOST_LINK_DELAY)
    computer = PathComputer(network)
    computer.router_route(routers[0], routers[1])
    return _package_calls(_profile(lambda: [computer.router_route(*pair) for pair in pairs]))


def test_router_routes_make_no_call_per_node():
    """The same calls with no host and with 2,000: attached hosts add
    nothing to a search."""
    calls = _routing_calls(0)
    assert calls == _routing_calls(2000)
    assert calls <= 4 * 200
