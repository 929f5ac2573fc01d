"""Ablation: B-Neck cost on canonical topologies and delay models.

Beyond the transit-stub networks of the paper's evaluation, this bench profiles
the protocol on the canonical topologies (single bottleneck, parking lot,
dumbbell) where the max-min structure is fully understood, and quantifies two
design-relevant sensitivities:

* packets per session as the amount of session interaction grows (sessions
  sharing one bottleneck vs. sessions chained along a parking lot);
* the effect of propagation delay on the number of probe cycles (slower WAN
  links mean fewer, more up-to-date probe cycles -- the reason the paper's WAN
  scenarios transmit fewer packets than LAN).
"""

import math
import time

from repro.core.actions import JoinAction
from repro.core.protocol import BNeckProtocol
from repro.core.validation import validate_against_oracle
from repro.network.topology import dumbbell_topology, parking_lot_topology
from repro.network.transit_stub import big_network, medium_network
from repro.network.units import MBPS
from repro.simulator.clock import microseconds, milliseconds
from repro.workloads.generator import WorkloadGenerator


def _join(session_id, source_router, destination_router):
    """A greedy session joining at time 0 between two fresh hosts on
    1000 Mbps access links."""
    return JoinAction(session_id, source_router, destination_router, math.inf, 0.0,
                      1000 * MBPS, microseconds(1))


def _single_bottleneck_run(session_count, propagation_delay):
    network = dumbbell_topology(
        side_count=session_count, bottleneck_capacity=100 * MBPS, delay=propagation_delay
    )
    protocol = BNeckProtocol(network)
    protocol.apply_actions(
        [_join("d%d" % index, "west%d" % index, "east%d" % index)
         for index in range(session_count)]
    )
    protocol.run_until_quiescent()
    assert validate_against_oracle(protocol).valid
    return protocol.tracer.total


def _parking_lot_run(hop_count):
    network = parking_lot_topology(hop_count, capacity=100 * MBPS)
    protocol = BNeckProtocol(network)
    protocol.apply_actions(
        [_join("long", "r0", "r%d" % hop_count)]
        + [_join("short%d" % hop, "r%d" % hop, "r%d" % (hop + 1)) for hop in range(hop_count)]
    )
    protocol.run_until_quiescent()
    assert validate_against_oracle(protocol).valid
    return protocol.tracer.total


def test_single_bottleneck_scaling(benchmark, print_table):
    def sweep():
        return {count: _single_bottleneck_run(count, microseconds(1)) for count in (10, 50, 200)}

    packets = benchmark.pedantic(sweep, iterations=1, rounds=1)
    lines = ["sessions  packets  packets/session"]
    for count, total in packets.items():
        lines.append("%8d  %7d  %.1f" % (count, total, total / float(count)))
    print_table("Ablation -- one shared bottleneck, LAN delays", "\n".join(lines))
    # All sessions share a single bottleneck: a constant number of probe
    # cycles per session suffices, so packets grow about linearly.
    per_session = [total / float(count) for count, total in packets.items()]
    assert max(per_session) <= 4 * min(per_session)


def test_parking_lot_scaling(benchmark, print_table):
    def sweep():
        return {hops: _parking_lot_run(hops) for hops in (2, 4, 8, 16)}

    packets = benchmark.pedantic(sweep, iterations=1, rounds=1)
    lines = ["hops  packets"]
    for hops, total in packets.items():
        lines.append("%4d  %7d" % (hops, total))
    print_table("Ablation -- parking lot, growing chain length", "\n".join(lines))
    totals = list(packets.values())
    assert totals == sorted(totals)


def _transit_stub_run(build, session_count, seed):
    network = build("lan", seed=seed)
    protocol = BNeckProtocol(network)
    generator = WorkloadGenerator(network, seed=seed + session_count)
    protocol.apply_actions(generator.generate(session_count, join_window=(0.0, 1e-3)))
    start = time.perf_counter()
    quiescence = protocol.run_until_quiescent()
    wall_clock = time.perf_counter() - start
    return protocol, quiescence, wall_clock


def test_transit_stub_scaling(benchmark, print_table):
    """Larger transit-stub workloads exercising the refactored hot path.

    This is the bench whose trajectory makes hot-path wins visible: it runs
    the paper's Medium and Big topologies with session populations beyond the
    Figure-5 sweeps, and reports simulated events per wall-clock second.
    """

    cases = (
        ("medium", medium_network, 200),
        ("medium", medium_network, 400),
        ("big", big_network, 250),
    )

    def sweep():
        rows = []
        for label, build, session_count in cases:
            protocol, quiescence, wall_clock = _transit_stub_run(build, session_count, seed=13)
            assert validate_against_oracle(protocol).valid
            rows.append(
                (
                    label,
                    session_count,
                    protocol.simulator.events_processed,
                    protocol.tracer.total,
                    quiescence,
                    wall_clock,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    lines = ["network   sessions    events   packets   quiescence [ms]   events/s"]
    for label, count, events, packets, quiescence, wall_clock in rows:
        lines.append(
            "%-9s %8d  %8d  %8d   %15.3f   %8.0f"
            % (label, count, events, packets, quiescence * 1e3, events / wall_clock)
        )
    print_table("Ablation -- transit-stub scaling (hot-path throughput)", "\n".join(lines))
    # More sessions on the same topology mean more protocol work.
    medium_events = [events for label, _, events, _, _, _ in rows if label == "medium"]
    assert medium_events == sorted(medium_events)
    assert all(packets > 0 for _, _, _, packets, _, _ in rows)


def test_wan_delay_reduces_packets(benchmark, print_table):
    def compare():
        lan = _single_bottleneck_run(100, microseconds(1))
        wan = _single_bottleneck_run(100, milliseconds(5))
        return lan, wan

    lan_packets, wan_packets = benchmark.pedantic(compare, iterations=1, rounds=1)
    print_table(
        "Ablation -- effect of propagation delay (100 sessions, one bottleneck)",
        "LAN packets: %d\nWAN packets: %d" % (lan_packets, wan_packets),
    )
    # Slow links slow down probe cycles, so fewer probes are wasted on stale
    # configurations: the WAN run never needs more packets than the LAN run.
    assert wan_packets <= lan_packets
