"""RCP-style baseline: router-assisted processor-sharing rate control.

RCP (Dukkipati et al., *Processor sharing flows in the Internet*) is the
paper's representative of modern explicit congestion controllers that keep no
per-session state: every router link maintains a single advertised rate
``R(t)`` updated from aggregate measurements,

    R(t) = R(t - T) * (1 + (T / d) * alpha * (C - y(t)) / C)

where ``y(t)`` is the aggregate arrival rate at the link over the last control
interval ``T`` and ``d`` the average round-trip time.  Sessions periodically
learn ``min R`` over their path and transmit at that rate.  (The queue-draining
term of the full RCP law is dropped: this is a control-plane simulation without
packet queues.)

Like BFYZ and CG, RCP never stops sending control traffic, and with many
interacting sessions its multiplicative updates converge slowly -- the paper
observed no convergence in the allotted time beyond 500 sessions.
"""

from repro.baselines.base import BaselineProtocol, LinkController

#: The gain ``alpha`` of the RCP law.
ALPHA = 0.4
#: The advertised rate never falls below this fraction of the capacity.
MINIMUM_FRACTION = 1e-4


class RCPLinkController(LinkController):
    """Single-rate link controller implementing the (queue-less) RCP law."""

    def __init__(self, link, average_rtt=1e-3):
        super(RCPLinkController, self).__init__(link)
        self.average_rtt = average_rtt
        self.minimum_rate = MINIMUM_FRACTION * link.capacity
        self.advertised = link.capacity

    def on_probe(self, session_id, demand, current_rate):
        return self.advertised

    def periodic_update(self, crossing_rates, interval):
        capacity = self.link.capacity
        aggregate = sum(crossing_rates)
        spare_fraction = (capacity - aggregate) / capacity
        factor = 1.0 + (interval / self.average_rtt) * ALPHA * spare_fraction
        # Keep the advertised rate within sane bounds: multiplicative updates
        # must neither collapse to zero nor explode past the capacity.
        factor = max(factor, 0.1)
        self.advertised = min(max(self.advertised * factor, self.minimum_rate), capacity)


class RCPProtocol(BaselineProtocol):
    """The RCP baseline (no per-session state, non-quiescent)."""

    name = "rcp"
    uses_per_session_state = False
    needs_periodic_updates = True

    def _make_controller(self, link):
        return RCPLinkController(link, average_rtt=self.probe_interval)
