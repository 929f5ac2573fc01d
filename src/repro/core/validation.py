"""The checkpoint verdict on a distributed B-Neck run.

A quiescent run is valid when all three of these hold:

* **Definition 2** -- every link is stable: every session it knows is IDLE,
  every ``R_e`` member is recorded at exactly ``B_e`` and, when ``R_e`` is
  not empty, every ``F_e`` member below ``B_e``; and no packet is in flight,
  which ``in_flight_packets`` recounts from the queued deliveries;
* **Theorem 1** -- the rates equal Centralized B-Neck's under
  :func:`~repro.fairness.algebra.rates_equal`, as in the paper's evaluation;
* **the max-min certificate** -- :func:`~repro.fairness.verification.verify_allocation_on`
  finds no violation of the bottleneck characterization.

The certificate is looser than the comparison with Centralized B-Neck: it
tests saturation within a tolerance relative to the link *capacity*, which on
a fast link admits a small member rate that ``rates_equal`` rejects.
Water-filling is not run here; the tests compare it with Centralized B-Neck.
"""

from collections import namedtuple

from repro.core.centralized import centralized_bneck_on
from repro.fairness.algebra import rates_equal
from repro.fairness.bottleneck import LinkTable
from repro.fairness.verification import verify_allocation_on


class StabilityReport(namedtuple("StabilityReport",
                                   "stable unstable_links in_flight_packets checked_links")):
    """The outcome of a stability check."""

    __slots__ = ()

    def __bool__(self):
        return self.stable


def check_stability(protocol):
    """Evaluate Definition 2 on a running :class:`~repro.core.protocol.BNeckProtocol`.

    Returns a :class:`StabilityReport`; the report is truthy iff the network is
    stable *and* no control packet is in flight.
    """
    states = protocol.all_link_states()
    unstable = [state.link_id for state in states if not state.is_stable()]
    in_flight = protocol.in_flight_packets
    return StabilityReport(not unstable and in_flight == 0, unstable, in_flight, len(states))


class ValidationResult(object):
    """The outcome of validating a distributed run.

    ``reason`` names the first cause of an invalid verdict: an unstable link
    (or the packets in flight), a certificate violation, or a session whose
    rate differs from Centralized B-Neck's.  It is ``None`` when the run is
    valid.
    """

    def __init__(self, matches_centralized, max_relative_error, violations, stability,
                 centralized, distributed):
        self.matches_centralized = matches_centralized
        self.max_relative_error = max_relative_error
        self.violations = violations
        self.stability = stability
        self.centralized = centralized
        self.distributed = distributed
        self.reason = None if self.valid else self._first_cause()

    @property
    def valid(self):
        """True when the network is stable, the allocation matches Centralized
        B-Neck and the certificate finds no violation."""
        return self.matches_centralized and not self.violations and self.stability.stable

    def __bool__(self):
        return self.valid

    def _first_cause(self):
        stability = self.stability
        if stability.unstable_links:
            return "link %r is not stable (Definition 2)" % (stability.unstable_links[0],)
        if stability.in_flight_packets:
            return "%d packets in flight" % stability.in_flight_packets
        if self.violations:
            first = self.violations[0]
            return "certificate: %s at %r: %s" % (first.kind, first.subject, first.detail)
        for session_id in list(self.centralized) + list(self.distributed):
            got, rate = self.distributed.get(session_id), self.centralized.get(session_id)
            if got is None or rate is None or not rates_equal(float(got), float(rate)):
                return "session %r has rate %r, Centralized B-Neck gives %r" % (
                    session_id, got, rate)

    def __repr__(self):
        return "ValidationResult(valid=%r, max_relative_error=%.3g, reason=%r)" % (
            self.valid, self.max_relative_error, self.reason)


def validate_against_oracle(protocol, allocation=None):
    """The checkpoint verdict on a (normally quiescent) protocol run.

    Args:
        protocol: a :class:`~repro.core.protocol.BNeckProtocol`.
        allocation: optional allocation to check; defaults to the protocol's
            :meth:`~repro.core.protocol.BNeckProtocol.current_allocation`.
            Stability is always that of the protocol's own link states.

    Returns:
        A :class:`ValidationResult`.
    """
    table = LinkTable(protocol.active_sessions())
    distributed = allocation if allocation is not None else protocol.current_allocation()
    centralized = centralized_bneck_on(table)
    return ValidationResult(
        matches_centralized=distributed.equals(centralized),
        max_relative_error=distributed.max_relative_difference(centralized),
        violations=verify_allocation_on(table, distributed),
        stability=check_stability(protocol),
        centralized=centralized,
        distributed=distributed,
    )
