"""Validation of distributed B-Neck runs against the centralized oracles.

The paper validates every distributed run against Centralized B-Neck.  This
module does the same and additionally cross-checks against the independent
water-filling implementation and the direct max-min verification predicate, so
a single call gives the strongest correctness statement available:

* centralized B-Neck and water-filling agree with each other;
* the distributed rates equal the oracle rates;
* the distributed rates satisfy the bottleneck characterization of max-min
  fairness directly.

The active sessions are indexed once, into one
:class:`~repro.fairness.bottleneck.LinkTable` that all three checks read;
each oracle still runs its own algorithm on it, so they stay independent
checks of each other.  Every rate compare is
:func:`~repro.fairness.algebra.rates_equal`.
"""

from repro.core.centralized import centralized_bneck_on
from repro.fairness.bottleneck import LinkTable
from repro.fairness.verification import verify_allocation_on
from repro.fairness.waterfilling import water_filling_on


class ValidationResult(object):
    """The outcome of validating a distributed run."""

    def __init__(
        self,
        matches_centralized,
        matches_waterfilling,
        oracles_agree,
        max_relative_error,
        violations,
        centralized,
        waterfilling,
        distributed,
    ):
        self.matches_centralized = matches_centralized
        self.matches_waterfilling = matches_waterfilling
        self.oracles_agree = oracles_agree
        self.max_relative_error = max_relative_error
        self.violations = violations
        self.centralized = centralized
        self.waterfilling = waterfilling
        self.distributed = distributed

    @property
    def valid(self):
        """True when the distributed allocation matches the oracle and is max-min fair."""
        return self.matches_centralized and self.oracles_agree and not self.violations

    def __bool__(self):
        return self.valid

    def __repr__(self):
        return (
            "ValidationResult(valid=%r, matches_centralized=%r, matches_waterfilling=%r, "
            "max_relative_error=%.3g, violations=%d)"
            % (
                self.valid,
                self.matches_centralized,
                self.matches_waterfilling,
                self.max_relative_error,
                len(self.violations),
            )
        )


def validate_against_oracle(protocol, allocation=None):
    """Validate a (normally quiescent) protocol run against the oracles.

    Args:
        protocol: a :class:`~repro.core.protocol.BNeckProtocol`.
        allocation: optional allocation to check; defaults to the protocol's
            :meth:`~repro.core.protocol.BNeckProtocol.current_allocation`.

    Returns:
        A :class:`ValidationResult`.
    """
    table = LinkTable(protocol.active_sessions())
    distributed = allocation if allocation is not None else protocol.current_allocation()
    centralized = centralized_bneck_on(table)
    waterfilled = water_filling_on(table)

    matches_centralized = distributed.equals(centralized)
    matches_waterfilling = distributed.equals(waterfilled)
    oracles_agree = centralized.equals(waterfilled)
    max_relative_error = distributed.max_relative_difference(centralized)
    violations = verify_allocation_on(table, distributed)

    return ValidationResult(
        matches_centralized=matches_centralized,
        matches_waterfilling=matches_waterfilling,
        oracles_agree=oracles_agree,
        max_relative_error=max_relative_error,
        violations=violations,
        centralized=centralized,
        waterfilling=waterfilled,
        distributed=distributed,
    )
