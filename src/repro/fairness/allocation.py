"""The result type of every allocation algorithm in the library."""

from repro.fairness.algebra import rates_equal
from repro.fairness.bottleneck import LinkTable


class OracleError(RuntimeError):
    """An allocation oracle could not assign a rate to every session.

    Attributes:
        oracle: name of the oracle that failed.
        session_ids: ids of the sessions left without a rate, in input order.
    """

    def __init__(self, oracle, session_ids, reason):
        self.oracle = oracle
        self.session_ids = list(session_ids)
        RuntimeError.__init__(
            self,
            "%s: %s; %d sessions unresolved, first: %r"
            % (oracle, reason, len(self.session_ids), self.session_ids[:5]),
        )


class RateAllocation(object):
    """A mapping from session id to assigned rate, plus comparison helpers.

    Every algorithm in the library -- water-filling, centralized B-Neck,
    distributed B-Neck, and the non-quiescent baselines -- returns (or exposes)
    a :class:`RateAllocation`, so results can be compared uniformly.
    """

    def __init__(self, rates=None):
        self._rates = dict(rates or {})

    # -------------------------------------------------------------- mapping

    def set_rate(self, session_id, rate):
        self._rates[session_id] = rate

    def rate(self, session_id):
        return self._rates[session_id]

    def get(self, session_id, default=None):
        return self._rates.get(session_id, default)

    def __contains__(self, session_id):
        return session_id in self._rates

    def __len__(self):
        return len(self._rates)

    def __iter__(self):
        return iter(self._rates)

    def items(self):
        return self._rates.items()

    def session_ids(self):
        return list(self._rates)

    def as_dict(self):
        """A plain ``{session_id: float(rate)}`` dictionary."""
        return {session_id: float(rate) for session_id, rate in self._rates.items()}

    def total_rate(self):
        """Sum of all assigned rates."""
        return sum(float(rate) for rate in self._rates.values())

    # ------------------------------------------------------------ comparison

    def equals(self, other):
        """True when both allocations assign equal rates to the same sessions."""
        if set(self._rates) != set(other.session_ids()):
            return False
        return all(
            rates_equal(float(self._rates[session_id]), float(other.rate(session_id)))
            for session_id in self._rates
        )

    def max_relative_difference(self, other):
        """Largest ``|a - b| / max(|b|, 1)`` over sessions present in both."""
        worst = 0.0
        for session_id, rate in self._rates.items():
            if session_id not in other:
                continue
            reference = float(other.rate(session_id))
            difference = abs(float(rate) - reference) / max(abs(reference), 1.0)
            worst = max(worst, difference)
        return worst

    # ------------------------------------------------------------ feasibility

    def is_feasible(self, sessions):
        """True when no link is overloaded and no session exceeds its demand."""
        table = LinkTable(sessions)
        rates = table.rates(self)
        for rate, demand in zip(rates, table.demands):
            demand = float(demand)
            if rate > demand and not rates_equal(rate, demand):
                return False
        loads, _ = table.loads_and_maxima(rates)
        for load, capacity in zip(loads, table.capacities):
            if load > capacity and not rates_equal(load, capacity):
                return False
        return True

    def __repr__(self):
        return "RateAllocation(sessions=%d, total=%.4g)" % (
            len(self._rates),
            self.total_rate(),
        )
