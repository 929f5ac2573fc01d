"""Per-link B-Neck protocol state.

For every link ``e`` the protocol keeps (Section III-C):

* ``R_e`` -- sessions believed to be restricted at this link;
* ``F_e`` -- sessions crossing the link but restricted somewhere else;
* per session ``s``: its state ``mu^e_s`` in {IDLE, WAITING_PROBE,
  WAITING_RESPONSE} and its recorded rate ``lambda^e_s`` (meaningful only when
  ``s`` is in ``F_e``, or in ``R_e`` with ``mu^e_s = IDLE``);
* the bottleneck-rate estimate ``B_e = (C_e - sum of F_e rates) / |R_e|``.

:class:`LinkState` keeps these summaries up to date on every mutation, so
that no handler step has to recount a set:

* the ``F_e`` *load*, the sum of the recorded ``F_e`` rates;
* ``B_e`` itself, as the plain attribute :attr:`LinkState.bottleneck_rate`
  (``inf`` while ``R_e`` is empty).  It is reassigned, with the expression
  above, whenever ``C_e``, ``|R_e|`` or the ``F_e`` load changes.  ``C_e`` is
  therefore written only through :meth:`LinkState.set_capacity`;
* the *busy* count, the ``R_e`` members that are not IDLE:
  :meth:`LinkState.all_restricted_settled` is false while any member is busy,
  and :meth:`LinkState.settled_at` and the wake-up scan of
  :meth:`LinkState.process_new_restricted` find nobody when every member is;
* the *rate maxima*, the largest recorded rate in ``R_e`` and in ``F_e``
  (``-inf`` when no member has one).  Nobody in ``R_e`` is recorded above
  ``B_e`` when the ``R_e`` maximum is ``<= B_e``, nobody at a rate when it is
  below that rate and not within tolerance of it, and nobody in ``F_e``
  offends ``B_e`` when the ``F_e`` maximum is below it.  A maximum goes stale
  (``None``) only when its holder lowers its rate or leaves the set, and is
  recounted at its next read.

When no summary decides, the ``R_e`` scans run, and their results are sorted
by id.

Besides the single-field mutations, three methods perform whole transitions
of Figure 2, each in one call:

* :meth:`LinkState.settle` -- a Response is accepted: ``mu = IDLE`` and
  ``lambda`` recorded;
* :meth:`LinkState.wake` -- an IDLE session is asked for a new Probe cycle
  (``mu = WAITING_PROBE``);
* :meth:`LinkState.process_new_restricted` -- ProcessNewRestricted (lines
  4-10): the ``F_e`` offenders move to ``R_e`` and the IDLE ``R_e`` members
  recorded above ``B_e`` are woken.

The same container is used by the RouterLink task, by the SourceNode task (for
the session's access link) and by the stability checker of Definition 2.

Rates are floats, compared as everywhere in the library: equality is
:func:`repro.fairness.algebra.rates_equal`, ``a > b`` is
``a > b and not isclose(a, b, ...)`` and ``a >= b`` is
``a >= b or isclose(a, b, ...)``, with ``REL_TOL``/``ABS_TOL``, the tolerances
of :mod:`repro.fairness.algebra`.
"""

import math
from math import isclose

from repro.fairness.algebra import ABSOLUTE_TOLERANCE as ABS_TOL
from repro.fairness.algebra import RELATIVE_TOLERANCE as REL_TOL

IDLE = "IDLE"
WAITING_PROBE = "WAITING_PROBE"
WAITING_RESPONSE = "WAITING_RESPONSE"

SESSION_STATES = (IDLE, WAITING_PROBE, WAITING_RESPONSE)

# Read in place of an unrecorded rate: NaN is equal to, above and below nothing.
_UNRECORDED = math.nan
# A rate maximum over members none of which has a rate.
_NO_RATE = -math.inf


class LinkState(object):
    """The B-Neck bookkeeping of one directed link."""

    def __init__(self, link_id, capacity):
        self.link_id = link_id
        self.restricted = set()        # R_e
        self.unrestricted = set()      # F_e
        self._mu = {}                  # session id -> mu^e_s
        self._rate = {}                # session id -> lambda^e_s
        # The summaries below follow every mutation made through the methods
        # of this class: the sum of the F_e rates, the number of R_e members
        # whose mu is not IDLE, and the largest recorded rate in R_e and in
        # F_e (None while stale, until the next read recounts it).
        self._unrestricted_load = 0
        self._busy = 0
        self._restricted_max = self._unrestricted_max = _NO_RATE
        # Sets C_e and B_e (inf while R_e is empty).
        self.set_capacity(capacity)

    # --------------------------------------------------------------- queries

    def knows(self, session_id):
        """True when the link keeps state for the session."""
        return session_id in self.restricted or session_id in self.unrestricted

    def sessions(self):
        """All session ids with state at this link."""
        return self.restricted | self.unrestricted

    def state_of(self, session_id):
        """``mu^e_s`` (defaults to IDLE for unknown sessions)."""
        return self._mu.get(session_id, IDLE)

    def rate_of(self, session_id):
        """``lambda^e_s`` (``None`` when the link has not recorded one yet)."""
        return self._rate.get(session_id)

    def unrestricted_load(self):
        """The maintained sum of the ``F_e`` rates (unknown rates count as 0)."""
        return self._unrestricted_load

    def unrestricted_rated(self):
        """``(session_id, lambda^e_s)`` for every ``F_e`` member with a rate."""
        rate_table = self._rate
        return [
            (session_id, rate_table[session_id])
            for session_id in self.unrestricted
            if session_id in rate_table
        ]

    def settled_at(self, rate):
        """Sorted ids of the IDLE ``R_e`` members recorded at ``rate``."""
        if self._busy == len(self.restricted):
            return []
        largest = self._restricted_max
        if largest is None:
            largest = self._restricted_max = self._recomputed_restricted_max()
        if largest < rate and not isclose(largest, rate, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        mu_of = self._mu.get
        rate_of = self._rate.get
        return sorted([
            session_id
            for session_id in self.restricted
            if mu_of(session_id, IDLE) == IDLE
            and isclose(rate_of(session_id, _UNRECORDED), rate, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        ])

    def _recomputed_bottleneck_rate(self):
        """``B_e`` from the stored capacity and the maintained ``F_e`` load,
        with the expression each mutation assigns; used by consistency tests."""
        if not self.restricted:
            return math.inf
        return (self.capacity - self._unrestricted_load) / len(self.restricted)

    def _recomputed_unrestricted_load(self):
        """The F_e load summed from scratch; used by consistency tests."""
        return sum(self._rate.get(session_id, 0.0) for session_id in self.unrestricted)

    def _recomputed_busy(self):
        """The non-IDLE R_e members counted from scratch; used by consistency tests."""
        return sum(self._mu.get(session_id, IDLE) != IDLE for session_id in self.restricted)

    def _recomputed_restricted_max(self):
        """The largest recorded R_e rate found from scratch; refreshes a stale
        maximum and is used by consistency tests."""
        rate_table = self._rate
        return max(
            [
                rate_table[session_id]
                for session_id in self.restricted
                if session_id in rate_table
            ],
            default=_NO_RATE,
        )

    def _recomputed_unrestricted_max(self):
        """The largest recorded F_e rate found from scratch; refreshes a stale
        maximum and is used by consistency tests."""
        rate_table = self._rate
        return max(
            [
                rate_table[session_id]
                for session_id in self.unrestricted
                if session_id in rate_table
            ],
            default=_NO_RATE,
        )

    # ------------------------------------------------------------- mutations

    def set_state(self, session_id, state):
        if state not in SESSION_STATES:
            raise ValueError("unknown session state %r" % (state,))
        if session_id in self.restricted:
            self._busy += (state != IDLE) - (self._mu.get(session_id, IDLE) != IDLE)
        self._mu[session_id] = state

    def set_capacity(self, capacity):
        """Set ``C_e`` (at construction, on link-capacity dynamics, and to the
        effective demand at a source) and reassign ``B_e``."""
        # Chained compares: false for NaN as well as for the infinities.
        if not 0 < capacity < math.inf:
            raise ValueError(
                "link capacity must be positive and finite, got %r" % (capacity,)
            )
        self.capacity = capacity
        restricted = self.restricted
        self.bottleneck_rate = (
            (self.capacity - self._unrestricted_load) / len(restricted) if restricted else math.inf
        )

    def settle(self, session_id, rate):
        """An accepted Response: ``mu^e_s = IDLE`` and ``lambda^e_s = rate``,
        in one call."""
        old = self._rate.get(session_id, 0)
        if session_id in self.restricted:
            if self._mu.get(session_id, IDLE) != IDLE:
                self._busy -= 1
            largest = self._restricted_max
            if largest is not None:
                if rate >= largest:
                    self._restricted_max = rate
                elif old == largest:
                    self._restricted_max = None
        elif session_id in self.unrestricted:
            self._unrestricted_load = self._unrestricted_load - old + rate
            restricted = self.restricted
            self.bottleneck_rate = (
                (self.capacity - self._unrestricted_load) / len(restricted) if restricted else math.inf
            )
            largest = self._unrestricted_max
            if largest is not None:
                if rate >= largest:
                    self._unrestricted_max = rate
                elif old == largest:
                    self._unrestricted_max = None
        self._mu[session_id] = IDLE
        self._rate[session_id] = rate

    def set_rate(self, session_id, rate):
        """Record ``lambda^e_s``, leaving ``mu^e_s`` as it is: a
        :meth:`settle` whose ``mu`` is then put back."""
        mu = self._mu.get(session_id)
        self.settle(session_id, rate)
        if mu is None:
            del self._mu[session_id]
        elif mu != IDLE:
            self.set_state(session_id, mu)

    def wake(self, session_id):
        """Move an IDLE session to WAITING_PROBE (it is asked for a new Probe
        cycle); True when it was IDLE, False (and no change) otherwise."""
        mu = self._mu
        if mu.get(session_id, IDLE) != IDLE:
            return False
        if session_id in self.restricted:
            self._busy += 1
        mu[session_id] = WAITING_PROBE
        return True

    def add_restricted(self, session_id):
        """Put the session in ``R_e`` (removing it from ``F_e`` if needed)."""
        if session_id in self.unrestricted:
            self.unrestricted.remove(session_id)
            self._drop_unrestricted_rate(session_id)
        if session_id not in self.restricted:
            self.restricted.add(session_id)
            self._busy += self._mu.get(session_id, IDLE) != IDLE
            largest = self._restricted_max
            if largest is not None and self._rate.get(session_id, _NO_RATE) > largest:
                self._restricted_max = self._rate[session_id]
        self.bottleneck_rate = (self.capacity - self._unrestricted_load) / len(self.restricted)

    def add_unrestricted(self, session_id):
        """Put the session in ``F_e`` (removing it from ``R_e`` if needed)."""
        self._leave_restricted(session_id)
        if session_id not in self.unrestricted:
            self.unrestricted.add(session_id)
            self._unrestricted_load += self._rate.get(session_id, 0)
            largest = self._unrestricted_max
            if largest is not None and self._rate.get(session_id, _NO_RATE) > largest:
                self._unrestricted_max = self._rate[session_id]
        restricted = self.restricted
        self.bottleneck_rate = (
            (self.capacity - self._unrestricted_load) / len(restricted) if restricted else math.inf
        )

    def forget(self, session_id):
        """Drop every trace of the session (used on ``Leave``)."""
        self._leave_restricted(session_id)
        if session_id in self.unrestricted:
            self.unrestricted.remove(session_id)
            self._drop_unrestricted_rate(session_id)
        self._mu.pop(session_id, None)
        self._rate.pop(session_id, None)
        restricted = self.restricted
        self.bottleneck_rate = (
            (self.capacity - self._unrestricted_load) / len(restricted) if restricted else math.inf
        )

    def _leave_restricted(self, session_id):
        if session_id in self.restricted:
            self.restricted.remove(session_id)
            self._busy -= self._mu.get(session_id, IDLE) != IDLE
            if not self.restricted:
                self._restricted_max = _NO_RATE
            elif self._rate.get(session_id) == self._restricted_max:
                self._restricted_max = None

    def _drop_unrestricted_rate(self, session_id):
        if self.unrestricted:
            self._unrestricted_load -= self._rate.get(session_id, 0)
            if self._rate.get(session_id) == self._unrestricted_max:
                self._unrestricted_max = None
        else:
            # Re-anchor the running sum whenever F_e empties, so rounding
            # residue from long add/remove histories cannot accumulate.
            self._unrestricted_load = 0
            self._unrestricted_max = _NO_RATE

    def process_new_restricted(self):
        """ProcessNewRestricted, Figure 2, lines 4-10.

        Move back into ``R_e`` every ``F_e`` member whose recorded rate is not
        below ``B_e`` (highest rates first, ``B_e`` reassigned after each
        move), then set every IDLE ``R_e`` member recorded above the final
        ``B_e`` to WAITING_PROBE.  Returns the sorted ids of those woken
        sessions; the caller sends each an Update.
        """
        unrestricted = self.unrestricted
        rate_table = self._rate
        rate = self.bottleneck_rate
        while unrestricted:
            # The largest F_e rate is itself an offender whenever any F_e
            # member is, so it is the rate to move first.
            largest = self._unrestricted_max
            if largest is None:
                largest = self._unrestricted_max = self._recomputed_unrestricted_max()
            if largest < rate and not isclose(largest, rate, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                break
            # Sorted so the incremental F_e load sum is updated in a
            # reproducible order (set iteration order is hash-randomized).
            moved = sorted([
                session_id
                for session_id in unrestricted
                if session_id in rate_table
                and isclose(rate_table[session_id], largest, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            ])
            for session_id in moved:
                self.add_restricted(session_id)
            rate = self.bottleneck_rate

        restricted = self.restricted
        if self._busy == len(restricted):
            return []
        largest = self._restricted_max
        if largest is None:
            largest = self._restricted_max = self._recomputed_restricted_max()
        if largest <= rate:
            return []
        mu = self._mu
        woken = sorted([
            session_id
            for session_id in restricted
            if rate_table.get(session_id, _UNRECORDED) > rate
            and mu.get(session_id, IDLE) == IDLE
            and not isclose(rate_table[session_id], rate, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        ])
        for session_id in woken:
            mu[session_id] = WAITING_PROBE
        self._busy += len(woken)
        return woken

    # ------------------------------------------------------- stability checks

    def all_restricted_settled(self):
        """The bottleneck-detection condition of Figure 2, lines 25 and 46:

        every session in ``R_e`` is IDLE and recorded at exactly ``B_e``.
        """
        if self._busy or not self.restricted:
            return False
        rate = self.bottleneck_rate
        mu = self._mu
        rate_table = self._rate
        for session_id in self.restricted:
            if mu.get(session_id, IDLE) != IDLE or not isclose(
                rate_table.get(session_id, _UNRECORDED), rate, rel_tol=REL_TOL, abs_tol=ABS_TOL
            ):
                return False
        return True

    def is_stable(self):
        """The per-link stability predicate of Definition 2."""
        if any(self._mu.get(session_id, IDLE) != IDLE for session_id in self.sessions()):
            return False
        rate = self.bottleneck_rate
        rate_table = self._rate
        if len(self.settled_at(rate)) != len(self.restricted):
            return False
        return not self.restricted or all(
            rate_table.get(session_id, _UNRECORDED) < rate
            and not isclose(rate_table[session_id], rate, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            for session_id in self.unrestricted
        )

    def snapshot(self):
        """A plain-dict view used by tests and debugging output."""
        return {
            "link": self.link_id,
            "capacity": self.capacity,
            "restricted": set(self.restricted),
            "unrestricted": set(self.unrestricted),
            "mu": dict(self._mu),
            "rate": dict(self._rate),
            "bottleneck_rate": self.bottleneck_rate,
        }

    def __repr__(self):
        return "LinkState(%r, |R|=%d, |F|=%d, B=%.4g)" % (
            self.link_id,
            len(self.restricted),
            len(self.unrestricted),
            self.bottleneck_rate,
        )
