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
* the *rate index*, a map from each recorded rate to the set of IDLE
  ``R_e`` members recorded at it.  Every member of a bucket holds that rate,
  so comparing a key with a rate compares each member exactly: the wake-up
  scans of :meth:`LinkState.process_new_restricted`,
  :meth:`LinkState.set_bottleneck` and :meth:`LinkState.leave` walk the few
  distinct keys instead of every ``R_e`` member, and the woken ids they
  return are sorted.  The index alone decides the test of Figure 2, lines
  25 and 46 (every ``R_e`` member is IDLE and recorded at ``B_e``): a member
  that is not IDLE, or has no recorded rate, is in no bucket, so the test
  holds exactly when ``R_e`` is not empty, every key is ``B_e`` and the
  buckets hold ``|R_e|`` members;
* the ``F_e`` *rate maximum*, the largest recorded ``F_e`` rate (``-inf``
  when no member has one): nobody in ``F_e`` offends ``B_e`` when it is
  below ``B_e``.  It goes stale (``None``) only when its holder lowers its
  rate or leaves ``F_e``, and is recounted at its next read.

Besides the single-field mutations, six methods perform whole transitions
of Figure 2, each in one call, so a RouterLink handler makes one call to
its link state per delivery:

* :meth:`LinkState.await_response` -- a Join or Probe arrives (lines 13-14
  and 31-32): the session joins ``R_e`` as WAITING_RESPONSE and
  ProcessNewRestricted runs, when some ``F_e`` rate can offend ``B_e`` or
  some IDLE ``R_e`` member is recorded above it;
* :meth:`LinkState.settle` -- a Response is accepted: ``mu = IDLE`` and
  ``lambda`` recorded, and the answer to line 25's test returned;
* :meth:`LinkState.refuse` -- a Response is refused: ``mu = WAITING_PROBE``,
  and the answer to line 25's test returned;
* :meth:`LinkState.wake` -- an IDLE session is asked for a new Probe cycle
  (``mu = WAITING_PROBE``);
* :meth:`LinkState.set_bottleneck` -- a SetBottleneck arrives (lines
  45-55): line 46's test, then the session's move to ``F_e`` and the wake-up
  of the members settled at the old ``B_e``;
* :meth:`LinkState.leave` -- a Leave arrives (lines 57-62): the members
  settled at ``B_e`` are woken and the session is forgotten.

:meth:`LinkState.process_new_restricted` -- ProcessNewRestricted (lines
4-10) -- moves the ``F_e`` offenders to ``R_e`` and wakes the IDLE ``R_e``
members recorded above ``B_e``; a capacity change runs it on its own.

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
        # of this class: the sum of the F_e rates, the IDLE R_e members with
        # a recorded rate by that rate (no empty bucket is kept), and the
        # largest recorded rate in F_e (None while stale, until the next read
        # recounts it).
        self._unrestricted_load = 0
        self._idle_by_rate = {}
        self._unrestricted_max = _NO_RATE
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

    def idle_restricted(self, session_id):
        """True when the session is in ``R_e`` with ``mu^e_s = IDLE``."""
        return session_id in self.restricted and self._mu.get(session_id, IDLE) == IDLE

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

    def _recomputed_bottleneck_rate(self):
        """``B_e`` from the stored capacity and the maintained ``F_e`` load,
        with the expression each mutation assigns; used by consistency tests."""
        if not self.restricted:
            return math.inf
        return (self.capacity - self._unrestricted_load) / len(self.restricted)

    def _recomputed_unrestricted_load(self):
        """The F_e load summed from scratch; used by consistency tests."""
        return sum(self._rate.get(session_id, 0.0) for session_id in self.unrestricted)

    def _recomputed_idle_by_rate(self):
        """The rate index built from scratch; used by consistency tests."""
        index = {}
        for session_id in self.restricted:
            if self._mu.get(session_id, IDLE) == IDLE and session_id in self._rate:
                index.setdefault(self._rate[session_id], set()).add(session_id)
        return index

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

    def _index(self, session_id, rate):
        """File an IDLE R_e member under its recorded rate."""
        members = self._idle_by_rate.get(rate)
        if members is None:
            self._idle_by_rate[rate] = {session_id}
        else:
            members.add(session_id)

    def _unindex(self, session_id, rate):
        """Take an IDLE R_e member out of its rate's bucket."""
        members = self._idle_by_rate[rate]
        if len(members) == 1:
            del self._idle_by_rate[rate]
        else:
            members.remove(session_id)

    def set_state(self, session_id, state):
        if state not in SESSION_STATES:
            raise ValueError("unknown session state %r" % (state,))
        if session_id in self.restricted:
            was_idle = self._mu.get(session_id, IDLE) == IDLE
            if was_idle != (state == IDLE):
                rate = self._rate.get(session_id)
                if rate is not None:
                    if was_idle:
                        self._unindex(session_id, rate)
                    else:
                        self._index(session_id, rate)
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
        in one call.  Returns the test of Figure 2, line 25, afterwards
        (``R_e`` is not empty and every member is IDLE and recorded at
        ``B_e``), so a RouterLink accepting a Response makes one call to the
        link state."""
        old = self._rate.get(session_id)
        restricted = self.restricted
        if session_id in restricted:
            index = self._idle_by_rate
            if old is not None and self._mu.get(session_id, IDLE) == IDLE:
                self._unindex(session_id, old)
            # _index, inlined: a Response settles at every hop.
            members = index.get(rate)
            if members is None:
                index[rate] = {session_id}
            else:
                members.add(session_id)
        elif session_id in self.unrestricted:
            if old is None:
                old = 0
            self._unrestricted_load = self._unrestricted_load - old + rate
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
        # _restricted_settled, inlined: a Response settles at every hop.
        if not restricted:
            return False
        bottleneck = self.bottleneck_rate
        settled = 0
        for recorded, members in self._idle_by_rate.items():
            if not isclose(recorded, bottleneck, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return False
            settled += len(members)
        return settled == len(restricted)

    def refuse(self, session_id):
        """A refused Response (Figure 2, lines 18-28): ``mu^e_s =
        WAITING_PROBE``, so the session runs a new Probe cycle, in one call.
        Returns the test of line 25 afterwards, as :meth:`settle` does."""
        mu = self._mu
        if session_id not in self.restricted:
            # A session outside R_e: the test is about the others.
            mu[session_id] = WAITING_PROBE
            return self._restricted_settled()
        if mu.get(session_id, IDLE) == IDLE:
            rate = self._rate.get(session_id)
            if rate is not None:
                self._unindex(session_id, rate)
        mu[session_id] = WAITING_PROBE
        # The session itself now waits for a Probe, so R_e is not settled.
        return False

    def _restricted_settled(self):
        """The test of Figure 2, lines 25 and 46: ``R_e`` is not empty and
        every member is IDLE and recorded at ``B_e``.  Only those members
        are in the rate index, so that is: every key is ``B_e`` and the
        buckets hold all of ``R_e``."""
        restricted = self.restricted
        if not restricted:
            return False
        bottleneck = self.bottleneck_rate
        settled = 0
        for recorded, members in self._idle_by_rate.items():
            if not isclose(recorded, bottleneck, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return False
            settled += len(members)
        return settled == len(restricted)

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
            rate = self._rate.get(session_id)
            if rate is not None:
                # _unindex, inlined: Updates wake sessions at every hop.
                members = self._idle_by_rate[rate]
                if len(members) == 1:
                    del self._idle_by_rate[rate]
                else:
                    members.remove(session_id)
        mu[session_id] = WAITING_PROBE
        return True

    def await_response(self, session_id):
        """A Join or Probe arrives, Figure 2, lines 13-14 and 31-32: put the
        session in ``R_e`` (moving it from ``F_e`` if it is there), set
        ``mu^e_s = WAITING_RESPONSE`` and run ProcessNewRestricted.  Returns
        the sorted ids of the sessions it woke.

        ProcessNewRestricted is called only when it can act: the ``F_e``
        rate maximum is stale, or is not below the new ``B_e`` by the test
        that ends its offender loop (``largest < B_e and not isclose(...)``),
        or some rate-index key is above ``B_e`` by a plain compare.  A known
        maximum below ``B_e`` moves nobody, since every ``F_e`` rate is at
        most it, and the wake-up test is ``recorded > B_e and not
        isclose(...)``, so a key that is not above ``B_e`` by a plain compare
        wakes nobody: otherwise the call would change nothing and return no
        session."""
        restricted = self.restricted
        if session_id in restricted:
            if self._mu.get(session_id, IDLE) == IDLE:
                rate = self._rate.get(session_id)
                if rate is not None:
                    # _unindex, inlined: a Probe arrives at every hop.
                    members = self._idle_by_rate[rate]
                    if len(members) == 1:
                        del self._idle_by_rate[rate]
                    else:
                        members.remove(session_id)
        else:
            if session_id in self.unrestricted:
                self.unrestricted.remove(session_id)
                self._drop_unrestricted_rate(session_id)
            restricted.add(session_id)
        self._mu[session_id] = WAITING_RESPONSE
        rate = self.bottleneck_rate = (self.capacity - self._unrestricted_load) / len(restricted)
        largest = self._unrestricted_max
        index = self._idle_by_rate
        if (
            largest is None
            or largest >= rate
            or isclose(largest, rate, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            or index and max(index) > rate
        ):
            return self.process_new_restricted()
        return []

    def add_restricted(self, session_id):
        """Put the session in ``R_e`` (removing it from ``F_e`` if needed)."""
        if session_id in self.unrestricted:
            self.unrestricted.remove(session_id)
            self._drop_unrestricted_rate(session_id)
        if session_id not in self.restricted:
            self.restricted.add(session_id)
            if self._mu.get(session_id, IDLE) == IDLE and session_id in self._rate:
                self._index(session_id, self._rate[session_id])
        self.bottleneck_rate = (self.capacity - self._unrestricted_load) / len(self.restricted)

    def add_unrestricted(self, session_id):
        """Put the session in ``F_e`` (removing it from ``R_e`` if needed),
        in one call."""
        restricted = self.restricted
        rate = self._rate.get(session_id)
        if session_id in restricted:
            # _unindex, inlined: SetBottleneck moves sessions to F_e hop by hop.
            restricted.remove(session_id)
            if rate is not None and self._mu.get(session_id, IDLE) == IDLE:
                members = self._idle_by_rate[rate]
                if len(members) == 1:
                    del self._idle_by_rate[rate]
                else:
                    members.remove(session_id)
        unrestricted = self.unrestricted
        if session_id not in unrestricted:
            unrestricted.add(session_id)
            if rate is not None:
                self._unrestricted_load += rate
                largest = self._unrestricted_max
                if largest is not None and rate > largest:
                    self._unrestricted_max = rate
        self.bottleneck_rate = (
            (self.capacity - self._unrestricted_load) / len(restricted) if restricted else math.inf
        )

    def set_bottleneck(self, session_id):
        """A SetBottleneck arrives, Figure 2, lines 45-55, in one call.

        Returns ``True`` when line 46's test holds (``R_e`` is not empty and
        every member is IDLE and recorded at ``B_e``): the link is itself a
        bottleneck, and the packet goes on with ``beta = TRUE``.  Returns
        ``None`` when the packet is dropped: the session is not IDLE here or
        has no recorded rate (a new Probe cycle is under way), or is
        recorded above ``B_e``.  Otherwise the packet goes on unchanged and
        the sorted ids of the sessions woken are returned; the caller sends
        each an Update.  A session recorded below ``B_e`` is not restricted
        here: it moves to ``F_e``, and the IDLE ``R_e`` members recorded at
        the old ``B_e``, which can only grow, are woken.  A session recorded
        at ``B_e`` changes nothing and wakes nobody.

        One pass over the rate index answers line 46's test and finds the
        buckets at ``B_e``; the session's own bucket is not among them when
        it moves, since its rate is below ``B_e``."""
        restricted = self.restricted
        index = self._idle_by_rate
        bottleneck = self.bottleneck_rate
        at_bottleneck = []
        settled = 0
        all_at_bottleneck = True
        for recorded, members in index.items():
            if isclose(recorded, bottleneck, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                at_bottleneck.append(recorded)
                settled += len(members)
            else:
                all_at_bottleneck = False
        if all_at_bottleneck and restricted and settled == len(restricted):
            return True
        mu = self._mu
        if mu.get(session_id, IDLE) != IDLE:
            return None
        rate = self._rate.get(session_id)
        if rate is None:
            return None
        if isclose(rate, bottleneck, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        if not rate < bottleneck:
            return None
        woken = []
        for recorded in at_bottleneck:
            woken.extend(index.pop(recorded))
        woken.sort()
        for other_id in woken:
            mu[other_id] = WAITING_PROBE
        # add_unrestricted, inlined: the session is IDLE with a rate.
        if session_id in restricted:
            restricted.remove(session_id)
            members = index[rate]
            if len(members) == 1:
                del index[rate]
            else:
                members.remove(session_id)
        unrestricted = self.unrestricted
        if session_id not in unrestricted:
            unrestricted.add(session_id)
            self._unrestricted_load += rate
            largest = self._unrestricted_max
            if largest is not None and rate > largest:
                self._unrestricted_max = rate
        self.bottleneck_rate = (
            (self.capacity - self._unrestricted_load) / len(restricted) if restricted else math.inf
        )
        return woken

    def forget(self, session_id):
        """Drop every trace of the session (used on ``Leave``)."""
        if session_id in self.restricted:
            self.restricted.remove(session_id)
            if self._mu.get(session_id, IDLE) == IDLE and session_id in self._rate:
                self._unindex(session_id, self._rate[session_id])
        if session_id in self.unrestricted:
            self.unrestricted.remove(session_id)
            self._drop_unrestricted_rate(session_id)
        self._mu.pop(session_id, None)
        self._rate.pop(session_id, None)
        restricted = self.restricted
        self.bottleneck_rate = (
            (self.capacity - self._unrestricted_load) / len(restricted) if restricted else math.inf
        )

    def leave(self, session_id):
        """A Leave arrives, Figure 2, lines 57-62, in one call: every other
        IDLE ``R_e`` member recorded at ``B_e`` is woken, since ``B_e`` can
        only grow once the session goes, and every trace of the session is
        dropped (:meth:`forget`).  Returns the sorted ids of the woken
        sessions; the caller sends each an Update."""
        index = self._idle_by_rate
        bottleneck = self.bottleneck_rate
        at_bottleneck = []
        for recorded in index:
            if isclose(recorded, bottleneck, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                at_bottleneck.append(recorded)
        self.forget(session_id)
        woken = []
        for recorded in at_bottleneck:
            # Gone when the session was its one member.
            members = index.pop(recorded, None)
            if members:
                woken.extend(members)
        woken.sort()
        mu = self._mu
        for other_id in woken:
            mu[other_id] = WAITING_PROBE
        return woken

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

        # Every member of a bucket recorded above B_e is woken: the bucket
        # goes whole.
        index = self._idle_by_rate
        above = []
        for recorded in index:
            if recorded > rate and not isclose(recorded, rate, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                above.append(recorded)
        if not above:
            return above
        woken = []
        for recorded in above:
            woken.extend(index.pop(recorded))
        woken.sort()
        mu = self._mu
        for session_id in woken:
            mu[session_id] = WAITING_PROBE
        return woken

    # ------------------------------------------------------- stability checks

    def is_stable(self):
        """The per-link stability predicate of Definition 2, read off ``B_e``
        and the ``mu`` and ``lambda`` tables of the members: the rate index
        and the ``F_e`` maximum take no part, so the predicate stays
        independent of them."""
        mu = self._mu
        rate_table = self._rate
        rate = self.bottleneck_rate
        for session_id in self.restricted:
            if mu.get(session_id, IDLE) != IDLE or not isclose(
                rate_table.get(session_id, _UNRECORDED), rate, rel_tol=REL_TOL, abs_tol=ABS_TOL
            ):
                return False
        # With R_e empty, B_e is infinite and no F_e rate is checked.
        for session_id in self.unrestricted:
            recorded = rate_table.get(session_id, _UNRECORDED)
            if mu.get(session_id, IDLE) != IDLE or self.restricted and (
                not recorded < rate or isclose(recorded, rate, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            ):
                return False
        return True

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
