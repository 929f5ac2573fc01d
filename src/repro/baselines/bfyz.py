"""BFYZ-style baseline: explicit-rate allocation with per-session router state.

The paper uses BFYZ (Bartal, Farach-Colton, Yooseph, Zhang, *Fast, fair and
frugal bandwidth allocation in ATM networks*) as the representative of the
family of ATM/ABR explicit-rate protocols that keep per-session information at
every router (Charny et al., Hou et al., ...).  This module implements the
family's common core, a *consistent marking* link computation:

* every link records, for each session crossing it, the rate the session last
  reported;
* the link's advertised rate ``A`` is the water-filling share of its capacity
  among the recorded sessions, i.e. the fixed point of
  ``A = (C - sum of recorded rates below A) / |{recorded rates >= A}|``;
* a probing session is granted ``min`` of the advertised rates on its path and
  adopts that rate at the end of the probe cycle.

The protocol converges to the max-min fair rates but

* it keeps probing forever (it cannot detect convergence), and
* during transients it *over*-estimates: a session keeps transmitting at the
  rate granted by an earlier, less loaded configuration until its next probe
  cycle, so links can be temporarily overloaded -- exactly the behaviour
  Figure 7 of the paper contrasts with B-Neck's conservative transients.
"""

from repro.baselines.base import BaselineProtocol, LinkController


class ConsistentMarkingController(LinkController):
    """Per-session-state link controller computing the water-filling share."""

    def __init__(self, link):
        super(ConsistentMarkingController, self).__init__(link)
        self.recorded = {}

    def advertised_rate(self):
        """The consistent-marking fair share of this link.

        Sessions whose recorded rate is below the share are treated as
        restricted elsewhere and their rate is subtracted from the capacity;
        the remainder is split evenly among the others.
        """
        if not self.recorded:
            return self.link.capacity
        rates = sorted(self.recorded.values())
        capacity = self.link.capacity
        total = len(rates)
        marked_sum = 0.0
        marked_count = 0
        share = capacity / total
        for rate in rates:
            if rate < share:
                # This session cannot use its even share; release the surplus
                # to the remaining sessions and move the threshold up.
                marked_sum += rate
                marked_count += 1
                remaining = total - marked_count
                if remaining == 0:
                    return capacity - marked_sum + rate
                share = (capacity - marked_sum) / remaining
            else:
                break
        return share

    def on_probe(self, session_id, demand, current_rate):
        # The probe reports the rate the session is currently using (its
        # demand on the very first cycle); recording that value -- and not the
        # rate granted here -- is what lets the link discover that the session
        # is restricted at another link and release the surplus.
        reported = current_rate if current_rate > 0.0 else demand
        self.recorded[session_id] = min(reported, self.link.capacity)
        return self.advertised_rate()

    def on_leave(self, session_id):
        self.recorded.pop(session_id, None)


class BFYZProtocol(BaselineProtocol):
    """The BFYZ-family baseline (per-session state, non-quiescent)."""

    name = "bfyz"
    uses_per_session_state = True

    def _make_controller(self, link):
        return ConsistentMarkingController(link)
