"""CG-style baseline: stabilizing max-min allocation with constant router state.

Cobb and Gouda (*Stabilization of max-min fair networks without per-flow
state*) compute max-min fair rates keeping only a constant amount of state per
router.  This module implements a protocol in that spirit:

* each link keeps only an advertised fair share, a session counter and an
  aggregate of the rates of sessions it believes are restricted elsewhere --
  all constant-size state, refreshed from the probes of the last control
  interval;
* at every control interval the advertised share moves a *fraction* of the way
  towards the share implied by the last interval's aggregate observations
  (the damping is what makes the scheme stabilizing rather than oscillating).

The damped updates make convergence slow when many sessions interact, which
reproduces the paper's observation that CG "did not converge to the solution in
the time allocated when more than 500 sessions were considered".
"""

from repro.baselines.base import BaselineProtocol, LinkController


class ConstantStateController(LinkController):
    """Constant-state link controller with damped share updates."""

    def __init__(self, link, gain=0.25):
        super(ConstantStateController, self).__init__(link)
        self.gain = gain
        self.advertised = link.capacity
        # Aggregates observed during the current control interval (reset at
        # every periodic update): number of probing sessions, and the count and
        # rate-sum of those that appear restricted below the advertised share.
        self._probe_count = 0
        self._restricted_count = 0
        self._restricted_sum = 0.0

    def on_probe(self, session_id, demand, current_rate):
        self._probe_count += 1
        bound = min(demand, current_rate) if current_rate > 0.0 else demand
        if bound < self.advertised * (1.0 - 1e-6):
            self._restricted_count += 1
            self._restricted_sum += min(bound, self.link.capacity)
        return self.advertised

    def periodic_update(self, crossing_rates, interval):
        observed = max(self._probe_count, len(crossing_rates))
        if observed == 0:
            target = self.link.capacity
        else:
            unrestricted = observed - self._restricted_count
            if unrestricted <= 0:
                target = self.link.capacity / observed
            else:
                target = (self.link.capacity - self._restricted_sum) / unrestricted
        target = min(max(target, 0.0), self.link.capacity)
        self.advertised += self.gain * (target - self.advertised)
        self._probe_count = 0
        self._restricted_count = 0
        self._restricted_sum = 0.0


class CGProtocol(BaselineProtocol):
    """The CG-family baseline (constant state, non-quiescent, slow to converge)."""

    name = "cg"
    uses_per_session_state = False
    needs_periodic_updates = True

    def _make_controller(self, link):
        return ConstantStateController(link)
