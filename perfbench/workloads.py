"""Seeded churn inputs for the benchmark's three workloads.

The benchmark generates every input itself from ``--seed``: session
endpoints, demands, action times, and who leaves or changes.  The
program under test receives only the resulting action batches
(:mod:`repro.core.actions` records), one batch per *round*; a round is run to
quiescence and validated before the next one is generated.

Each workload fixes one transit-stub network (LAN delays, topology seed
:data:`TOPOLOGY_SEED`), as the paper evaluates one network per size; the seed
varies the sessions.  An *instance* is a fresh protocol on a fresh copy of
that network plus a sequence of rounds.  A run repeats instances, each with
its own random stream drawn from the run seed, until its time is up.

* ``poisson`` -- open-loop Poisson session arrivals with exponential holding
  times on Medium: 9 small rounds per instance at a steady population
  of ~150 sessions, so per-packet cost is paid on lightly loaded links and
  the per-round validation takes most of the time.
* ``phases`` -- the paper's Experiment 2 scaled to 200 sessions: five churn
  phases (mass join, 20% leave, 20% rate change, 20% join, mixed) on Medium,
  each a round.
* ``crowd`` -- one-shot flash-crowd churn on Small: 120 greedy sessions
  join towards one stub domain, then 20% leave and 20% change rate, all
  pre-scheduled in one round.  The domain's ingress links carry up to 120
  restricted sessions, so every Probe rescans a large R_e, while the
  validation is cheap.
"""

import math
import random

from repro.core.actions import ChangeAction, JoinAction, LeaveAction

TOPOLOGY_SEED = 1

# The paper's access links: 100 Mbps with a 1 microsecond delay.
HOST_CAPACITY = 100e6
HOST_DELAY = 1e-6

# Demands of finite sessions, uniform in [1, 80] Mbps as in Experiment 2.
DEMAND_LOW = 1e6
DEMAND_HIGH = 80e6


class Population(object):
    """The sessions one instance has joined, with the demand of each.

    The benchmark keeps its own record of membership and demands, so the
    correctness check does not trust the program's bookkeeping.
    """

    def __init__(self, rng, routers):
        self.rng = rng
        self.routers = sorted(routers)
        self.demands = {}  # session id -> requested rate, in join order
        self.endpoints = {}  # session id -> (source router, destination router)
        self._counter = 0

    def join(self, at, demand, destinations=None):
        """A new session between random stub routers; with ``destinations``,
        the destination is one of those and the source is outside them."""
        self._counter += 1
        session_id = "b%d" % self._counter
        if destinations is None:
            source, destination = self.rng.sample(self.routers, 2)
        else:
            destination = self.rng.choice(destinations)
            source = self.rng.choice(
                [router for router in self.routers if router not in destinations])
        self.demands[session_id] = demand
        self.endpoints[session_id] = (source, destination)
        return JoinAction(session_id, source, destination, demand, at,
                          HOST_CAPACITY, HOST_DELAY)

    def leave(self, session_id, at):
        del self.demands[session_id]
        del self.endpoints[session_id]
        return LeaveAction(session_id, at)

    def change(self, session_id, demand, at):
        self.demands[session_id] = demand
        return ChangeAction(session_id, demand, at)

    def pick(self, count):
        """``count`` distinct active sessions, chosen at random."""
        return self.rng.sample(list(self.demands), count)

    def uniform_demand(self):
        return self.rng.uniform(DEMAND_LOW, DEMAND_HIGH)


class PoissonChurn(object):
    """Open-loop M/M/inf session churn, one round per segment of arrivals.

    The first round joins the steady-state population at once; each of the
    ``segments`` later rounds is one segment of Poisson arrivals and the
    departures falling in it.
    """

    name = "poisson"
    size = "medium"
    arrival_rate = 25000.0  # sessions per simulated second
    mean_holding = 6e-3  # seconds; steady population = rate * holding = 150
    horizon = 2e-3  # simulated seconds of arrivals per round
    segments = 8
    offset = 1e-4

    def rounds(self, population, now):
        rng = population.rng
        # Holding time each session has left when the next round starts.
        holding = {}
        start = now() + self.offset
        actions = []
        for _ in range(int(self.arrival_rate * self.mean_holding)):
            join = population.join(rng.uniform(start, start + self.horizon),
                                   population.uniform_demand())
            actions.append(join)
            holding[join.session_id] = rng.expovariate(1.0 / self.mean_holding)
        yield actions
        for _ in range(self.segments):
            start = now() + self.offset
            end = start + self.horizon
            actions = []
            for session_id, left in list(holding.items()):
                if left < self.horizon:
                    actions.append(population.leave(session_id, start + left))
                    del holding[session_id]
                else:
                    holding[session_id] = left - self.horizon
            t = start + rng.expovariate(self.arrival_rate)
            while t < end:
                join = population.join(t, population.uniform_demand())
                actions.append(join)
                left = t - start + rng.expovariate(1.0 / self.mean_holding)
                if left < self.horizon:
                    actions.append(population.leave(join.session_id, start + left))
                else:
                    holding[join.session_id] = left - self.horizon
                t += rng.expovariate(self.arrival_rate)
            # Apply in time order, so no leave comes before its join.
            actions.sort(key=lambda action: action.at)
            yield actions


class FivePhaseChurn(object):
    """Experiment 2's five churn phases, each compressed into one window."""

    name = "phases"
    size = "medium"
    initial = 200
    churn = 0.2
    window = 1e-3
    gap = 1e-3

    def rounds(self, population, now):
        churn = int(round(self.initial * self.churn))
        plan = [
            (self.initial, 0, 0),  # mass join
            (0, churn, 0),  # mass leave
            (0, 0, churn),  # mass rate change
            (churn, 0, 0),  # second join
            (churn, churn, churn),  # mixed
        ]
        rng = population.rng
        for joins, leaves, changes in plan:
            start = now() + self.gap
            end = start + self.window
            leaving = population.pick(leaves)
            actions = [population.leave(session_id, rng.uniform(start, end))
                       for session_id in leaving]
            for session_id in population.pick(changes):
                actions.append(population.change(
                    session_id, population.uniform_demand(), rng.uniform(start, end)))
            for _ in range(joins):
                actions.append(population.join(
                    rng.uniform(start, end), population.uniform_demand()))
            yield actions


class FlashCrowd(object):
    """One-shot churn of a flash crowd onto one stub domain.

    Greedy sessions from anywhere join within a millisecond, all towards
    routers of one stub domain, so they share its few ingress links; leave
    and rate-change bursts are pre-scheduled behind the joins, and the whole
    burst is one round.
    """

    name = "crowd"
    size = "small"
    sessions = 120
    leave_share = 0.2
    change_share = 0.2
    changed_demand = 5e6

    def rounds(self, population, now):
        rng = population.rng
        domains = {}
        for router in population.routers:
            domains.setdefault(router.rsplit(".", 1)[0], []).append(router)
        targets = domains[rng.choice(sorted(domains))]
        start = now() + 1e-4
        actions = [
            population.join(rng.uniform(start, start + 1e-3), math.inf, targets)
            for _ in range(self.sessions)
        ]
        victims = population.pick(
            int(self.sessions * (self.leave_share + self.change_share)))
        cut = int(self.sessions * self.leave_share)
        for session_id in victims[:cut]:
            actions.append(population.leave(
                session_id, rng.uniform(start + 3e-3, start + 4e-3)))
        for session_id in victims[cut:]:
            actions.append(population.change(
                session_id, self.changed_demand,
                rng.uniform(start + 6e-3, start + 7e-3)))
        yield actions


WORKLOADS = {cls.name: cls for cls in (PoissonChurn, FivePhaseChurn, FlashCrowd)}


def instance_rng(workload_name, seed, index):
    """The random stream of instance ``index`` of a run seeded with ``seed``."""
    return random.Random("%s/%d/%d" % (workload_name, seed, index))
