"""Session dynamics: phases of joins, leaves and rate changes.

Experiment 2 of the paper subjects a quiescent B-Neck to five consecutive
phases of churn (mass join, mass leave, mass rate change, another mass join,
and a mixed phase), each phase compressed into a one-millisecond window, and
measures how long the protocol takes to become quiescent again.  A
:class:`DynamicPhase` describes one such phase; :func:`apply_phase` schedules
its actions on a protocol and reports a :class:`PhaseOutcome`.

A phase's schedule is emitted as *actions* (:mod:`repro.core.actions`), not
pre-bound callbacks: :func:`phase_actions` resolves every random choice (who
leaves, who changes, new demands, action times, join endpoints) against the
generator's random streams, producing plain data records.
:func:`apply_phase` then hands the batch to the protocol's ``apply_actions``,
which checks the whole batch before replaying it.
"""

import math

from repro.core.actions import (
    ChangeAction,
    LeaveAction,
    join_action_from_spec,
    schedule_actions,
)


class DynamicPhase(object):
    """One phase of session churn.

    Attributes:
        name: label used in reports ("join", "leave", "change", "mixed", ...).
        joins: number of sessions that join during the phase window.
        leaves: number of active sessions that leave.
        changes: number of active sessions that change their maximum rate.
        window: length (seconds) of the burst at the beginning of the phase.
    """

    def __init__(self, name, joins=0, leaves=0, changes=0, window=1e-3):
        if min(joins, leaves, changes) < 0:
            raise ValueError("phase action counts must be non-negative")
        if window <= 0:
            raise ValueError("phase window must be positive")
        self.name = name
        self.joins = joins
        self.leaves = leaves
        self.changes = changes
        self.window = window

    def total_actions(self):
        return self.joins + self.leaves + self.changes

    def __repr__(self):
        return "DynamicPhase(%r, joins=%d, leaves=%d, changes=%d, window=%r)" % (
            self.name,
            self.joins,
            self.leaves,
            self.changes,
            self.window,
        )


class PhaseOutcome(object):
    """What happened during one phase: membership changes and quiescence timing."""

    def __init__(
        self,
        phase,
        start_time,
        quiescence_time,
        joined_ids,
        left_ids,
        changed_ids,
        packets_before,
        packets_after,
        active_after,
        rate_callbacks=0,
        shortfalls=None,
    ):
        self.phase = phase
        self.start_time = start_time
        self.quiescence_time = quiescence_time
        self.joined_ids = joined_ids
        self.left_ids = left_ids
        self.changed_ids = changed_ids
        self.packets_before = packets_before
        self.packets_after = packets_after
        self.active_after = active_after
        self.rate_callbacks = rate_callbacks
        # {"leaves"|"changes": (requested, applied)} for phases that asked for
        # more victims than the live population could supply (empty otherwise).
        self.shortfalls = {} if shortfalls is None else shortfalls

    @property
    def duration(self):
        """Time from the start of the phase until quiescence."""
        return self.quiescence_time - self.start_time

    @property
    def packets(self):
        """Control packets transmitted during the phase."""
        return self.packets_after - self.packets_before

    def __repr__(self):
        return "PhaseOutcome(%r, duration=%.4g s, packets=%d, active=%d)" % (
            self.phase.name,
            self.duration,
            self.packets,
            self.active_after,
        )


def phase_actions(
    generator,
    phase,
    active_ids,
    start_time,
    demand_sampler=None,
    change_demand_sampler=None,
):
    """Resolve one churn phase into an action batch.

    Consumes the generator's random streams exactly as the historical
    callback-scheduling implementation did (victim picks, then leave times,
    then change times, then per-change demands, then join specs), so
    fixed-seed schedules are bit-identical to earlier releases.

    Returns ``(actions, joined_ids, left_ids, changed_ids, remaining_ids,
    shortfalls)`` where ``actions`` is ordered leaves, changes, joins -- the
    order they must be applied in -- ``remaining_ids`` are the previously
    active sessions that did not leave, and ``shortfalls`` records any
    phase request the live population could not supply
    (``{"leaves"|"changes": (requested, applied)}``; empty when every request
    was met).  Shortfalls are *surfaced*, not fatal: the sample is clamped to
    the population, but the caller can see exactly how much churn was lost.
    """
    if change_demand_sampler is None:
        change_demand_sampler = demand_sampler
    active_ids = list(active_ids)
    window = (start_time, start_time + phase.window)

    left_ids = (
        generator.pick_sessions(active_ids, phase.leaves, clamp=True)
        if phase.leaves
        else []
    )
    left = set(left_ids)
    remaining = [session_id for session_id in active_ids if session_id not in left]
    changed_ids = (
        generator.pick_sessions(remaining, phase.changes, clamp=True)
        if phase.changes
        else []
    )
    shortfalls = {}
    if len(left_ids) < phase.leaves:
        shortfalls["leaves"] = (phase.leaves, len(left_ids))
    if len(changed_ids) < phase.changes:
        shortfalls["changes"] = (phase.changes, len(changed_ids))

    actions = []
    for session_id, when in zip(left_ids, generator.random_times(len(left_ids), window)):
        actions.append(LeaveAction(session_id, when))
    for session_id, when in zip(changed_ids, generator.random_times(len(changed_ids), window)):
        new_demand = generator.random_demand(change_demand_sampler)
        if math.isinf(new_demand):
            new_demand = generator.host_capacity
        actions.append(ChangeAction(session_id, new_demand, when))

    joined_ids = []
    if phase.joins:
        specs = generator.generate(
            phase.joins,
            join_window=window,
            demand_sampler=demand_sampler,
            prefix="%s-" % phase.name,
        )
        for spec in specs:
            actions.append(
                join_action_from_spec(spec, generator.host_capacity, generator.host_delay)
            )
        joined_ids = [spec.session_id for spec in specs]

    return actions, joined_ids, left_ids, changed_ids, remaining, shortfalls


def apply_phase(
    protocol,
    generator,
    phase,
    active_ids,
    start_time=None,
    demand_sampler=None,
    change_demand_sampler=None,
    run_to_quiescence=True,
):
    """Schedule one phase of churn on ``protocol`` and (optionally) run it out.

    The phase is resolved into actions by :func:`phase_actions` and applied
    through the protocol's ``apply_actions`` (see
    :func:`repro.core.actions.schedule_actions`).

    Args:
        protocol: a :class:`~repro.core.protocol.BNeckProtocol` (or a baseline
            with the same API, in which case ``run_to_quiescence`` must be
            False since baselines never drain their event queue).
        generator: the :class:`~repro.workloads.generator.WorkloadGenerator`
            that created the existing population (reused for endpoints,
            demands and random choices).
        phase: the :class:`DynamicPhase` to apply.
        active_ids: iterable of currently active session ids.
        start_time: phase start (defaults to the protocol's current time).
        demand_sampler: demands of newly joining sessions.
        change_demand_sampler: new demands for rate-change actions (defaults to
            ``demand_sampler``).
        run_to_quiescence: run the simulator until it drains after scheduling.

    Returns:
        A :class:`PhaseOutcome`; ``outcome.active_after`` is the updated count
        of active sessions, and the joined/left/changed id lists let callers
        maintain their own membership.
    """
    if start_time is None:
        start_time = protocol.simulator.now
    packets_before = protocol.tracer.total
    # B-Neck counts delivered application callbacks; baselines have no such
    # counter and report 0.
    callbacks_before = getattr(protocol, "rate_callbacks", 0)

    actions, joined_ids, left_ids, changed_ids, remaining, shortfalls = phase_actions(
        generator,
        phase,
        active_ids,
        start_time,
        demand_sampler=demand_sampler,
        change_demand_sampler=change_demand_sampler,
    )
    schedule_actions(protocol, actions)

    quiescence_time = start_time
    if run_to_quiescence:
        quiescence_time = protocol.run_until_quiescent()

    active_after = len(remaining) + len(joined_ids)
    return PhaseOutcome(
        phase=phase,
        start_time=start_time,
        quiescence_time=quiescence_time,
        joined_ids=joined_ids,
        left_ids=left_ids,
        changed_ids=changed_ids,
        packets_before=packets_before,
        packets_after=protocol.tracer.total,
        active_after=active_after,
        rate_callbacks=getattr(protocol, "rate_callbacks", 0) - callbacks_before,
        shortfalls=shortfalls,
    )
