"""Base class for simulated protocol tasks.

A :class:`Process` is an actor attached to a :class:`~repro.simulator.simulation.Simulator`.
Concrete protocol tasks (the B-Neck RouterLink / SourceNode / DestinationNode
tasks, and the baseline protocols' per-link controllers) subclass it and use
:meth:`send` to deliver messages to peer processes after a link delay, and
:meth:`call_later` for timers.

Messages are delivered by invoking ``receive(message, sender)`` on the target
process at the delivery time; the handler executes atomically, mirroring the
paper's ``when received ... do`` blocks.
"""


class Process(object):
    """An actor with atomic message handlers, bound to a simulator."""

    def __init__(self, simulator, name):
        self.simulator = simulator
        self.name = name

    # ------------------------------------------------------------- messaging

    def send(self, target, message, delay, tag=None):
        """Deliver ``message`` to ``target`` after ``delay`` seconds.

        The delivery is modelled as a single event: at ``now + delay`` the
        target's :meth:`receive` handler runs atomically.
        """
        if tag is None:
            tag = type(message).__name__
        return self.simulator.schedule(
            delay, lambda: target.receive(message, self), tag=tag
        )

    def call_later(self, delay, callback, tag=None):
        """Schedule a local timer callback on this process."""
        if tag is None:
            tag = "%s.timer" % self.name
        return self.simulator.schedule(delay, callback, tag=tag)

    # --------------------------------------------------------------- handlers

    def receive(self, message, sender):
        """Handle a delivered message.  Subclasses must override."""
        raise NotImplementedError(
            "%s does not handle messages (received %r from %r)"
            % (type(self).__name__, message, sender)
        )

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.name)
