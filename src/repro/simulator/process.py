"""Base class for simulated protocol tasks.

A :class:`Process` is an actor attached to a :class:`~repro.simulator.simulation.Simulator`.
Concrete protocol tasks (the B-Neck RouterLink / SourceNode / DestinationNode
tasks) subclass it.  They do not send through the process: the protocol that
owns them puts each packet on its link and, at the delivery time, calls the
target task's handler for the packet, which executes atomically, mirroring
the paper's ``when received ... do`` blocks.
"""


class Process(object):
    """An actor with atomic message handlers, bound to a simulator."""

    def __init__(self, simulator, name):
        self.simulator = simulator
        self.name = name

    # --------------------------------------------------------------- handlers

    def receive(self, message, sender=None):
        """Handle a delivered message.  Subclasses must override."""
        raise NotImplementedError(
            "%s does not handle messages (received %r from %r)"
            % (type(self).__name__, message, sender)
        )

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.name)
