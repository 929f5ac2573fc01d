"""Base class for simulated protocol tasks.

A :class:`Process` is an actor attached to a :class:`~repro.simulator.simulation.Simulator`.
Concrete protocol tasks (the B-Neck RouterLink / SourceNode / DestinationNode
tasks) subclass it and map each packet class they handle to its handler in
their ``delivery`` table.  They do not send through the process: the protocol
that owns them puts each packet on its link and, at the delivery time, calls
the target task's handler for the packet, which executes atomically,
mirroring the paper's ``when received ... do`` blocks.
"""


class Process(object):
    """An actor with atomic message handlers, bound to a simulator."""

    def __init__(self, simulator, name):
        self.simulator = simulator
        self.name = name

    # Message class -> the unbound handler that receives it.
    delivery = {}

    # --------------------------------------------------------------- handlers

    def receive(self, message, sender=None):
        """Handle ``message`` now with the handler :attr:`delivery` names for
        its class (deliveries call that handler directly)."""
        handler = self.delivery.get(message.__class__)
        if handler is None:
            raise TypeError("%s cannot handle %r" % (self.name, message))
        handler(self, message)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.name)
