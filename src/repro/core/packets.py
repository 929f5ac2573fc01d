"""The seven B-Neck control packets (Section III-B of the paper).

Every packet carries the id of the session it belongs to.  ``Join``, ``Probe``
and ``Response`` additionally carry the rate estimate ``lambda`` and the id of
the link ``eta`` that imposed the strongest restriction so far; ``Response``
carries the action indicator ``tau`` (one of ``RESPONSE``, ``UPDATE``,
``BOTTLENECK``); ``SetBottleneck`` carries the boolean ``beta`` used to detect
that no link confirmed itself as a bottleneck for the session.

Each packet class's ``kind`` is its type's index in :data:`PACKET_TYPES`,
the list of type names the packet tracer counts by, and
:data:`PACKET_CLASSES` lists the seven classes in that order.

A packet object is built where its message starts: at a source, at a
destination, or at a RouterLink that sends an Update or Bottleneck to another
session.  It is owned by its one pending delivery, and once delivered by the
handler running it.  A RouterLink forwards the object it received, changing
its fields in place (a Join's or Probe's ``rate`` and ``restricting_link``, a
Response's ``tau`` and ``restricting_link``, a SetBottleneck's
``found_bottleneck``), so no two pending deliveries share a packet.
"""

from repro.simulator.tracing import PACKET_TYPES

# Values of the Response packet's tau field.
RESPONSE = "RESPONSE"
UPDATE = "UPDATE"
BOTTLENECK = "BOTTLENECK"

RESPONSE_TYPES = (RESPONSE, UPDATE, BOTTLENECK)


class _Packet(object):
    """Common base: every packet belongs to one session.

    Subclasses with more fields assign ``session_id`` themselves: packets
    are built once per message, and a ``super()`` call per packet shows.
    """

    type_name = "Packet"
    __slots__ = ("session_id",)

    def __init__(self, session_id):
        self.session_id = session_id

    def __repr__(self):
        fields = ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields()
        )
        return "%s(%s)" % (self.type_name, fields)

    def _fields(self):
        return ("session_id",)


class Join(_Packet):
    """Sent downstream when a session arrives (``API.Join``).

    Doubles as a Probe: it registers the session at every link of the path
    (adding it to ``R_e``) while gathering the smallest bottleneck-rate
    estimate ``lambda`` and the link ``eta`` that imposed it.
    """

    type_name = "Join"
    kind = PACKET_TYPES.index(type_name)
    __slots__ = ("rate", "restricting_link")

    def __init__(self, session_id, rate, restricting_link):
        self.session_id = session_id
        self.rate = rate
        self.restricting_link = restricting_link

    def _fields(self):
        return ("session_id", "rate", "restricting_link")


class Probe(_Packet):
    """Sent downstream whenever the session's rate must be recomputed."""

    type_name = "Probe"
    kind = PACKET_TYPES.index(type_name)
    __slots__ = ("rate", "restricting_link")

    def __init__(self, session_id, rate, restricting_link):
        self.session_id = session_id
        self.rate = rate
        self.restricting_link = restricting_link

    def _fields(self):
        return ("session_id", "rate", "restricting_link")


class Response(_Packet):
    """Sent upstream by the destination to close a Probe cycle.

    ``tau`` tells the source what to do next: accept the rate (``RESPONSE``),
    accept it as final (``BOTTLENECK``), or start a new Probe cycle
    (``UPDATE``).
    """

    type_name = "Response"
    kind = PACKET_TYPES.index(type_name)
    __slots__ = ("tau", "rate", "restricting_link")

    def __init__(self, session_id, tau, rate, restricting_link):
        if tau not in RESPONSE_TYPES:
            raise ValueError("unknown Response tau %r" % (tau,))
        self.session_id = session_id
        self.tau = tau
        self.rate = rate
        self.restricting_link = restricting_link

    def _fields(self):
        return ("session_id", "tau", "rate", "restricting_link")


class Update(_Packet):
    """Sent upstream to ask the source to run a new Probe cycle."""

    type_name = "Update"
    kind = PACKET_TYPES.index(type_name)
    __slots__ = ()


class Bottleneck(_Packet):
    """Sent upstream to tell the source its current rate is the max-min rate."""

    type_name = "Bottleneck"
    kind = PACKET_TYPES.index(type_name)
    __slots__ = ()


class SetBottleneck(_Packet):
    """Sent downstream by the source once its rate is known to be stable.

    ``found_bottleneck`` (the paper's ``beta``) records whether some link along
    the way confirmed itself as a bottleneck for the session; if it reaches the
    destination still false, the destination answers with an ``Update``.
    """

    type_name = "SetBottleneck"
    kind = PACKET_TYPES.index(type_name)
    __slots__ = ("found_bottleneck",)

    def __init__(self, session_id, found_bottleneck):
        self.session_id = session_id
        self.found_bottleneck = bool(found_bottleneck)

    def _fields(self):
        return ("session_id", "found_bottleneck")


class Leave(_Packet):
    """Sent downstream when a session terminates (``API.Leave``)."""

    type_name = "Leave"
    kind = PACKET_TYPES.index(type_name)
    __slots__ = ()


PACKET_CLASSES = (Join, Probe, Response, Update, Bottleneck, SetBottleneck, Leave)
