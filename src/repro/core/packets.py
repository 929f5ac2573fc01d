"""The seven B-Neck control packets (Section III-B of the paper).

Every packet carries the id of the session it belongs to.  ``Join``, ``Probe``
and ``Response`` additionally carry the rate estimate ``lambda`` and the id of
the link ``eta`` that imposed the strongest restriction so far; ``Response``
carries the action indicator ``tau`` (one of ``RESPONSE``, ``UPDATE``,
``BOTTLENECK``); ``SetBottleneck`` carries the boolean ``beta`` used to detect
that no link confirmed itself as a bottleneck for the session.

Wire format
-----------

Cross-shard hops in the parallel sharded engine ship packets between worker
processes at every epoch barrier.  Two mechanisms keep that cheap:

* every packet class implements a tuple-based ``__reduce__``, so a pickled
  packet is one memoized class reference plus a flat argument tuple (no
  per-object ``__getstate__`` dance over ``__slots__``);
* :func:`encode_packet` / :func:`decode_packet` go one step further and turn a
  packet into a plain ``(type_code, field...)`` tuple of primitives -- the
  representation the sharded engine's batch-encoded outboxes use, where an
  entire epoch's mail pickles as one list of flat tuples with no packet
  objects on the wire at all.
"""

# Values of the Response packet's tau field.
RESPONSE = "RESPONSE"
UPDATE = "UPDATE"
BOTTLENECK = "BOTTLENECK"

RESPONSE_TYPES = (RESPONSE, UPDATE, BOTTLENECK)


class _Packet(object):
    """Common base: every packet belongs to one session.

    Subclasses with more fields assign ``session_id`` themselves: packets
    are built on every hop, and a ``super()`` call per packet shows.
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
    __slots__ = ("rate", "restricting_link")

    def __init__(self, session_id, rate, restricting_link):
        self.session_id = session_id
        self.rate = rate
        self.restricting_link = restricting_link

    def __reduce__(self):
        return (Join, (self.session_id, self.rate, self.restricting_link))

    def _fields(self):
        return ("session_id", "rate", "restricting_link")


class Probe(_Packet):
    """Sent downstream whenever the session's rate must be recomputed."""

    type_name = "Probe"
    __slots__ = ("rate", "restricting_link")

    def __init__(self, session_id, rate, restricting_link):
        self.session_id = session_id
        self.rate = rate
        self.restricting_link = restricting_link

    def __reduce__(self):
        return (Probe, (self.session_id, self.rate, self.restricting_link))

    def _fields(self):
        return ("session_id", "rate", "restricting_link")


class Response(_Packet):
    """Sent upstream by the destination to close a Probe cycle.

    ``tau`` tells the source what to do next: accept the rate (``RESPONSE``),
    accept it as final (``BOTTLENECK``), or start a new Probe cycle
    (``UPDATE``).
    """

    type_name = "Response"
    __slots__ = ("tau", "rate", "restricting_link")

    def __init__(self, session_id, tau, rate, restricting_link):
        if tau not in RESPONSE_TYPES:
            raise ValueError("unknown Response tau %r" % (tau,))
        self.session_id = session_id
        self.tau = tau
        self.rate = rate
        self.restricting_link = restricting_link

    def __reduce__(self):
        return (Response, (self.session_id, self.tau, self.rate, self.restricting_link))

    def _fields(self):
        return ("session_id", "tau", "rate", "restricting_link")


class Update(_Packet):
    """Sent upstream to ask the source to run a new Probe cycle."""

    type_name = "Update"
    __slots__ = ()

    def __reduce__(self):
        return (Update, (self.session_id,))


class Bottleneck(_Packet):
    """Sent upstream to tell the source its current rate is the max-min rate."""

    type_name = "Bottleneck"
    __slots__ = ()

    def __reduce__(self):
        return (Bottleneck, (self.session_id,))


class SetBottleneck(_Packet):
    """Sent downstream by the source once its rate is known to be stable.

    ``found_bottleneck`` (the paper's ``beta``) records whether some link along
    the way confirmed itself as a bottleneck for the session; if it reaches the
    destination still false, the destination answers with an ``Update``.
    """

    type_name = "SetBottleneck"
    __slots__ = ("found_bottleneck",)

    def __init__(self, session_id, found_bottleneck):
        self.session_id = session_id
        self.found_bottleneck = bool(found_bottleneck)

    def __reduce__(self):
        return (SetBottleneck, (self.session_id, self.found_bottleneck))

    def _fields(self):
        return ("session_id", "found_bottleneck")


class Leave(_Packet):
    """Sent downstream when a session terminates (``API.Leave``)."""

    type_name = "Leave"
    __slots__ = ()

    def __reduce__(self):
        return (Leave, (self.session_id,))


PACKET_TYPES = (
    Join.type_name,
    Probe.type_name,
    Response.type_name,
    Update.type_name,
    Bottleneck.type_name,
    SetBottleneck.type_name,
    Leave.type_name,
)

# ------------------------------------------------------------------ wire codec
#
# Flat-tuple encoding used by the sharded engine's batch-encoded outboxes:
# ``encode_packet`` maps a packet to ``(type_code, field...)`` built from
# primitives only, and ``decode_packet`` rebuilds the packet through the
# constructor table below.  Codes are positional in ``PACKET_CLASSES`` and are
# part of the (process-internal) wire format, not a public identifier.

PACKET_CLASSES = (Join, Probe, Response, Update, Bottleneck, SetBottleneck, Leave)

_TYPE_CODES = {cls: code for code, cls in enumerate(PACKET_CLASSES)}


def encode_packet(packet):
    """Encode a packet as a flat ``(type_code, constructor_args...)`` tuple."""
    cls, args = packet.__reduce__()
    return (_TYPE_CODES[cls],) + args


def decode_packet(encoded):
    """Rebuild a packet from :func:`encode_packet` output."""
    return PACKET_CLASSES[encoded[0]](*encoded[1:])
