"""Sessions: single-path source/destination pairs with a maximum rate request.

A session (Section II) connects a source host to a destination host along a
static path, and is *greedy*: it wants as much rate as possible up to the
maximum rate it requested (``r_s``, possibly infinite).  The effective demand
seen by the allocation algorithms is ``D_s = min(r_s, C_e0)`` where ``e0`` is
the session's access link.
"""

import math

INFINITE_RATE = math.inf


def check_demand(demand, owner="session"):
    """Raise ``ValueError`` naming ``owner`` unless ``demand`` is a legal
    maximum rate: positive, possibly infinite, not NaN."""
    if not demand > 0:
        raise ValueError("%s demand must be positive, got %r" % (owner, demand))


class Session(object):
    """A single-path session.

    Attributes:
        session_id: unique identifier.
        source: node id of the source host.
        destination: node id of the destination host.
        node_path: list of node ids from source to destination.
        links: list of directed :class:`~repro.network.graph.Link` objects of
            the path (``π(s)`` in the paper), from the access link to the last
            hop into the destination host.
        demand: maximum rate requested by the session (``r_s``), in bits per
            second; ``math.inf`` means "no explicit limit".
        left: true once the protocol has applied the session's leave (set
            by its ``leave``); no later action may name the session.
        joined_at: the time the protocol's ``join`` scheduled the session's
            ``API.Join`` for (``None`` before it joins); no leave or change
            may be dated before it.
        changed_at: the latest date of a change the protocol's ``change``
            scheduled (``-math.inf`` before any); no leave may precede it.
    """

    __slots__ = (
        "session_id",
        "source",
        "destination",
        "node_path",
        "links",
        "demand",
        "left",
        "joined_at",
        "changed_at",
    )

    def __init__(self, session_id, source, destination, node_path, links, demand=INFINITE_RATE):
        if len(node_path) < 2:
            raise ValueError("a session path needs at least two nodes")
        if len(links) != len(node_path) - 1:
            raise ValueError("links must match the node path")
        check_demand(demand)
        self.session_id = session_id
        self.source = source
        self.destination = destination
        self.node_path = list(node_path)
        self.links = list(links)
        self.demand = demand
        self.left = False
        self.joined_at = None
        self.changed_at = -math.inf

    @property
    def access_link(self):
        """The first link of the path (owned by the SourceNode task)."""
        return self.links[0]

    @property
    def transit_links(self):
        """Every link after the access link (owned by RouterLink tasks)."""
        return self.links[1:]

    @property
    def path_length(self):
        """Number of links in the path."""
        return len(self.links)

    def effective_demand(self):
        """``D_s = min(r_s, C_e0)`` -- the demand after the access-link clamp."""
        return min(self.demand, self.access_link.capacity)

    def crosses(self, link):
        """True when ``link`` is on this session's path (links compare by
        endpoints)."""
        return link in self.links

    def __repr__(self):
        return "Session(%r, %r -> %r, hops=%d, demand=%r)" % (
            self.session_id,
            self.source,
            self.destination,
            len(self.links),
            self.demand,
        )

    def __hash__(self):
        return hash(self.session_id)

    def __eq__(self, other):
        return isinstance(other, Session) and self.session_id == other.session_id

