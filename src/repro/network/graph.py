"""Directed network graph: nodes (routers and hosts) and links.

The model follows Section II of the paper:

* the network is a simple directed graph ``G = (V, E)``;
* connected nodes have links in both directions;
* every link has its own bandwidth and propagation delay;
* hosts hang off routers through dedicated access links, and each host is the
  source of at most one session.
"""

import math

ROUTER = "router"
HOST = "host"

# Transmission delay of one control packet.  The paper assumes control traffic
# does not consume data bandwidth but models transmission and propagation
# times; a B-Neck control packet carries a session id, a rate and a link id,
# which we size at 64 bytes.
DEFAULT_CONTROL_PACKET_BITS = 512.0


class Node(object):
    """A vertex of the network graph: a router or a host."""

    __slots__ = ("node_id", "kind", "tier", "attached_router")

    def __init__(self, node_id, kind, tier=None, attached_router=None):
        if kind not in (ROUTER, HOST):
            raise ValueError("unknown node kind %r" % kind)
        self.node_id = node_id
        self.kind = kind
        self.tier = tier
        self.attached_router = attached_router

    @property
    def is_router(self):
        return self.kind == ROUTER

    @property
    def is_host(self):
        return self.kind == HOST

    def __repr__(self):
        return "Node(%r, %s)" % (self.node_id, self.kind)

    def __hash__(self):
        return hash(self.node_id)

    def __eq__(self, other):
        return isinstance(other, Node) and self.node_id == other.node_id


class Link(object):
    """A directed link with a bandwidth and a propagation delay.

    Attributes:
        source: node id of the transmitting end.
        target: node id of the receiving end.
        capacity: bandwidth available to data traffic, in bits per second
            (``Ce`` in the paper).
        propagation_delay: one-way propagation delay in seconds.

    The constructor's ``control_packet_bits`` is the size of a control packet,
    which sets the transmission part of :meth:`control_delay`.
    """

    __slots__ = (
        "source",
        "target",
        "capacity",
        "propagation_delay",
        "_control_delay",
    )

    def __init__(
        self,
        source,
        target,
        capacity,
        propagation_delay,
        control_packet_bits=DEFAULT_CONTROL_PACKET_BITS,
    ):
        # `set_capacity`'s rule, as chained compares (no call per link):
        # they are false for NaN, which would corrupt heap order, as well as
        # for the infinities.
        if not 0 < capacity < math.inf:
            raise ValueError(
                "link %r -> %r: capacity must be positive and finite, got %r"
                % (source, target, capacity)
            )
        if not 0 <= propagation_delay < math.inf:
            raise ValueError(
                "link %r -> %r: propagation delay must be non-negative and "
                "finite, got %r" % (source, target, propagation_delay)
            )
        self.source = source
        self.target = target
        self.capacity = capacity
        self.propagation_delay = propagation_delay
        # The per-packet control delay is computed once instead of on every
        # transmission.  It is *pinned* at the construction-time capacity even
        # when `set_capacity` later changes the data-plane bandwidth, because
        # the paper's control traffic does not consume data bandwidth.
        self._control_delay = propagation_delay + control_packet_bits / capacity

    @property
    def endpoints(self):
        return (self.source, self.target)

    def control_delay(self):
        """One-way delay experienced by a control packet on this link."""
        return self._control_delay

    def set_capacity(self, capacity):
        """Change the data-plane bandwidth ``Ce`` of this link.

        Only the capacity used by the fairness computation changes; the
        control-packet delay keeps its construction-time value (see the
        comment in ``__init__``).  Callers driving a live protocol should
        apply a :class:`~repro.core.actions.CapacityChangeAction` instead,
        which also re-runs the bottleneck computation at the affected
        RouterLink.
        """
        if capacity <= 0 or not math.isfinite(capacity):
            raise ValueError(
                "link capacity must be positive and finite, got %r" % (capacity,)
            )
        self.capacity = capacity

    def __repr__(self):
        return "Link(%r -> %r, capacity=%.3g, prop=%.3g)" % (
            self.source,
            self.target,
            self.capacity,
            self.propagation_delay,
        )

    def __hash__(self):
        return hash((self.source, self.target))

    def __eq__(self, other):
        return (
            isinstance(other, Link)
            and self.source == other.source
            and self.target == other.target
        )


class Network(object):
    """A simple directed graph of routers, hosts and links."""

    def __init__(self, name="network"):
        self.name = name
        self._nodes = {}
        self._links = {}
        self._adjacency = {}
        self._host_counter = 0
        self._router_changes = 0

    @property
    def router_changes(self):
        """How many times :meth:`add_router` and :meth:`add_link` have added.

        Route searches keep a map of the router graph and rebuild it when
        this count has moved.  :meth:`attach_host` and :meth:`detach_host`
        leave it as is, so joins and departures never rebuild the map.  A
        host linked by hand with :meth:`add_link` moves it too, which costs
        only a needless rebuild.
        """
        return self._router_changes

    # ------------------------------------------------------------------ nodes

    def add_router(self, node_id, tier=None):
        """Add a router node and return it."""
        router = self._add_node(Node(node_id, ROUTER, tier=tier))
        self._router_changes += 1
        return router

    def add_host(self, node_id, attached_router=None):
        """Add a host node and return it."""
        return self._add_node(Node(node_id, HOST, attached_router=attached_router))

    def _add_node(self, node):
        if node.node_id in self._nodes:
            raise ValueError("duplicate node id %r" % (node.node_id,))
        self._nodes[node.node_id] = node
        self._adjacency[node.node_id] = []
        return node

    def node(self, node_id):
        """Return the node with the given id (raises ``KeyError`` if absent)."""
        return self._nodes[node_id]

    def nodes(self):
        """All nodes, in insertion order."""
        return list(self._nodes.values())

    def routers(self):
        """All router nodes."""
        return [node for node in self._nodes.values() if node.is_router]

    def hosts(self):
        """All host nodes."""
        return [node for node in self._nodes.values() if node.is_host]

    # ------------------------------------------------------------------ links

    def add_link(
        self,
        source,
        target,
        capacity,
        propagation_delay,
        bidirectional=True,
    ):
        """Add a link (and, by default, its reverse) and return the forward link.

        Section II: "Connected nodes have links in both directions", so
        ``bidirectional=True`` is the default.
        """
        forward = self._add_directed_link(source, target, capacity, propagation_delay)
        if bidirectional and (target, source) not in self._links:
            self._add_directed_link(target, source, capacity, propagation_delay)
        self._router_changes += 1
        return forward

    def _add_directed_link(self, source, target, capacity, propagation_delay):
        if source not in self._nodes or target not in self._nodes:
            raise KeyError("both endpoints must exist before adding a link")
        if source == target:
            raise ValueError("self-loops are not allowed (node %r)" % (source,))
        key = (source, target)
        if key in self._links:
            raise ValueError("duplicate link %r -> %r" % (source, target))
        link = Link(source, target, capacity, propagation_delay)
        self._links[key] = link
        self._adjacency[source].append(target)
        return link

    def link(self, source, target):
        """Return the directed link ``source -> target``."""
        return self._links[(source, target)]

    def has_link(self, source, target):
        return (source, target) in self._links

    def reverse_link(self, link):
        """Return the link in the opposite direction of ``link``."""
        return self._links[(link.target, link.source)]

    def links(self):
        """All directed links, in insertion order."""
        return list(self._links.values())

    def neighbors(self, node_id):
        """Node ids reachable through one outgoing link."""
        return list(self._adjacency[node_id])

    # ------------------------------------------------------------ host helpers

    def attach_host(
        self,
        router_id,
        capacity,
        propagation_delay,
        host_id=None,
    ):
        """Create a host, connect it to ``router_id`` both ways, and return it.

        This is how the workload generator materialises the paper's
        one-host-per-session sources and destinations.  Raises ``ValueError``,
        adding nothing, when ``router_id`` is not a router of the network.
        """
        router = self._nodes.get(router_id)
        if router is None or not router.is_router:
            raise ValueError("cannot attach a host to %r: not a router" % (router_id,))
        if host_id is None:
            self._host_counter += 1
            host_id = "host-%d" % self._host_counter
        host = self.add_host(host_id, attached_router=router_id)
        # Not through add_link: attaching a host leaves router_changes as is.
        for source, target in ((host_id, router_id), (router_id, host_id)):
            self._add_directed_link(source, target, capacity, propagation_delay)
        return host

    def detach_host(self, host_id):
        """Remove a host and the links between it and its neighbours.

        The counterpart of :meth:`attach_host`: the host node, both access
        links and the router's adjacency entry go.  Host ids are never
        reused, since the id counter keeps counting.  Raises ``ValueError``,
        removing nothing, when ``host_id`` is not a host of the network.
        """
        host = self._nodes.get(host_id)
        if host is None or not host.is_host:
            raise ValueError("cannot detach %r: not a host" % (host_id,))
        links = self._links
        adjacency = self._adjacency
        for neighbor in adjacency.pop(host_id):
            del links[(host_id, neighbor)]
            if links.pop((neighbor, host_id), None) is not None:
                adjacency[neighbor].remove(host_id)
        del self._nodes[host_id]

    # ------------------------------------------------------------------ stats

    def number_of_nodes(self):
        return len(self._nodes)

    def number_of_links(self):
        return len(self._links)

    def is_connected(self):
        """True when every node is reachable from the first node (undirected sense).

        Because links are added in both directions by default, a BFS over
        outgoing links is sufficient.
        """
        if not self._nodes:
            return True
        start = next(iter(self._nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._nodes)

    def __repr__(self):
        return "Network(%r, nodes=%d, links=%d)" % (
            self.name,
            len(self._nodes),
            len(self._links),
        )
