"""Single-path routing by hop count.

Sessions in the paper follow "a shortest path from its source to its
destination node", by hop count.  Hosts hang off routers through dedicated
access links and never relay (Section II), so a session's path is its source
host, a shortest router path between the two hosts' attached routers, and its
destination host.  :class:`PathComputer` is the one route search: a
breadth-first search between routers that keeps nothing per router pair.  A
join names its two routers, so the search never starts from a host.
"""

import collections


def path_links(network, node_path):
    """Convert a node path to the list of directed links it traverses."""
    return [
        network.link(node_path[index], node_path[index + 1])
        for index in range(len(node_path) - 1)
    ]


def _shortest_router_path(relays, source, target):
    # Breadth-first search over the router -> router-neighbour map.  The
    # target is entered when first discovered, so its predecessor is the
    # first popped router linked to it.
    if source == target:
        return [source]
    predecessor = {source: None}
    frontier = collections.deque([source])
    while frontier:
        current = frontier.popleft()
        for neighbor in relays[current]:
            if neighbor not in predecessor:
                predecessor[neighbor] = current
                if neighbor == target:
                    return _reconstruct(predecessor, target)
                frontier.append(neighbor)
    return None


def _reconstruct(predecessor, target):
    path = [target]
    while predecessor[path[-1]] is not None:
        path.append(predecessor[path[-1]])
    path.reverse()
    return path


class PathComputer(object):
    """Hop-count routes between routers.

    A session's node path is ``[source_host] + router_path +
    [destination_host]``, where ``router_path`` is a shortest path between
    the routers its two hosts attach to.  The search reads each router's
    router neighbours from a map that is rebuilt whenever
    :attr:`Network.router_changes` has moved since it was built, that is
    after a router or a link was added.  Attaching and detaching hosts leaves
    that count as is, so joins never rebuild the map.
    """

    def __init__(self, network):
        self.network = network
        self._relays = None
        self._relays_built_at = None

    def router_route(self, ingress, egress):
        """Return a new list: a shortest router path between two routers.

        Raises ``ValueError`` naming an endpoint that is not a router, or when
        no path exists.
        """
        if self._relays_built_at != self.network.router_changes:
            self._build_relays()
        relays = self._relays
        for router in (ingress, egress):
            if router not in relays:
                raise ValueError("%r is not a router" % (router,))
        path = _shortest_router_path(relays, ingress, egress)
        if path is None:
            raise ValueError("no path from %r to %r" % (ingress, egress))
        return path

    def _build_relays(self):
        network = self.network
        self._relays_built_at = network.router_changes
        routers = {node.node_id for node in network.routers()}
        self._relays = {
            router: tuple(
                neighbor for neighbor in network.neighbors(router) if neighbor in routers
            )
            for router in routers
        }
