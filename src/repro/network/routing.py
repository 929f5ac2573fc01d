"""Single-path routing.

Sessions in the paper follow "a shortest path from its source to its
destination node".  Two metrics are supported:

* ``"hops"`` -- breadth-first shortest path by hop count (the default, and the
  one used in the evaluation);
* ``"delay"`` -- Dijkstra over link propagation delays, useful for WAN-flavored
  examples.

Under either metric hosts never relay: a path may start or end at a host but
never passes through one.  Both searches expand only
:meth:`~repro.network.graph.Network.relay_neighbors`, which the network
builds lazily per node, so the hosts attached over a workload add nothing to
the cost of a search.

:class:`PathComputer` caches router-to-router paths, which matters when a
workload creates tens of thousands of sessions over the same backbone.  Its
hop-count searches between routers read every router's relay tuple from a
map it builds at its first search, so a search makes no call per node.
"""

import collections
import heapq


def shortest_path(network, source, target, metric="hops"):
    """Return the list of node ids of a shortest path from ``source`` to ``target``.

    Raises ``ValueError`` when no path exists or the metric is unknown.
    """
    if metric == "hops":
        path = _bfs_path(network, source, target)
    elif metric == "delay":
        path = _dijkstra_path(network, source, target)
    else:
        raise ValueError("unknown routing metric %r" % metric)
    if path is None:
        raise ValueError("no path from %r to %r" % (source, target))
    return path


def path_links(network, node_path):
    """Convert a node path to the list of directed links it traverses."""
    return [
        network.link(node_path[index], node_path[index + 1])
        for index in range(len(node_path) - 1)
    ]


def _bfs_path(network, source, target):
    # Hosts never relay, so only `relay_neighbors` are expanded.  The target
    # (host or router) is entered from the first popped node linked to it,
    # which is the predecessor a scan of every out-neighbour would give it.
    if source == target:
        return [source]
    predecessor = {source: None}
    frontier = collections.deque([source])
    relay_neighbors = network.relay_neighbors
    has_link = network.has_link
    while frontier:
        current = frontier.popleft()
        if has_link(current, target):
            predecessor[target] = current
            return _reconstruct(predecessor, target)
        for neighbor in relay_neighbors(current):
            if neighbor not in predecessor:
                predecessor[neighbor] = current
                frontier.append(neighbor)
    return None


def _router_bfs_path(relays, source, target):
    # `_bfs_path` for a router target, with the relay tuples in a map.  The
    # target is entered when first discovered, while expanding the first
    # popped node linked to it: the predecessor `_bfs_path` gives it.
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


def _dijkstra_path(network, source, target):
    # The same relay rule as `_bfs_path`: a host is entered only as the target.
    if source == target:
        return [source]
    distances = {source: 0.0}
    predecessor = {source: None}
    heap = [(0.0, source)]
    visited = set()
    link = network.link
    while heap:
        distance, current = heapq.heappop(heap)
        if current in visited:
            continue
        visited.add(current)
        if current == target:
            return _reconstruct(predecessor, target)
        neighbors = network.relay_neighbors(current)
        if network.has_link(current, target):
            # A router target is relaxed twice at the same distance; the
            # strict compare below makes the second time a no-op.
            neighbors += (target,)
        for neighbor in neighbors:
            candidate = distance + link(current, neighbor).propagation_delay
            if neighbor not in distances or candidate < distances[neighbor]:
                distances[neighbor] = candidate
                predecessor[neighbor] = current
                heapq.heappush(heap, (candidate, neighbor))
    return None


def _reconstruct(predecessor, target):
    path = [target]
    while predecessor[path[-1]] is not None:
        path.append(predecessor[path[-1]])
    path.reverse()
    return path


class PathComputer(object):
    """Shortest-path oracle with a router-to-router path cache.

    Host access links are always single-hop, so a host-to-host path is the
    concatenation ``[source_host] + router_path + [destination_host]``; only
    the router-to-router segment is cached.  Like the cache, the map of
    router relays that hop-count searches read assumes that no link between
    routers is added after the first search; attaching hosts changes no
    router's relays.
    """

    def __init__(self, network, metric="hops"):
        self.network = network
        self.metric = metric
        self._cache = {}
        self._relays = None

    def route(self, source_host, destination_host):
        """Return the node path from ``source_host`` to ``destination_host``."""
        source_node = self.network.node(source_host)
        destination_node = self.network.node(destination_host)
        if source_node.is_host and destination_node.is_host:
            ingress = source_node.attached_router
            egress = destination_node.attached_router
            if ingress is None or egress is None:
                return shortest_path(self.network, source_host, destination_host, self.metric)
            router_path = self.router_route(ingress, egress)
            return [source_host] + router_path + [destination_host]
        return shortest_path(self.network, source_host, destination_host, self.metric)

    def router_route(self, ingress, egress):
        """Return (and cache) the router-level path between two routers."""
        key = (ingress, egress)
        if key not in self._cache:
            if self.metric == "hops":
                path = _router_bfs_path(self._router_relays(), ingress, egress)
                if path is None:
                    raise ValueError("no path from %r to %r" % (ingress, egress))
            else:
                path = shortest_path(self.network, ingress, egress, self.metric)
            self._cache[key] = path
        return list(self._cache[key])

    def _router_relays(self):
        if self._relays is None:
            relay_neighbors = self.network.relay_neighbors
            self._relays = {
                node.node_id: relay_neighbors(node.node_id) for node in self.network.routers()
            }
        return self._relays

    def route_links(self, source_host, destination_host):
        """Return the directed links of the path between two hosts."""
        return path_links(self.network, self.route(source_host, destination_host))

    def cache_size(self):
        return len(self._cache)
