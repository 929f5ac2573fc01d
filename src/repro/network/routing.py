"""Single-path routing by hop count.

Sessions in the paper follow "a shortest path from its source to its
destination node", by hop count.  Hosts hang off routers through dedicated
access links and never relay (Section II), so a session's path is its source
host, a shortest router path between the two hosts' attached routers, and its
destination host.  :class:`PathComputer` is the one route search, between
routers, and keeps nothing per router pair.  A join names its two routers,
so the search never starts from a host.

Routes define the schedule, so the search must return exactly the path a
breadth-first search from the source router returns: the target, and every
router on the way, is entered from the first popped router linked to it,
scanning each router's neighbours in the network's order.  The search gets
that path without scanning the ball of radius d (the hop distance) around
the source:

1. A level-synchronous bidirectional search, forward from the source over
   out-neighbours and backward from the target over in-neighbours, expands
   the smaller frontier by one whole level at a time and stops at the first
   level that meets the other side.  The forward half *is* the
   breadth-first search up to that level (same order, same predecessors);
   the backward half gives the exact distance to the target of every router
   it reached.  Every shortest path crosses the last forward level at a
   router the backward half reached (a *meeting* router).
2. Past that level, a forward search from the meeting routers, in their
   forward order, enters only routers one backward level closer to the
   target each step: the routers on some shortest path (the *DAG*).  It
   gives every remaining predecessor, the target's included.

*Lemma.*  Every breadth-first parent of a DAG router (a neighbour one level
closer to the source) is itself on the DAG.  So the relative order in which
the full search discovers DAG routers depends only on DAG routers and the
neighbour order, and the search restricted to the DAG picks the same
predecessor for every DAG router.  On a transit-stub graph two balls of
radius d/2 are far smaller than one of radius d.
"""


def path_links(network, node_path):
    """Convert a node path to the list of directed links it traverses."""
    return [
        network.link(node_path[index], node_path[index + 1])
        for index in range(len(node_path) - 1)
    ]


def _shortest_router_path(index, source, target):
    # ``index`` is ``(names, ids, out_neighbors, in_neighbors)``: routers are
    # the ints 0..n-1, ``names[i]`` is router i's id and ``ids`` the inverse.
    # Returns the router path as node ids, or None when no path exists.
    names, ids, out_neighbors, in_neighbors = index
    start = ids[source]
    goal = ids[target]
    if start == goal:
        return [source]
    # 1. ``ahead[i]`` is router i's predecessor on the forward side (-1 while
    # unreached), ``behind[i]`` its distance to the goal (-1 likewise).
    ahead = [-1] * len(names)
    behind = ahead[:]
    ahead[start] = start
    behind[goal] = 0
    front = [start]
    back = [goal]
    depth_behind = 0
    met = False
    while not met:
        if len(front) <= len(back):
            level = []
            for node in front:
                for neighbor in out_neighbors[node]:
                    if ahead[neighbor] < 0:
                        ahead[neighbor] = node
                        level.append(neighbor)
                        if behind[neighbor] >= 0:
                            met = True
            front = level
        else:
            depth_behind += 1
            level = []
            for node in back:
                for neighbor in in_neighbors[node]:
                    if behind[neighbor] < 0:
                        behind[neighbor] = depth_behind
                        level.append(neighbor)
                        if ahead[neighbor] >= 0:
                            met = True
            back = level
        if not level:
            return None
    # 2. The meeting routers, in forward order, all lie depth_behind from the
    # goal (a closer one would have met a level earlier).  From them, each
    # step enters the DAG routers one level closer to the goal; no router
    # past the meeting level has a predecessor yet.
    layer = []
    for node in front:
        if behind[node] >= 0:
            layer.append(node)
    for depth in range(depth_behind - 1, -1, -1):
        following = []
        for node in layer:
            for neighbor in out_neighbors[node]:
                if behind[neighbor] == depth and ahead[neighbor] < 0:
                    ahead[neighbor] = node
                    following.append(neighbor)
        layer = following
    path = [target]
    node = ahead[goal]
    while node != start:
        path.append(names[node])
        node = ahead[node]
    path.append(source)
    path.reverse()
    return path


class PathComputer(object):
    """Hop-count routes between routers.

    A session's node path is ``[source_host] + router_path +
    [destination_host]``, where ``router_path`` is a shortest path between
    the routers its two hosts attach to, the one a breadth-first search from
    the source router returns.  The search (see the module docstring) is
    bidirectional, and past the level where its two halves meet it replays
    the forward search over the routers of the shortest paths alone, which
    by the module's lemma picks the same path.

    It reads a dense index of the router graph: the routers numbered in the
    network's order, and each router's router out-neighbours (in the
    network's neighbour order) and in-neighbours, as tuples of those
    numbers.  The index is built at the first route, not before, and rebuilt
    whenever :attr:`Network.router_changes` has moved since, that is after a
    router or a link was added.  Attaching and detaching hosts leaves that
    count as is, so joins never rebuild the index.
    """

    def __init__(self, network):
        self.network = network
        self._index = None
        self._index_built_at = None

    def router_route(self, ingress, egress):
        """Return a new list: a shortest router path between two routers.

        Raises ``ValueError`` naming an endpoint that is not a router, or when
        no path exists.
        """
        if self._index_built_at != self.network.router_changes:
            self._build_index()
        index = self._index
        ids = index[1]
        for router in (ingress, egress):
            if router not in ids:
                raise ValueError("%r is not a router" % (router,))
        path = _shortest_router_path(index, ingress, egress)
        if path is None:
            raise ValueError("no path from %r to %r" % (ingress, egress))
        return path

    def _build_index(self):
        network = self.network
        self._index_built_at = network.router_changes
        names = [node.node_id for node in network.routers()]
        ids = {name: number for number, name in enumerate(names)}
        out_neighbors = [
            tuple(ids[neighbor] for neighbor in network.neighbors(name) if neighbor in ids)
            for name in names
        ]
        in_neighbors = [[] for _ in names]
        for number, neighbors in enumerate(out_neighbors):
            for neighbor in neighbors:
                in_neighbors[neighbor].append(number)
        self._index = (names, ids, out_neighbors, [tuple(into) for into in in_neighbors])
