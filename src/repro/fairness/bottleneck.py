"""The link table of a session population, and bottleneck analysis
(Definition 1 of the paper).

:class:`LinkTable` indexes a population by link in one pass.  Centralized
B-Neck, water-filling, the max-min certificate and the analyses below all read
it, so validating a checkpoint indexes its sessions once.

A link ``e`` in the path of session ``s`` is a *bottleneck of s* iff

* the link is saturated: ``sum of the rates of the sessions crossing e == Ce``,
  and
* no session crossing ``e`` has a larger rate than ``s``.

The second condition depends only on the largest rate crossing ``e``:
:meth:`LinkTable.loads_and_maxima` records each link's load and largest member
rate in one pass, and ``at_most(maximum, rate of s)`` decides the condition.
Every test of it in the library goes through that pair.

From a max-min fair allocation this module derives, for every link, the paper's
``R*_e`` (sessions restricted at ``e``), ``F*_e`` (sessions crossing ``e`` but
restricted elsewhere) and the bottleneck rate ``B*_e``; and, for every session,
the set of its bottleneck links.  These are used by the Experiment 3 metrics
("error in network links" is measured over bottleneck links) and by several
tests.
"""

from repro.fairness.algebra import rates_equal


class LinkTable(object):
    """A session population indexed by link.

    A session's *position* is its index in :attr:`sessions`, and a link's
    *index* its position in :attr:`links`.

    Attributes:
        sessions: the sessions, in input order.
        links: the distinct links of their paths, in order of first appearance.
        index: ``{link endpoints: link index}``.
        capacities: per link index, the link's capacity.
        members: per link index, the positions of the sessions crossing it,
            in session order.
        paths: per session position, the link indices of its path.
        demands: per session position, its ``effective_demand()``.
    """

    __slots__ = ("sessions", "links", "index", "capacities", "members", "paths", "demands")

    def __init__(self, sessions):
        self.sessions = sessions = list(sessions)
        self.index = index = {}
        self.links = links = []
        self.members = members = []
        self.paths = paths = []
        for position, session in enumerate(sessions):
            path = []
            for link in session.links:
                # The key is ``link.endpoints``, built without the property call.
                link_index = index.setdefault((link.source, link.target), len(links))
                if link_index == len(links):
                    links.append(link)
                    members.append([])
                members[link_index].append(position)
                path.append(link_index)
            paths.append(path)
        self.capacities = [link.capacity for link in links]
        self.demands = [session.effective_demand() for session in sessions]

    def rates(self, allocation):
        """Per session position, its rate in ``allocation`` as a float (0.0 if absent)."""
        get = allocation.get
        return [float(get(session.session_id, 0.0)) for session in self.sessions]

    def loads_and_maxima(self, rates):
        """Per link index, the sum of its members' ``rates`` (in member order)
        and the largest of them."""
        loads = []
        maxima = []
        for positions in self.members:
            crossing = [rates[position] for position in positions]
            loads.append(sum(crossing))
            maxima.append(max(crossing))
        return loads, maxima


def at_most(rate, bound):
    """``rate <= bound`` within tolerance.

    Applied to the largest member rate of a link, it tells whether no member
    is above ``bound``: every member rate ``x`` with ``bound < x <= rate`` is
    within tolerance of ``bound`` too, because ``x - bound - max(rel * x, abs)``
    grows with ``x``.  So it equals testing each member.
    """
    return rate <= bound or rates_equal(rate, bound)


def link_load(sessions, allocation, link):
    """Total allocated rate crossing ``link``."""
    return sum(
        float(allocation.get(session.session_id, 0.0))
        for session in sessions
        if session.crosses(link)
    )


class BottleneckAnalysis(object):
    """Per-link restricted/unrestricted session sets for an allocation.

    Attributes:
        restricted: ``{link_endpoints: set(session_id)}`` -- the paper's ``R*_e``.
        unrestricted: ``{link_endpoints: set(session_id)}`` -- the paper's ``F*_e``.
        bottleneck_rate: ``{link_endpoints: rate}`` -- ``B*_e`` for links with
            non-empty ``R*_e``.
        bottleneck_links_of: ``{session_id: [link]}``.
    """

    def __init__(self, restricted, unrestricted, bottleneck_rate, bottleneck_links_of, links):
        self.restricted = restricted
        self.unrestricted = unrestricted
        self.bottleneck_rate = bottleneck_rate
        self.bottleneck_links_of = bottleneck_links_of
        self._links = links

    def saturated_links(self):
        """Links with a non-empty restricted set (i.e. fully used links)."""
        return [
            self._links[endpoints]
            for endpoints, members in self.restricted.items()
            if members
        ]

    def __repr__(self):
        return "BottleneckAnalysis(links=%d, bottleneck_links=%d)" % (
            len(self._links),
            len(self.saturated_links()),
        )


def analyze_bottlenecks(sessions, allocation):
    """Build a :class:`BottleneckAnalysis` for an allocation.

    The allocation is normally max-min fair, in which case every session has at
    least one bottleneck (or is limited by its own demand); the analysis is
    still well defined for arbitrary feasible allocations, which is how the
    Experiment 3 metrics use it on the transient rates of BFYZ.
    """
    table = LinkTable(sessions)
    sessions = table.sessions
    rates = table.rates(allocation)
    loads, maxima = table.loads_and_maxima(rates)

    restricted = {}
    unrestricted = {}
    bottleneck_rate = {}
    bottleneck_links_of = {session.session_id: [] for session in sessions}

    for link, positions, load, largest in zip(table.links, table.members, loads, maxima):
        endpoints = link.endpoints
        restricted_here = restricted[endpoints] = set()
        unrestricted_here = unrestricted[endpoints] = set()
        saturated = rates_equal(load, link.capacity)
        if saturated:
            bottleneck_rate[endpoints] = largest
        for position in positions:
            session_id = sessions[position].session_id
            if saturated and at_most(largest, rates[position]):
                restricted_here.add(session_id)
                bottleneck_links_of[session_id].append(link)
            else:
                unrestricted_here.add(session_id)

    return BottleneckAnalysis(
        restricted=restricted,
        unrestricted=unrestricted,
        bottleneck_rate=bottleneck_rate,
        bottleneck_links_of=bottleneck_links_of,
        links={link.endpoints: link for link in table.links},
    )
