"""Control-packet accounting.

The paper's evaluation reports, for every experiment, the number of control
packets transmitted -- in total (Figure 5, right), per packet type and 5 ms
interval (Figure 6), and per interval for B-Neck vs. BFYZ (Figure 8).  Every
packet transmission across a link is accounted for ("a Probe cycle of session s
generates a number of packets that is twice the length of s's path").

:class:`PacketTracer` is the single store of that accounting: one list of
per-type counts per session, indexed by :data:`PACKET_TYPES`.  A protocol
fetches a session's list once with :meth:`PacketTracer.counts_for` and
counts each packet it puts on a link with one increment of that list, so an
untimed tracer is never called per packet.  Only a *timed* tracer -- one
with an ``interval`` -- needs each packet's time, so the protocols call
:meth:`PacketTracer.record` for every packet instead; ``record`` counts into
the same lists.
"""

import collections
import math

# The seven B-Neck control-packet types; a packet's ``kind`` is its index here.
PACKET_TYPES = ("Join", "Probe", "Response", "Update", "Bottleneck",
                "SetBottleneck", "Leave")

_KIND = {name: kind for kind, name in enumerate(PACKET_TYPES)}


class PacketTracer(object):
    """Accounts every control packet put on a link.

    Counts are kept per session and per packet type, in the lists
    :meth:`counts_for` hands out; ``total``, ``by_type`` and ``by_session``
    sum them when read.  ``interval``, when given, is the bucket width in
    seconds of the per-interval histograms (Experiments 2 and 3); it must be
    positive and finite.  It makes the tracer *timed*, and the protocols
    then call :meth:`record` for every packet, because only that call
    carries the packet's time.
    """

    def __init__(self, interval=None):
        if interval is not None and not (interval > 0 and math.isfinite(interval)):
            raise ValueError(
                "PacketTracer interval must be positive and finite, got %r" % (interval,)
            )
        self.interval = interval
        self._counts = {}
        self._interval_counts = collections.defaultdict(collections.Counter)

    @property
    def timed(self):
        """True when the tracer buckets packets by time (it has an
        ``interval``)."""
        return self.interval is not None

    def counts_for(self, session_id):
        """The list of per-type counts of ``session_id``, indexed by
        :data:`PACKET_TYPES`: zeroed on the first call, the same list after."""
        counts = self._counts.get(session_id)
        if counts is None:
            counts = self._counts[session_id] = [0] * len(PACKET_TYPES)
        return counts

    def record(self, time, packet_type, session_id):
        """Count a packet of ``session_id`` put on a link at ``time``."""
        self.counts_for(session_id)[_KIND[packet_type]] += 1
        if self.interval is not None:
            bucket = int(time / self.interval)
            self._interval_counts[bucket][packet_type] += 1

    # ------------------------------------------------------------ aggregates

    @property
    def total(self):
        """Packets counted so far."""
        return sum(sum(counts) for counts in self._counts.values())

    @property
    def by_type(self):
        """``Counter`` of packets per type, without the types never sent."""
        columns = zip(PACKET_TYPES, zip(*self._counts.values()))
        return collections.Counter(
            {name: sum(column) for name, column in columns if any(column)}
        )

    @property
    def by_session(self):
        """``Counter`` of packets per session, without the sessions that sent
        none."""
        return collections.Counter(
            {session_id: sum(counts)
             for session_id, counts in self._counts.items() if any(counts)}
        )

    def packets_per_session(self):
        """Average number of packets per session (0.0 when no sessions)."""
        by_session = self.by_session
        if not by_session:
            return 0.0
        return sum(by_session.values()) / float(len(by_session))

    def interval_series(self):
        """Return ``[(interval_start_time, {type: count})]`` sorted by time."""
        if self.interval is None:
            raise ValueError("PacketTracer was created without an interval")
        series = []
        if not self._interval_counts:
            return series
        last_bucket = max(self._interval_counts)
        for bucket in range(0, last_bucket + 1):
            counts = self._interval_counts.get(bucket, collections.Counter())
            series.append((bucket * self.interval, dict(counts)))
        return series

    def totals_per_interval(self):
        """Return ``[(interval_start_time, total_packets)]`` sorted by time."""
        return [
            (start, sum(counts.values())) for start, counts in self.interval_series()
        ]

    def __repr__(self):
        return "PacketTracer(total=%d, types=%d)" % (self.total, len(self.by_type))
