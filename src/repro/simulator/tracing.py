"""Control-packet accounting.

The paper's evaluation reports, for every experiment, the number of control
packets transmitted -- in total (Figure 5, right), per packet type and 5 ms
interval (Figure 6), and per interval for B-Neck vs. BFYZ (Figure 8).  Every
packet transmission across a link is accounted for ("a Probe cycle of session s
generates a number of packets that is twice the length of s's path").

:class:`PacketTracer` is the single collection point for that accounting: the
protocol orchestrators call :meth:`PacketTracer.record` every time a packet is
put on a link.
"""

import collections


class PacketRecord(object):
    """One packet transmission across one link."""

    __slots__ = ("time", "packet_type", "session_id", "link", "direction")

    def __init__(self, time, packet_type, session_id, link=None, direction=None):
        self.time = time
        self.packet_type = packet_type
        self.session_id = session_id
        self.link = link
        self.direction = direction

    def __repr__(self):
        return "PacketRecord(t=%r, type=%r, session=%r, link=%r, dir=%r)" % (
            self.time,
            self.packet_type,
            self.session_id,
            self.link,
            self.direction,
        )


class NullPacketTracer(object):
    """A tracer that records nothing, as cheaply as possible.

    Protocol hot paths test the ``enabled`` attribute and skip the ``record``
    call entirely, so an untraced simulation pays zero accounting cost per
    packet.  The counting attributes exist (frozen at zero) so code that
    reads ``tracer.total`` after a run keeps working.
    """

    enabled = False

    def __init__(self):
        self.records = []
        self.total = 0
        self.by_type = collections.Counter()
        self.by_session = collections.Counter()
        self.last_packet_time = 0.0

    def record(self, time, packet_type, session_id, link=None, direction=None):
        """Accepted and discarded (callers normally skip the call entirely)."""

    def clear(self):
        pass

    def __repr__(self):
        return "NullPacketTracer()"


class PacketTracer(object):
    """Accounts every control packet put on a link.

    Two collection modes are supported:

    * *counting only* (``keep_records=False``, the default): per-type totals
      and per-interval histograms, cheap enough for large sweeps;
    * *full records* (``keep_records=True``): every :class:`PacketRecord` is
      kept, which the tests use to assert fine-grained properties.

    The ``enabled`` attribute is what the protocol hot path checks before
    calling :meth:`record`; it is always true for this class (use
    :class:`NullPacketTracer` to turn packet accounting off).
    """

    enabled = True

    def __init__(self, keep_records=False, interval=None):
        self.keep_records = keep_records
        self.interval = interval
        self.records = []
        self.total = 0
        self.by_type = collections.Counter()
        self.by_session = collections.Counter()
        self._interval_counts = collections.defaultdict(collections.Counter)
        self.last_packet_time = 0.0

    def record(self, time, packet_type, session_id, link=None, direction=None):
        """Record a packet transmission at ``time`` across ``link``."""
        self.total += 1
        self.by_type[packet_type] += 1
        self.by_session[session_id] += 1
        if time > self.last_packet_time:
            self.last_packet_time = time
        if self.interval is not None:
            bucket = int(time / self.interval)
            self._interval_counts[bucket][packet_type] += 1
        if self.keep_records:
            self.records.append(
                PacketRecord(time, packet_type, session_id, link=link, direction=direction)
            )

    # ------------------------------------------------------------ aggregates

    def packets_per_session(self):
        """Average number of packets per session (0.0 when no sessions)."""
        if not self.by_session:
            return 0.0
        return self.total / float(len(self.by_session))

    def interval_series(self, packet_types=None):
        """Return ``[(interval_start_time, {type: count})]`` sorted by time.

        Args:
            packet_types: optional iterable restricting the reported types.
        """
        if self.interval is None:
            raise ValueError("PacketTracer was created without an interval")
        series = []
        if not self._interval_counts:
            return series
        last_bucket = max(self._interval_counts)
        for bucket in range(0, last_bucket + 1):
            counts = self._interval_counts.get(bucket, collections.Counter())
            if packet_types is not None:
                counts = collections.Counter(
                    {ptype: counts.get(ptype, 0) for ptype in packet_types}
                )
            series.append((bucket * self.interval, dict(counts)))
        return series

    def totals_per_interval(self):
        """Return ``[(interval_start_time, total_packets)]`` sorted by time."""
        return [
            (start, sum(counts.values())) for start, counts in self.interval_series()
        ]

    def clear(self):
        self.records = []
        self.total = 0
        self.by_type = collections.Counter()
        self.by_session = collections.Counter()
        self._interval_counts = collections.defaultdict(collections.Counter)
        self.last_packet_time = 0.0

    def __repr__(self):
        return "PacketTracer(total=%d, types=%d)" % (self.total, len(self.by_type))
