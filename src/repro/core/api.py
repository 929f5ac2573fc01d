"""The session-facing interface of B-Neck.

The paper formalizes the interaction between applications and the protocol
with four primitives:

* ``API.Join(s, r)`` -- session ``s`` joins and requests a maximum rate ``r``;
* ``API.Leave(s)`` -- session ``s`` terminates;
* ``API.Change(s, r)`` -- session ``s`` requests a new maximum rate ``r``;
* ``API.Rate(s, lambda)`` -- the protocol notifies ``s`` of its max-min rate.

The first three reach a protocol as the :class:`~repro.core.actions.JoinAction`,
:class:`~repro.core.actions.LeaveAction` and
:class:`~repro.core.actions.ChangeAction` records of a batch applied with
:meth:`~repro.core.actions.SessionProtocol.apply_actions`; ``API.Rate``
materialises as :class:`RateNotification` records delivered to a
:class:`SessionApplication`.
"""

from collections import namedtuple


class RateNotification(namedtuple("RateNotification", "time session_id rate")):
    """One ``API.Rate`` invocation: at ``time`` session ``session_id`` was told ``rate``."""

    __slots__ = ()


class SessionApplication(object):
    """The application behind a session.

    Applications are greedy: they want as much rate as possible up to the
    maximum they requested.  B-Neck builds one per session when the session
    joins; it records every rate notification in ``notifications``, in
    delivery order, and :meth:`~repro.core.protocol.BNeckProtocol.application`
    returns it.
    """

    def __init__(self, session_id, requested_rate):
        self.session_id = session_id
        self.requested_rate = requested_rate
        self.notifications = []

    @property
    def current_rate(self):
        """The last notified rate, or ``None`` before the first notification."""
        if not self.notifications:
            return None
        return self.notifications[-1].rate

    @property
    def notification_count(self):
        return len(self.notifications)

    def deliver_rate(self, time, rate):
        """Called by the protocol when ``API.Rate`` fires for this session."""
        notification = RateNotification(time, self.session_id, rate)
        self.notifications.append(notification)
        return notification

    def __repr__(self):
        return "SessionApplication(%r, requested=%r, notified=%d)" % (
            self.session_id,
            self.requested_rate,
            len(self.notifications),
        )
