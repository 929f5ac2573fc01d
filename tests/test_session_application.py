"""Unit tests for the session application API."""

from repro.core.api import RateNotification, SessionApplication
from repro.network.units import MBPS


class TestSessionApplication(object):
    def test_records_notifications_in_order(self):
        application = SessionApplication("s1", 100 * MBPS)
        assert application.current_rate is None
        assert application.notification_count == 0
        application.deliver_rate(0.001, 40 * MBPS)
        application.deliver_rate(0.002, 25 * MBPS)
        assert application.notification_count == 2
        assert application.current_rate == 25 * MBPS
        assert [n.rate for n in application.notifications] == [40 * MBPS, 25 * MBPS]

    def test_notification_record_fields(self):
        notification = RateNotification(0.25, "s1", 12.5)
        assert notification.time == 0.25
        assert notification.session_id == "s1"
        assert notification.rate == 12.5
        assert "s1" in repr(notification)
