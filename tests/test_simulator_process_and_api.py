"""Unit tests for the Process actor base class and the session application API."""

import pytest

from repro.core.api import RateNotification, SessionApplication
from repro.network.units import MBPS
from repro.simulator.process import Process
from repro.simulator.simulation import Simulator


class Echo(Process):
    """A process that records everything it receives."""

    def __init__(self, simulator, name):
        super(Echo, self).__init__(simulator, name)
        self.received = []

    def receive(self, message, sender):
        self.received.append((message, sender))


class TestProcess(object):
    def test_base_receive_handles_nothing(self):
        simulator = Simulator()
        process = Process(simulator, "bare")
        with pytest.raises(TypeError, match="bare cannot handle"):
            process.receive("anything", None)

    def test_receive_calls_the_delivery_handler(self):
        class Counter(Process):
            def on_int(self, message):
                self.total = getattr(self, "total", 0) + message

            delivery = {int: on_int}

        counter = Counter(Simulator(), "counter")
        counter.receive(2)
        counter.receive(3, None)
        assert counter.total == 5
        with pytest.raises(TypeError):
            counter.receive("five")

    def test_repr_mentions_name(self):
        assert "alice" in repr(Echo(Simulator(), "alice"))


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
