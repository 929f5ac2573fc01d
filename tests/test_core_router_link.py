"""Handler-level unit tests for the RouterLink task (Figure 2).

These tests drive a single RouterLinkTask directly, with a recorder in place of
the protocol orchestrator, so each ``when received ...`` block of Figure 2 can
be checked in isolation: which per-link state it mutates and which packets it
forwards or originates.  A hop forwards the very packet object it received,
with at most its rate, restricting link, tau or beta changed; the Updates and
Bottlenecks it sends to other sessions are new objects.
"""

import pytest

from repro.core.packets import (
    BOTTLENECK,
    Bottleneck,
    Join,
    Leave,
    Probe,
    RESPONSE,
    Response,
    SetBottleneck,
    UPDATE,
    Update,
)
from repro.core.router_link import RouterLinkTask
from repro.core.state import IDLE, WAITING_PROBE, WAITING_RESPONSE
from repro.network.graph import Link
from repro.network.units import MBPS
from tests.conftest import deliver


LINK_ID = ("r1", "r2")


@pytest.fixture
def task(recorder):
    link = Link("r1", "r2", 100 * MBPS, 1e-6)
    return RouterLinkTask(recorder, link)


def settle(task, session_id, rate, restricted=True):
    """Put a session into the link state as IDLE with a recorded rate."""
    if restricted:
        task.state.add_restricted(session_id)
    else:
        task.state.add_unrestricted(session_id)
    task.state.set_state(session_id, IDLE)
    task.state.set_rate(session_id, rate)


class TestJoin(object):
    def test_join_registers_session_and_forwards(self, task, recorder):
        deliver(task, Join("s1", 500 * MBPS, ("h", "r1")))
        assert "s1" in task.state.restricted
        assert task.state.state_of("s1") == WAITING_RESPONSE
        forwarded = recorder.downstream_packets()
        assert len(forwarded) == 1
        assert isinstance(forwarded[0], Join)
        # The link clamps the advertised rate to its own bottleneck rate (100/1).
        assert forwarded[0].rate == pytest.approx(100 * MBPS)
        assert forwarded[0].restricting_link == LINK_ID

    def test_join_keeps_smaller_incoming_rate(self, task, recorder):
        deliver(task, Join("s1", 10 * MBPS, ("h", "r1")))
        forwarded = recorder.downstream_packets()[0]
        assert forwarded.rate == pytest.approx(10 * MBPS)
        assert forwarded.restricting_link == ("h", "r1")

    def test_join_triggers_updates_for_settled_sessions_above_new_rate(self, task, recorder):
        settle(task, "old", 100 * MBPS)
        deliver(task, Join("new", 500 * MBPS, ("h", "r1")))
        # B_e dropped to 50: the settled session at 100 must re-probe.
        updates = [p for p in recorder.upstream_packets() if isinstance(p, Update)]
        assert [p.session_id for p in updates] == ["old"]
        assert task.state.state_of("old") == WAITING_PROBE

    def test_join_does_not_update_sessions_already_below_new_rate(self, task, recorder):
        settle(task, "small", 10 * MBPS, restricted=False)
        deliver(task, Join("new", 500 * MBPS, ("h", "r1")))
        updates = [p for p in recorder.upstream_packets() if isinstance(p, Update)]
        assert updates == []


class TestProbe(object):
    def test_probe_moves_session_back_to_restricted(self, task, recorder):
        settle(task, "s1", 10 * MBPS, restricted=False)
        deliver(task, Probe("s1", 200 * MBPS, ("h", "r1")))
        assert "s1" in task.state.restricted
        assert task.state.state_of("s1") == WAITING_RESPONSE
        assert isinstance(recorder.downstream_packets()[0], Probe)

    def test_probe_clamps_rate_like_join(self, task, recorder):
        settle(task, "other", 30 * MBPS, restricted=False)
        task.state.add_restricted("s1")
        deliver(task, Probe("s1", 200 * MBPS, ("h", "r1")))
        forwarded = recorder.downstream_packets()[0]
        # B_e = (100 - 30) / 1 = 70 for the probing session.
        assert forwarded.rate == pytest.approx(70 * MBPS)
        assert forwarded.restricting_link == LINK_ID


class TestResponse(object):
    def test_accepted_when_this_link_restricts_at_its_rate(self, task, recorder):
        deliver(task, Join("s1", 500 * MBPS, ("h", "r1")))
        recorder.clear()
        deliver(task, Response("s1", RESPONSE, 100 * MBPS, LINK_ID))
        assert task.state.state_of("s1") == IDLE
        assert task.state.rate_of("s1") == pytest.approx(100 * MBPS)
        responses = [p for p in recorder.upstream_packets() if isinstance(p, Response)]
        assert len(responses) == 1

    def test_accepted_response_from_elsewhere_below_local_rate(self, task, recorder):
        deliver(task, Join("s1", 500 * MBPS, ("h", "r1")))
        recorder.clear()
        deliver(task, Response("s1", RESPONSE, 30 * MBPS, ("r5", "r6")))
        assert task.state.state_of("s1") == IDLE
        assert task.state.rate_of("s1") == pytest.approx(30 * MBPS)

    def test_stale_rate_triggers_update(self, task, recorder):
        # s1 probed when it was alone (clamped at 100 here), but a second
        # session joined before the Response came back: the rate no longer
        # matches B_e, so the Response is turned into an UPDATE.
        deliver(task, Join("s1", 500 * MBPS, ("h", "r1")))
        deliver(task, Join("s2", 500 * MBPS, ("h2", "r1")))
        recorder.clear()
        deliver(task, Response("s1", RESPONSE, 100 * MBPS, LINK_ID))
        assert task.state.state_of("s1") == WAITING_PROBE
        response = [p for p in recorder.upstream_packets() if isinstance(p, Response)][0]
        assert response.tau == UPDATE

    def test_update_tau_marks_waiting_probe_and_passes_through(self, task, recorder):
        deliver(task, Join("s1", 500 * MBPS, ("h", "r1")))
        recorder.clear()
        deliver(task, Response("s1", UPDATE, 70 * MBPS, ("r5", "r6")))
        assert task.state.state_of("s1") == WAITING_PROBE
        response = [p for p in recorder.upstream_packets() if isinstance(p, Response)][0]
        assert response.tau == UPDATE

    def test_bottleneck_detected_when_all_restricted_settle(self, task, recorder):
        settle(task, "s2", 50 * MBPS)
        deliver(task, Join("s1", 500 * MBPS, ("h", "r1")))
        recorder.clear()
        deliver(task, Response("s1", RESPONSE, 50 * MBPS, LINK_ID))
        response = [p for p in recorder.upstream_packets() if isinstance(p, Response)][0]
        assert response.tau == BOTTLENECK
        assert response.restricting_link == LINK_ID
        # The other settled session is notified with a Bottleneck packet.
        bottlenecks = [p for p in recorder.upstream_packets() if isinstance(p, Bottleneck)]
        assert [p.session_id for p in bottlenecks] == ["s2"]

    def test_no_bottleneck_while_someone_still_probes(self, task, recorder):
        deliver(task, Join("s2", 500 * MBPS, ("h2", "r1")))  # still WAITING_RESPONSE
        deliver(task, Join("s1", 500 * MBPS, ("h", "r1")))
        recorder.clear()
        deliver(task, Response("s1", RESPONSE, 50 * MBPS, LINK_ID))
        response = [p for p in recorder.upstream_packets() if isinstance(p, Response)][0]
        assert response.tau == RESPONSE


class TestUpdateAndBottleneck(object):
    def test_update_forwarded_once_for_idle_sessions(self, task, recorder):
        settle(task, "s1", 40 * MBPS)
        deliver(task, Update("s1"))
        assert task.state.state_of("s1") == WAITING_PROBE
        assert len([p for p in recorder.upstream_packets() if isinstance(p, Update)]) == 1
        recorder.clear()
        # A second Update while already WAITING_PROBE is absorbed.
        deliver(task, Update("s1"))
        assert recorder.upstream_packets() == []

    def test_bottleneck_forwarded_only_for_idle_restricted_sessions(self, task, recorder):
        settle(task, "s1", 40 * MBPS)
        deliver(task, Bottleneck("s1"))
        assert len(recorder.upstream_packets()) == 1
        recorder.clear()
        task.state.set_state("s1", WAITING_PROBE)
        deliver(task, Bottleneck("s1"))
        assert recorder.upstream_packets() == []
        recorder.clear()
        task.state.set_state("s1", IDLE)
        task.state.add_unrestricted("s1")
        deliver(task, Bottleneck("s1"))
        assert recorder.upstream_packets() == []


class TestSetBottleneck(object):
    def test_forwarded_with_beta_true_when_link_is_a_bottleneck(self, task, recorder):
        settle(task, "s1", 50 * MBPS)
        settle(task, "s2", 50 * MBPS)
        deliver(task, SetBottleneck("s1", False))
        forwarded = recorder.downstream_packets()[0]
        assert isinstance(forwarded, SetBottleneck)
        assert forwarded.found_bottleneck is True
        # The session stays in R_e: this link restricts it.
        assert "s1" in task.state.restricted

    def test_unrestricted_session_moves_to_f_and_wakes_others(self, task, recorder):
        settle(task, "s1", 20 * MBPS)
        settle(task, "s2", 40 * MBPS)
        # B_e = 50, s1 sits below it -> moved to F_e; s2... is below B_e too,
        # so nobody is woken; beta passes through unchanged.
        deliver(task, SetBottleneck("s1", False))
        assert "s1" in task.state.unrestricted
        forwarded = recorder.downstream_packets()[0]
        assert forwarded.found_bottleneck is False

    def test_settled_peers_at_the_old_rate_are_woken(self, task, recorder):
        # Three sessions in R_e: s1 settled at 20 (restricted elsewhere), s2
        # and s3 settled at the current B_e = 100/3.  When s1 moves to F_e,
        # B_e grows to 40, so s2 and s3 must re-probe.
        third = 100 * MBPS / 3.0
        settle(task, "s1", 20 * MBPS)
        settle(task, "s2", third)
        settle(task, "s3", third)
        deliver(task, SetBottleneck("s1", False))
        updates = sorted(p.session_id for p in recorder.upstream_packets() if isinstance(p, Update))
        assert updates == ["s2", "s3"]
        assert task.state.state_of("s2") == WAITING_PROBE
        assert "s1" in task.state.unrestricted

    def test_dropped_when_session_is_mid_probe(self, task, recorder):
        settle(task, "s2", 60 * MBPS)
        task.state.add_restricted("s1")
        task.state.set_state("s1", WAITING_RESPONSE)
        deliver(task, SetBottleneck("s1", False))
        assert recorder.downstream_packets() == []


class TestLeave(object):
    def test_leave_forgets_session_and_forwards(self, task, recorder):
        settle(task, "s1", 50 * MBPS)
        deliver(task, Leave("s1"))
        assert not task.state.knows("s1")
        assert isinstance(recorder.downstream_packets()[0], Leave)

    def test_leave_wakes_settled_peers_at_the_bottleneck_rate(self, task, recorder):
        # B_e = (100 - 10) / 2 = 45: both restricted sessions sit at it.
        settle(task, "leaving", 45 * MBPS)
        settle(task, "staying", 45 * MBPS)
        settle(task, "small", 10 * MBPS, restricted=False)
        deliver(task, Leave("leaving"))
        updates = [p.session_id for p in recorder.upstream_packets() if isinstance(p, Update)]
        assert updates == ["staying"]
        assert task.state.state_of("staying") == WAITING_PROBE
        # The unrestricted small session is not woken by the departure.
        assert task.state.state_of("small") == IDLE

    def test_leave_of_unknown_session_is_harmless(self, task, recorder):
        deliver(task, Leave("ghost"))
        assert isinstance(recorder.downstream_packets()[0], Leave)


def _no_one_else(task):
    pass


def _settled_alone(task):
    settle(task, "s1", 100 * MBPS)


def _waiting_alone(task):
    task.state.add_restricted("s1")
    task.state.set_state("s1", WAITING_RESPONSE)


def _settled_below(task):
    settle(task, "s1", 20 * MBPS)
    settle(task, "s2", 40 * MBPS)


# Each case: how to prepare the link, the packet to deliver, the direction it
# is forwarded in and the fields it must carry then.
FORWARDED = {
    "join-clamped": (
        _no_one_else, lambda: Join("s1", 500 * MBPS, ("h", "r1")), "downstream",
        {"rate": 100 * MBPS, "restricting_link": LINK_ID}),
    "join-unclamped": (
        _no_one_else, lambda: Join("s1", 10 * MBPS, ("h", "r1")), "downstream",
        {"rate": 10 * MBPS, "restricting_link": ("h", "r1")}),
    "probe-clamped": (
        _settled_alone, lambda: Probe("s1", 500 * MBPS, ("h", "r1")), "downstream",
        {"rate": 100 * MBPS, "restricting_link": LINK_ID}),
    "probe-unclamped": (
        _settled_alone, lambda: Probe("s1", 10 * MBPS, ("h", "r1")), "downstream",
        {"rate": 10 * MBPS, "restricting_link": ("h", "r1")}),
    "response-bottleneck": (
        _waiting_alone, lambda: Response("s1", RESPONSE, 100 * MBPS, ("r5", "r6")), "upstream",
        {"tau": BOTTLENECK, "rate": 100 * MBPS, "restricting_link": LINK_ID}),
    "response-accepted": (
        _waiting_alone, lambda: Response("s1", RESPONSE, 30 * MBPS, ("r5", "r6")), "upstream",
        {"tau": RESPONSE, "rate": 30 * MBPS, "restricting_link": ("r5", "r6")}),
    "response-rejected": (
        _waiting_alone, lambda: Response("s1", RESPONSE, 30 * MBPS, LINK_ID), "upstream",
        {"tau": UPDATE, "rate": 30 * MBPS, "restricting_link": LINK_ID}),
    "response-update": (
        _waiting_alone, lambda: Response("s1", UPDATE, 30 * MBPS, ("r5", "r6")), "upstream",
        {"tau": UPDATE, "rate": 30 * MBPS, "restricting_link": ("r5", "r6")}),
    "update": (_settled_alone, lambda: Update("s1"), "upstream", {}),
    "bottleneck": (_settled_alone, lambda: Bottleneck("s1"), "upstream", {}),
    "set-bottleneck-here": (
        _settled_alone, lambda: SetBottleneck("s1", False), "downstream",
        {"found_bottleneck": True}),
    "set-bottleneck-elsewhere": (
        _settled_below, lambda: SetBottleneck("s1", False), "downstream",
        {"found_bottleneck": False}),
    "leave": (_settled_alone, lambda: Leave("s1"), "downstream", {}),
}


class TestForwardInPlace(object):
    @pytest.mark.parametrize("case", sorted(FORWARDED))
    def test_a_hop_forwards_the_packet_it_received(self, task, recorder, case):
        prepare, make_packet, direction, fields = FORWARDED[case]
        prepare(task)
        packet = make_packet()
        deliver(task, packet)
        sent = recorder.downstream if direction == "downstream" else recorder.upstream
        forwarded = [p for _, p in sent if p.session_id == "s1"]
        assert len(forwarded) == 1
        assert forwarded[0] is packet
        for name, value in fields.items():
            assert getattr(packet, name) == value, name

    def test_updates_to_other_sessions_are_new_packets(self, task, recorder):
        settle(task, "a", 50 * MBPS)
        settle(task, "b", 50 * MBPS)
        join = Join("new", 500 * MBPS, ("h", "r1"))
        deliver(task, join)
        updates = recorder.upstream_packets()
        assert [(type(p), p.session_id) for p in updates] == [(Update, "a"), (Update, "b")]
        assert updates[0] is not updates[1]
        assert recorder.downstream_packets() == [join]

    def test_bottlenecks_to_other_sessions_are_new_packets(self, task, recorder):
        settle(task, "a", 100 * MBPS / 3)
        settle(task, "b", 100 * MBPS / 3)
        task.state.add_restricted("s1")
        task.state.set_state("s1", WAITING_RESPONSE)
        response = Response("s1", RESPONSE, 100 * MBPS / 3, LINK_ID)
        deliver(task, response)
        sent = recorder.upstream_packets()
        assert sent[-1] is response and response.tau == BOTTLENECK
        bottlenecks = sent[:-1]
        assert [(type(p), p.session_id) for p in bottlenecks] == [
            (Bottleneck, "a"), (Bottleneck, "b")]
        assert len({id(p) for p in sent}) == 3

    def test_leave_wakes_others_with_new_updates(self, task, recorder):
        settle(task, "leaving", 50 * MBPS)
        settle(task, "staying", 50 * MBPS)
        leave = Leave("leaving")
        deliver(task, leave)
        assert recorder.downstream_packets() == [leave]
        [update] = recorder.upstream_packets()
        assert isinstance(update, Update) and update.session_id == "staying"
