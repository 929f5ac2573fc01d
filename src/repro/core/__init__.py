"""The B-Neck algorithm (the paper's primary contribution).

The package mirrors the paper's Section III structure:

* :mod:`~repro.core.centralized` -- Centralized B-Neck (Figure 1), used both as
  an intuition-preserving reference algorithm and as the correctness oracle.
* :mod:`~repro.core.packets` -- the seven B-Neck control packets
  (``Join``, ``Probe``, ``Response``, ``Update``, ``Bottleneck``,
  ``SetBottleneck``, ``Leave``).
* :mod:`~repro.core.state` -- per-link per-session protocol state
  (``R_e``, ``F_e``, ``mu^e_s``, ``lambda^e_s``, ``B_e``).
* :mod:`~repro.core.router_link` -- the RouterLink task (Figure 2).
* :mod:`~repro.core.source_node` -- the SourceNode task (Figure 3).
* :mod:`~repro.core.destination_node` -- the DestinationNode task (Figure 4).
* :mod:`~repro.core.api` -- the session-facing primitives
  (``API.Join`` / ``API.Leave`` / ``API.Change`` / ``API.Rate``).
* :mod:`~repro.core.actions` -- joins, leaves, rate and capacity changes as
  data records: the workloads' schedule format.
* :mod:`~repro.core.notifications` -- pluggable ``API.Rate`` record storage
  (full / ring-buffer / null) behind ``BNeckProtocol.notifications``.
* :mod:`~repro.core.protocol` -- :class:`BNeckProtocol`, which instantiates the
  tasks over a network + simulator, routes packets along session paths with
  link delays, and exposes quiescence-and-rates helpers.
* :mod:`~repro.core.quiescence` -- the stability predicate of Definition 2.
* :mod:`~repro.core.validation` -- validation of distributed runs against the
  centralized oracle, as done in the paper's evaluation.
"""

from repro.core.api import RateNotification, SessionApplication
from repro.core.centralized import centralized_bneck
from repro.core.notifications import (
    NotificationLog,
    NullNotificationLog,
    RingNotificationLog,
    make_notification_log,
)
from repro.core.actions import (
    CapacityChangeAction,
    ChangeAction,
    JoinAction,
    LeaveAction,
    join_action_from_spec,
    replay_actions,
)
from repro.core.packets import (
    BOTTLENECK,
    Bottleneck,
    Join,
    Leave,
    PACKET_TYPES,
    Probe,
    RESPONSE,
    Response,
    SetBottleneck,
    UPDATE,
    Update,
)
from repro.core.protocol import BNeckProtocol
from repro.core.quiescence import StabilityReport, check_stability
from repro.core.state import IDLE, LinkState, WAITING_PROBE, WAITING_RESPONSE
from repro.core.validation import ValidationResult, validate_against_oracle

__all__ = [
    "BNeckProtocol",
    "BOTTLENECK",
    "Bottleneck",
    "CapacityChangeAction",
    "ChangeAction",
    "IDLE",
    "Join",
    "JoinAction",
    "Leave",
    "LeaveAction",
    "LinkState",
    "NotificationLog",
    "NullNotificationLog",
    "PACKET_TYPES",
    "Probe",
    "RingNotificationLog",
    "RESPONSE",
    "RateNotification",
    "Response",
    "SessionApplication",
    "SetBottleneck",
    "StabilityReport",
    "UPDATE",
    "Update",
    "ValidationResult",
    "WAITING_PROBE",
    "WAITING_RESPONSE",
    "centralized_bneck",
    "check_stability",
    "join_action_from_spec",
    "make_notification_log",
    "replay_actions",
    "validate_against_oracle",
]
