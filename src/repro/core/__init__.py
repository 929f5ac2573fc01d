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
  (``API.Join`` / ``API.Leave`` / ``API.Change`` / ``API.Rate``);
  ``SessionApplication.notifications`` is the record of every ``API.Rate``
  delivered, once per session per simulation instant; the protocol holds an
  instant's notifications until a later instant notifies or the run returns.
* :mod:`~repro.core.actions` -- joins, leaves, rate and capacity changes as
  data records: the workloads' schedule format.
* :mod:`~repro.core.protocol` -- :class:`BNeckProtocol`, which instantiates the
  tasks over a network + simulator, routes packets along session paths with
  link delays, and exposes quiescence-and-rates helpers.
* :mod:`~repro.core.validation` -- the checkpoint verdict on a distributed
  run: stability (Definition 2), equality with Centralized B-Neck as in the
  paper's evaluation, and the max-min certificate.
"""

from repro.core.api import RateNotification, SessionApplication
from repro.core.centralized import centralized_bneck
from repro.core.actions import (
    CapacityChangeAction,
    ChangeAction,
    JoinAction,
    LeaveAction,
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
from repro.core.state import IDLE, LinkState, WAITING_PROBE, WAITING_RESPONSE
from repro.core.validation import StabilityReport, ValidationResult
from repro.core.validation import check_stability, validate_against_oracle

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
    "PACKET_TYPES",
    "Probe",
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
    "validate_against_oracle",
]
