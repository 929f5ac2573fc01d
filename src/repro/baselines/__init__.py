"""Non-quiescent baseline protocols used in the paper's Experiment 3.

The paper compares B-Neck against three representatives of the non-quiescent
max-min fair protocol families:

* **BFYZ** (Bartal, Farach-Colton, Yooseph, Zhang) -- explicit-rate protocols
  that keep *per-session state* at every router
  (:class:`~repro.baselines.bfyz.BFYZProtocol`);
* **CG** (Cobb, Gouda) -- stabilizing protocols that keep only *constant state*
  at every router (:class:`~repro.baselines.cg.CGProtocol`);
* **RCP** (Dukkipati et al.) -- router-assisted congestion controllers that
  compute a single per-link rate from aggregate measurements
  (:class:`~repro.baselines.rcp.RCPProtocol`).

All three share the same structure (:mod:`~repro.baselines.base`): every
session's source periodically performs a probe cycle along its path, every link
answers with an advertised rate, and the source adopts the smallest advertised
rate -- forever, because none of these protocols can detect convergence.  That
continuous control traffic is exactly the behaviour the B-Neck paper contrasts
against (Figures 7 and 8).
"""

from repro.baselines.base import BaselineProtocol, LinkController
from repro.baselines.bfyz import BFYZProtocol
from repro.baselines.cg import CGProtocol
from repro.baselines.rcp import RCPProtocol

__all__ = [
    "BFYZProtocol",
    "BaselineProtocol",
    "CGProtocol",
    "LinkController",
    "RCPProtocol",
]
