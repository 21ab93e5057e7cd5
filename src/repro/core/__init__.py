"""The paper's primary contribution: cost-model replica selection.

Equation (1) of the paper scores a candidate replica site ``j`` as seen
from local site ``i``::

    Score(i,j) = BW_P(i,j) * BW_W + CPU_P(j) * CPU_W + IO_P(j) * IO_W

with administrator-chosen weights (the authors settle on 80/10/10 after
measurement).  The :class:`ReplicaSelectionServer` implements the Fig. 1
scenario: catalog lookup, information-server queries, scoring, and the
GridFTP fetch of the winner.

:mod:`repro.core.baselines` provides the alternative selection policies
(random, round-robin, proximity, least-loaded, bandwidth-only, oracle)
used by the ablation benchmarks.
"""

from repro.core.baselines import (
    BandwidthOnlySelector,
    CostModelSelector,
    LeastLoadedSelector,
    OracleSelector,
    ProximitySelector,
    RandomSelector,
    RoundRobinSelector,
)
from repro.core.cost_model import CostModel, ReplicaScore
from repro.core.degradation import DegradationPolicy, LastKnownGood
from repro.core.server import (
    NoLiveReplicaError,
    ReplicaSelectionServer,
    SelectionDecision,
)
from repro.core.weights import SelectionWeights

__all__ = [
    "BandwidthOnlySelector",
    "CostModel",
    "CostModelSelector",
    "DegradationPolicy",
    "LastKnownGood",
    "LeastLoadedSelector",
    "NoLiveReplicaError",
    "OracleSelector",
    "ProximitySelector",
    "RandomSelector",
    "ReplicaScore",
    "ReplicaSelectionServer",
    "RoundRobinSelector",
    "SelectionDecision",
    "SelectionWeights",
]
