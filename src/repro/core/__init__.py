"""Core substrate: claims, datasets, ground-truth worlds, parameters.

Everything else in the library is built on these types. The public
surface re-exported here is stable; internal helpers stay in their
modules.
"""

from repro.core.claims import Claim, Rating, TemporalClaim, ValuePeriod
from repro.core.dataset import (
    ABSENT,
    ClaimDataset,
    Mutation,
    MutationBatch,
    MutationDelta,
)
from repro.core.params import (
    DependenceParams,
    IterationParams,
    OpinionParams,
    TemporalParams,
)
from repro.core.temporal_dataset import TemporalDataset, UpdateEvent
from repro.core.world import (
    DependenceEdge,
    DependenceKind,
    TemporalWorld,
    World,
    make_timeline,
)

__all__ = [
    "ABSENT",
    "Claim",
    "ClaimDataset",
    "DependenceEdge",
    "DependenceKind",
    "DependenceParams",
    "IterationParams",
    "Mutation",
    "MutationBatch",
    "MutationDelta",
    "OpinionParams",
    "Rating",
    "TemporalClaim",
    "TemporalDataset",
    "TemporalParams",
    "TemporalWorld",
    "UpdateEvent",
    "ValuePeriod",
    "World",
    "make_timeline",
]
