"""Source-dependence discovery: snapshot, partial, opinion, temporal."""

from repro.dependence.bayes import (
    PairDependence,
    PairEvidence,
    analyze_pair,
    collect_evidence,
    pair_posterior,
    uniform_value_probabilities,
)
from repro.dependence.bayes_batch import BatchedPosteriorEngine
from repro.dependence.collector import (
    PairSlotCollector,
    ProviderCap,
    pair_key,
)
from repro.dependence.entrystore import ColumnarAgreeStore, PackedRecords
from repro.dependence.evidence import EvidenceCache
from repro.dependence.global_analysis import (
    CopierClique,
    copier_cliques,
    independent_core,
)
from repro.dependence.graph import DependenceGraph, discover_dependence
from repro.dependence.partial import (
    AccuracySplit,
    DirectionEvidence,
    accuracy_split,
    batch_accuracy_splits,
    category_splits,
    direction_evidence,
)
from repro.dependence.sharding import (
    ShardPlan,
    ShardPlanner,
    SweepConfig,
)
from repro.dependence.streaming import StreamingDependenceEngine
from repro.dependence.temporal import (
    CoAdoptionCollector,
    StreamingTemporalDataset,
    discover_temporal_dependence,
    temporal_pair_posterior,
)

__all__ = [
    "AccuracySplit",
    "BatchedPosteriorEngine",
    "CoAdoptionCollector",
    "ColumnarAgreeStore",
    "CopierClique",
    "DependenceGraph",
    "DirectionEvidence",
    "EvidenceCache",
    "PackedRecords",
    "PairDependence",
    "PairEvidence",
    "PairSlotCollector",
    "ProviderCap",
    "ShardPlan",
    "ShardPlanner",
    "StreamingDependenceEngine",
    "StreamingTemporalDataset",
    "SweepConfig",
    "accuracy_split",
    "analyze_pair",
    "batch_accuracy_splits",
    "category_splits",
    "collect_evidence",
    "copier_cliques",
    "direction_evidence",
    "discover_dependence",
    "discover_temporal_dependence",
    "independent_core",
    "pair_key",
    "pair_posterior",
    "temporal_pair_posterior",
    "uniform_value_probabilities",
]
