"""repro — source-dependence discovery and copy-aware truth discovery.

A from-scratch reproduction of *"Sailing the Information Ocean with
Awareness of Currents: Discovery and Application of Source Dependence"*
(Berti-Équille, Das Sarma, Dong, Marian, Srivastava — CIDR 2009).

The package is organised by the paper's structure:

``repro.core``
    Claims, datasets (snapshot and temporal), ground-truth worlds,
    model parameters.
``repro.truth``
    Truth discovery: naive voting, ACCU, TruthFinder, and the
    copy-aware DEPEN algorithm.
``repro.dependence``
    Dependence discovery: snapshot Bayes, partial-copier accuracy
    splits, rater (dis)similarity dependence, temporal copy detection.
``repro.temporal``
    Lifespan inference, source quality (coverage/exactness/freshness),
    temporal truth discovery.
``repro.opinions``
    Rating matrices, dependence-aware consensus, opinion pooling.
``repro.linkage``
    String similarity, author-list handling, representation clustering,
    joint linkage + truth discovery.
``repro.fusion`` / ``repro.query`` / ``repro.recommend``
    The application layers of section 4: data fusion, online query
    answering with source ordering, source recommendation.
``repro.generators``
    Synthetic worlds: copier networks, rating worlds, temporal worlds,
    and the AbeBooks-scale bookstore catalog.
``repro.serve``
    The online serving layer: immutable versioned snapshots of each
    truth round, a lock-free snapshot store, snapshot persistence, and
    the asyncio serving front-end.
``repro.eval`` / ``repro.datasets``
    Metrics, the experiment harness, and the paper's worked examples
    (Tables 1-3) as data.

The stable entry point is :class:`Session` — one object owning the
ingest → discover → run_truth → publish → query/recommend lifecycle,
with execution policy (``parallel_backend``, ``num_workers``,
``pool``, …) accepted once at construction. The layer modules stay
importable for direct use (for example
``repro.dependence.discover_dependence``).
"""

from repro.core import (
    ABSENT,
    Claim,
    ClaimDataset,
    DependenceEdge,
    DependenceKind,
    DependenceParams,
    IterationParams,
    Mutation,
    MutationBatch,
    MutationDelta,
    OpinionParams,
    Rating,
    TemporalClaim,
    TemporalDataset,
    TemporalParams,
    TemporalWorld,
    World,
)
from repro.dependence import (
    DependenceGraph,
    StreamingDependenceEngine,
    StreamingTemporalDataset,
)
from repro.serve import ServedAnswer, ServingEngine, Snapshot, SnapshotStore
from repro.session import Session
from repro.truth import Accu, Depen, NaiveVote, TruthFinder, TruthResult

__version__ = "0.2.0"

__all__ = [
    "ABSENT",
    "Accu",
    "Claim",
    "ClaimDataset",
    "Depen",
    "DependenceEdge",
    "DependenceGraph",
    "DependenceKind",
    "DependenceParams",
    "IterationParams",
    "Mutation",
    "MutationBatch",
    "MutationDelta",
    "NaiveVote",
    "OpinionParams",
    "Rating",
    "ServedAnswer",
    "ServingEngine",
    "Session",
    "Snapshot",
    "SnapshotStore",
    "StreamingDependenceEngine",
    "StreamingTemporalDataset",
    "TemporalClaim",
    "TemporalDataset",
    "TemporalParams",
    "TemporalWorld",
    "TruthFinder",
    "TruthResult",
    "World",
    "__version__",
]
