"""Truth discovery: naive voting, ACCU, TruthFinder, and copy-aware DEPEN."""

from repro.truth.accu import Accu
from repro.truth.base import RoundTrace, TruthDiscovery, TruthResult
from repro.truth.columnar import TruthRoundEngine, ValueProbTable
from repro.truth.depen import Depen
from repro.truth.similarity import SimilarityMatrix, similarity_adjusted_counts
from repro.truth.truthfinder import TruthFinder
from repro.truth.voting import NaiveVote

__all__ = [
    "Accu",
    "Depen",
    "NaiveVote",
    "RoundTrace",
    "SimilarityMatrix",
    "TruthDiscovery",
    "TruthFinder",
    "TruthResult",
    "TruthRoundEngine",
    "ValueProbTable",
    "similarity_adjusted_counts",
]
