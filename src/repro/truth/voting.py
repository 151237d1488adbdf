"""Naive voting — the strawman baseline of section 2.2.

"Simply using the information that is asserted by the largest number of
data sources is clearly inadequate since biased (and even malicious)
sources abound, and plagiarism between sources may be widespread."

We implement it anyway: it is the baseline every experiment compares
against (Examples 2.1 and 2.2 are both built on its failure mode).
"""

from __future__ import annotations

from repro.core.dataset import ClaimDataset
from repro.core.types import ObjectId, Value
from repro.truth.base import TruthDiscovery, TruthResult


def decide(vote_counts: dict[Value, float]) -> Value:
    """The winning value: highest count, ties broken by value repr.

    Deterministic tie-breaking keeps experiments reproducible; the paper's
    Example 2.1 relies on recognising a three-way tie as "unsure", which
    callers can detect by comparing the top two counts.
    """
    return max(vote_counts, key=lambda value: (vote_counts[value], repr(value)))


class NaiveVote(TruthDiscovery):
    """Majority voting: the most-asserted value wins; ties break deterministically.

    The per-object distribution is the normalised vote share, which is
    what "combine the probabilities by assuming that the sources are
    independent" (section 1) degenerates to when sources attach no
    probabilities.
    """

    name = "vote"

    def discover(self, dataset: ClaimDataset) -> TruthResult:
        self._check_dataset(dataset)
        decisions: dict[ObjectId, Value] = {}
        distributions: dict[ObjectId, dict[Value, float]] = {}
        for obj in dataset.objects:
            counts = {
                value: float(len(providers))
                for value, providers in dataset.values_for(obj).items()
            }
            decisions[obj] = decide(counts)
            total = sum(counts.values())
            distributions[obj] = {
                value: count / total for value, count in counts.items()
            }
        return TruthResult(
            decisions=decisions,
            distributions=distributions,
            dataset_version=dataset.version,
        )

    def is_unsure(self, dataset: ClaimDataset, obj: ObjectId) -> bool:
        """Whether the vote for ``obj`` is tied at the top.

        Example 2.1 calls the three-way tie on Dong's affiliation
        "unsure"; this predicate makes that state observable rather than
        hidden behind deterministic tie-breaking.
        """
        counts = [len(p) for p in dataset.values_for(obj).values()]
        if not counts:
            return True
        top = max(counts)
        return counts.count(top) > 1
