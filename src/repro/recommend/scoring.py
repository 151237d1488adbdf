"""Source recommendation (section 4, "Source recommendation").

"Recommendations of such sources can be based on many factors, such as
accuracy, coverage, freshness of provided data, and independence of
opinions."

:class:`SourceScorecard` combines the four factors with caller-chosen
weights; :func:`recommend_sources` additionally supports the paper's
"tricky decision": when the goal is truth/consensus, dependent sources
are redundant and are penalised *marginally* against the sources already
recommended; when the goal is diverse opinions, sources with
dissimilarity-dependence are allowed (they are, by construction, a
diverse voice), so only similarity-dependence is penalised.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.types import SourceId
from repro.dependence.graph import DependenceGraph
from repro.dependence.opinions import RaterDependenceResult
from repro.exceptions import ParameterError


@dataclass(frozen=True, slots=True)
class ScoreWeights:
    """Relative weights of the four recommendation factors."""

    accuracy: float = 0.4
    coverage: float = 0.3
    freshness: float = 0.1
    independence: float = 0.2

    def __post_init__(self) -> None:
        values = (self.accuracy, self.coverage, self.freshness, self.independence)
        if any(w < 0 for w in values):
            raise ParameterError("score weights must be non-negative")
        if sum(values) <= 0:
            raise ParameterError("at least one score weight must be positive")

    def normalised(self) -> "ScoreWeights":
        """Weights rescaled to sum to 1."""
        total = (
            self.accuracy + self.coverage + self.freshness + self.independence
        )
        return ScoreWeights(
            accuracy=self.accuracy / total,
            coverage=self.coverage / total,
            freshness=self.freshness / total,
            independence=self.independence / total,
        )


@dataclass(frozen=True, slots=True)
class SourceScorecard:
    """One source's recommendation profile; every factor lies in [0, 1]."""

    source: SourceId
    accuracy: float
    coverage: float
    freshness: float
    independence: float

    def __post_init__(self) -> None:
        for name in ("accuracy", "coverage", "freshness", "independence"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(
                    f"{name} of {self.source!r} must be in [0, 1], got {value}"
                )

    def score(self, weights: ScoreWeights | None = None) -> float:
        """Weighted composite score in [0, 1]."""
        return self._composite((weights or ScoreWeights()).normalised())

    def _composite(self, w: ScoreWeights) -> float:
        """The composite under already-normalised weights ``w``."""
        return (
            w.accuracy * self.accuracy
            + w.coverage * self.coverage
            + w.freshness * self.freshness
            + w.independence * self.independence
        )


def build_scorecards(
    accuracies: Mapping[SourceId, float],
    coverages: Mapping[SourceId, int],
    dependence: DependenceGraph,
    freshness: Mapping[SourceId, float] | None = None,
) -> dict[SourceId, SourceScorecard]:
    """Assemble scorecards from discovery outputs.

    Coverage is normalised by the maximum coverage; independence is
    ``1 - max dependence posterior`` over the source's analysed pairs;
    freshness defaults to 1.0 for snapshot settings (no lag evidence).
    """
    if not accuracies:
        raise ParameterError("no sources to score")
    max_coverage = max(coverages.values(), default=0)
    cards = {}
    for source in sorted(accuracies):
        cards[source] = SourceScorecard(
            source=source,
            accuracy=min(1.0, max(0.0, accuracies[source])),
            coverage=(
                coverages.get(source, 0) / max_coverage if max_coverage else 0.0
            ),
            freshness=(freshness or {}).get(source, 1.0),
            # A pair's posteriors can sum to 1 + 1 ulp, which would put
            # the complement a hair below zero.
            independence=max(0.0, 1.0 - dependence.dependence_score(source)),
        )
    return cards


def rank_sources(
    cards: Mapping[SourceId, SourceScorecard],
    weights: ScoreWeights | None = None,
) -> list[SourceId]:
    """Sources by decreasing composite score (ties lexicographic)."""
    w = (weights or ScoreWeights()).normalised()
    return sorted(cards, key=lambda s: (-cards[s]._composite(w), s))


def recommend_sources(
    cards: Mapping[SourceId, SourceScorecard],
    dependence: DependenceGraph,
    k: int,
    weights: ScoreWeights | None = None,
    goal: str = "truth",
    copy_rate: float = 0.8,
    opinion_dependence: "RaterDependenceResult | None" = None,
) -> list[SourceId]:
    """Greedy top-``k`` recommendation with marginal dependence penalties.

    ``goal="truth"`` penalises any dependence on already-recommended
    sources: redundant (copied) or adversarial (opposed) content adds
    nothing to truth finding. ``goal="diversity"`` penalises only
    *similarity* dependence — a dissimilarity-dependent source is a
    diverse voice the paper says we "might want to point out"; the kind
    split comes from ``opinion_dependence`` when provided (the snapshot
    graph carries copying only, which is similarity by construction).
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if goal not in ("truth", "diversity"):
        raise ParameterError(f"goal must be 'truth' or 'diversity', got {goal!r}")

    # Each source's running score is its composite times one penalty
    # factor per pick so far, multiplied in pick order.
    w = (weights or ScoreWeights()).normalised()
    remaining = sorted(cards)
    scores = [cards[source]._composite(w) for source in remaining]
    picked: list[SourceId] = []
    while remaining and len(picked) < k:
        # The first (smallest) source with the highest running score.
        best = max(range(len(scores)), key=scores.__getitem__)
        prior = remaining.pop(best)
        del scores[best]
        picked.append(prior)
        if len(picked) < k:
            scores = [
                score
                * (
                    1.0
                    - copy_rate
                    * _penalty(source, prior, dependence, goal, opinion_dependence)
                )
                for source, score in zip(remaining, scores)
            ]
    return picked


class _SnapshotDependenceView:
    """Adapter giving a snapshot the two-call surface scoring needs.

    :func:`build_scorecards` and :func:`_penalty` only ever ask a
    dependence graph ``dependence_score(source)`` and
    ``probability(s1, s2)`` — both of which a published
    :class:`~repro.serve.snapshot.Snapshot` answers from its frozen
    arrays, so recommendation can run entirely against the serving
    layer's read path with no live graph in sight.
    """

    __slots__ = ("_snapshot",)

    def __init__(self, snapshot) -> None:
        self._snapshot = snapshot

    def probability(self, s1: SourceId, s2: SourceId) -> float:
        return self._snapshot.dependence_probability(s1, s2)

    def dependence_score(self, source: SourceId) -> float:
        return self._snapshot.dependence_score(source)


def snapshot_scorecards(
    snapshot, freshness: Mapping[SourceId, float] | None = None
) -> dict[SourceId, SourceScorecard]:
    """Scorecards for every source of a published snapshot.

    Same normalisation as :func:`build_scorecards`, fed from the
    snapshot's frozen accuracy/coverage/dependence arrays instead of
    live discovery outputs — so a recommend served at version N keeps
    answering from version N even while newer rounds publish.
    """
    accuracies = {s: snapshot.accuracy(s) for s in snapshot.sources}
    coverages = {s: snapshot.source_coverage(s) for s in snapshot.sources}
    return build_scorecards(
        accuracies,
        coverages,
        _SnapshotDependenceView(snapshot),
        freshness=freshness,
    )


def recommend_from_snapshot(
    snapshot,
    k: int,
    weights: ScoreWeights | None = None,
    goal: str = "truth",
    copy_rate: float = 0.8,
    cards: Mapping[SourceId, SourceScorecard] | None = None,
) -> list[SourceId]:
    """Greedy top-``k`` recommendation against one published snapshot.

    ``cards`` lets a serving engine reuse scorecards it already built
    for this snapshot version; omitted, they are derived on the spot.
    """
    if cards is None:
        cards = snapshot_scorecards(snapshot)
    return recommend_sources(
        cards,
        _SnapshotDependenceView(snapshot),
        k,
        weights=weights,
        goal=goal,
        copy_rate=copy_rate,
    )


def _penalty(
    source: SourceId,
    prior: SourceId,
    dependence: DependenceGraph,
    goal: str,
    opinion_dependence: "RaterDependenceResult | None",
) -> float:
    """Marginal dependence penalty of picking ``source`` after ``prior``."""
    penalty = dependence.probability(source, prior)
    if opinion_dependence is None:
        return penalty
    pair = opinion_dependence.get(source, prior)
    if pair is None:
        return penalty
    if goal == "truth":
        return max(penalty, pair.p_dependent)
    return max(penalty, pair.p_similarity)
