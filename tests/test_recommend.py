"""Tests for source recommendation scoring."""

import random

import pytest

from repro.dependence.bayes import PairDependence
from repro.dependence.graph import DependenceGraph
from repro.exceptions import ParameterError
from repro.recommend import (
    ScoreWeights,
    SourceScorecard,
    build_scorecards,
    rank_sources,
    recommend_sources,
)


def _graph(pairs):
    graph = DependenceGraph()
    for s1, s2, p in pairs:
        half = p / 2
        graph.add(
            PairDependence(
                s1=s1, s2=s2,
                p_independent=1 - p,
                p_s1_copies_s2=half, p_s2_copies_s1=half,
            )
        )
    return graph


@pytest.fixture
def cards():
    graph = _graph([("A", "B", 0.9)])
    return build_scorecards(
        accuracies={"A": 0.9, "B": 0.85, "C": 0.6},
        coverages={"A": 100, "B": 90, "C": 50},
        dependence=graph,
    ), graph


class TestScorecards:
    def test_coverage_normalised(self, cards):
        scorecards, _ = cards
        assert scorecards["A"].coverage == 1.0
        assert scorecards["C"].coverage == pytest.approx(0.5)

    def test_independence_from_graph(self, cards):
        scorecards, _ = cards
        assert scorecards["A"].independence == pytest.approx(0.1)
        assert scorecards["C"].independence == 1.0

    def test_posteriors_one_ulp_over_one_clamp_to_zero_independence(self):
        graph = DependenceGraph()
        pair = PairDependence(
            s1="A", s2="B",
            p_independent=0.0,
            p_s1_copies_s2=0.5000000000000001,
            p_s2_copies_s1=0.5000000000000001,
        )
        assert pair.p_s1_copies_s2 + pair.p_s2_copies_s1 == 1.0000000000000002
        graph.add(pair)
        scorecards = build_scorecards(
            accuracies={"A": 0.9, "B": 0.8},
            coverages={"A": 10, "B": 10},
            dependence=graph,
        )
        assert scorecards["A"].independence == 0.0
        assert scorecards["B"].independence == 0.0
        assert recommend_sources(scorecards, graph, 2) == ["A", "B"]

    def test_scorecard_validation(self):
        with pytest.raises(ParameterError):
            SourceScorecard("A", accuracy=1.5, coverage=0, freshness=0, independence=0)

    def test_weights_validation(self):
        with pytest.raises(ParameterError):
            ScoreWeights(accuracy=-1)
        with pytest.raises(ParameterError):
            ScoreWeights(accuracy=0, coverage=0, freshness=0, independence=0)

    def test_weights_normalised(self):
        weights = ScoreWeights(accuracy=2, coverage=2, freshness=0, independence=0)
        normalised = weights.normalised()
        assert normalised.accuracy == pytest.approx(0.5)

    def test_score_in_unit_interval(self, cards):
        scorecards, _ = cards
        for card in scorecards.values():
            assert 0.0 <= card.score() <= 1.0

    def test_empty_accuracies_rejected(self):
        with pytest.raises(ParameterError):
            build_scorecards({}, {}, DependenceGraph())


class TestRankAndRecommend:
    def test_rank_is_total_and_deterministic(self, cards):
        scorecards, _ = cards
        ranked = rank_sources(scorecards)
        assert sorted(ranked) == ["A", "B", "C"]

    def test_recommend_penalises_dependent_second_pick(self, cards):
        scorecards, graph = cards
        picks = recommend_sources(scorecards, graph, k=2)
        # A and B are the strongest but mutually dependent: the second
        # pick must be C.
        assert picks[0] in ("A", "B")
        assert picks[1] == "C"

    def test_recommend_without_dependence_prefers_b(self, cards):
        scorecards, _ = cards
        picks = recommend_sources(scorecards, DependenceGraph(), k=2)
        assert set(picks) <= {"A", "B"}

    def test_recommend_k_validation(self, cards):
        scorecards, graph = cards
        with pytest.raises(ParameterError):
            recommend_sources(scorecards, graph, k=0)

    def test_recommend_goal_validation(self, cards):
        scorecards, graph = cards
        with pytest.raises(ParameterError):
            recommend_sources(scorecards, graph, k=1, goal="everything")

    def test_diversity_goal_tolerates_dissimilarity(self, table2_matrix):
        """With opinion dependence given, a dissimilarity-dependent rater
        is penalised under 'truth' but tolerated under 'diversity'."""
        from repro.dependence.opinions import discover_rater_dependence

        opinion = discover_rater_dependence(table2_matrix)
        scorecards = {
            rater: SourceScorecard(
                rater, accuracy=0.8, coverage=1.0, freshness=1.0, independence=1.0
            )
            for rater in table2_matrix.raters
        }
        graph = DependenceGraph()
        truth_picks = recommend_sources(
            scorecards, graph, k=2, goal="truth", opinion_dependence=opinion
        )
        diverse_picks = recommend_sources(
            scorecards, graph, k=2, goal="diversity", opinion_dependence=opinion
        )
        # R1 and R4 anti-depend: under "truth" they should not BOTH be in
        # the top-2; under "diversity" the pair is acceptable.
        assert not {"R1", "R4"} <= set(truth_picks)
        assert {"R1", "R4"} <= set(diverse_picks) or len(set(diverse_picks)) == 2


def _greedy_oracle(cards, dependence, k, weights=None, copy_rate=0.8):
    """The per-round rescoring loop: every remaining card scored anew."""
    remaining = set(cards)
    picked = []
    while remaining and len(picked) < k:
        best, best_score = None, -1.0
        for source in sorted(remaining):
            score = cards[source].score(weights)
            for prior in picked:
                score *= 1.0 - copy_rate * dependence.probability(source, prior)
            if score > best_score:
                best, best_score = source, score
        picked.append(best)
        remaining.discard(best)
    return picked


class TestRecommendMatchesRescoringLoop:
    """Scoring each card once picks exactly what rescoring every round did."""

    @pytest.fixture
    def tied_world(self):
        rng = random.Random(11)
        sources = [f"s{i:02d}" for i in range(40)]
        levels = (0.5, 0.7, 0.9)  # few distinct factors: many tied scores
        cards = {
            s: SourceScorecard(
                s,
                accuracy=rng.choice(levels),
                coverage=rng.choice(levels),
                freshness=1.0,
                independence=rng.choice(levels),
            )
            for s in sources
        }
        pairs = [
            (a, b, rng.choice((0.3, 0.6, 0.95)))
            for i, a in enumerate(sources)
            for b in sources[i + 1 :]
            if rng.random() < 0.2
        ]
        return cards, _graph(pairs)

    @pytest.mark.parametrize(
        "weights", [None, ScoreWeights(1.0, 1.0, 0.0, 1.0), ScoreWeights(3, 0, 0, 1)]
    )
    def test_picks_identical(self, tied_world, weights):
        cards, graph = tied_world
        for k in (1, 2, 5, 13, 40, 45):
            for copy_rate in (0.8, 0.5):
                assert recommend_sources(
                    cards, graph, k, weights=weights, copy_rate=copy_rate
                ) == _greedy_oracle(cards, graph, k, weights, copy_rate)

    def test_rank_matches_per_card_scores(self, tied_world):
        cards, _ = tied_world
        weights = ScoreWeights(3, 0, 0, 1)
        assert rank_sources(cards, weights) == sorted(
            cards, key=lambda s: (-cards[s].score(weights), s)
        )
