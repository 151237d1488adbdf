"""Tests for naive voting, ACCU and TruthFinder, including the paper's Example 2.1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import ClaimDataset
from repro.datasets.paper_tables import TABLE1_TRUTH
from repro.exceptions import DataError, ParameterError
from repro.truth import Accu, NaiveVote, TruthFinder
from repro.dependence.graph import DependenceGraph
from repro.truth.voting import decide
from truth_oracle import (
    accuracy_score,
    all_discounted_vote_counts,
    discounted_vote_counts,
    softmax_distribution,
)


class TestNaiveVoteOnTable1:
    """Example 2.1, first half: voting over the honest sources."""

    def test_correct_on_first_four_without_copiers(self, table1_no_copiers):
        result = NaiveVote().discover(table1_no_copiers)
        for researcher in ("Suciu", "Halevy", "Balazinska", "Dalvi"):
            assert result.decisions[researcher] == TABLE1_TRUTH[researcher]

    def test_unsure_about_dong_without_copiers(self, table1_no_copiers):
        vote = NaiveVote()
        assert vote.is_unsure(table1_no_copiers, "Dong")
        assert not vote.is_unsure(table1_no_copiers, "Balazinska")

    def test_copiers_flip_three_decisions(self, table1):
        """Example 2.1, second half: S4/S5 make voting wrong on 3 of 5."""
        result = NaiveVote().discover(table1)
        wrong = [
            obj
            for obj, truth in TABLE1_TRUTH.items()
            if result.decisions[obj] != truth
        ]
        assert sorted(wrong) == ["Dalvi", "Dong", "Halevy"]

    def test_distributions_are_vote_shares(self, table1):
        result = NaiveVote().discover(table1)
        assert result.probability("Halevy", "UW") == pytest.approx(3 / 5)
        assert result.probability("Halevy", "Google") == pytest.approx(2 / 5)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            NaiveVote().discover(ClaimDataset())


class TestAccu:
    def test_perfect_without_copiers(self, table1_no_copiers):
        result = Accu().discover(table1_no_copiers)
        assert result.accuracy_against(TABLE1_TRUTH) == 1.0

    def test_fooled_by_copiers(self, table1):
        """Accuracy alone cannot resist a copier clique."""
        result = Accu().discover(table1)
        assert result.accuracy_against(TABLE1_TRUTH) < 0.5

    def test_accuracies_iterate_above_initial_for_good_source(
        self, table1_no_copiers
    ):
        result = Accu().discover(table1_no_copiers)
        assert result.accuracies["S1"] > 0.9

    def test_converges_and_traces(self, table1_no_copiers):
        result = Accu().discover(table1_no_copiers)
        assert result.converged
        assert len(result.trace) == result.rounds

    def test_distributions_sum_to_one(self, copier_world):
        dataset, _ = copier_world
        result = Accu().discover(dataset)
        for obj, dist in result.distributions.items():
            assert sum(dist.values()) == pytest.approx(1.0)


class TestTruthFinder:
    def test_perfect_without_copiers(self, table1_no_copiers):
        result = TruthFinder().discover(table1_no_copiers)
        assert result.accuracy_against(TABLE1_TRUTH) == 1.0

    def test_fooled_by_copiers(self, table1):
        result = TruthFinder().discover(table1)
        assert result.accuracy_against(TABLE1_TRUTH) < 0.5

    def test_rejects_bad_gamma(self):
        with pytest.raises(ParameterError):
            TruthFinder(gamma=0.0)

    def test_rejects_bad_damping(self):
        with pytest.raises(ParameterError):
            TruthFinder(damping=1.0)

    def test_trust_stays_in_unit_interval(self, copier_world):
        dataset, _ = copier_world
        result = TruthFinder().discover(dataset)
        for trust in result.accuracies.values():
            assert 0.0 <= trust <= 1.0


class TestDiscountedVoteCountValidation:
    """Satellite bugfix: a provider missing from the accuracy maps must
    fail fast with a named ParameterError, not sort last and KeyError."""

    def _dataset(self):
        return ClaimDataset.from_table(
            {"o1": {"A": "x", "B": "x", "C": "y"}}
        )

    def test_missing_accuracy_names_the_source(self):
        dataset = self._dataset()
        scores = {"A": 1.0, "B": 1.0, "C": 1.0}
        accuracies = {"A": 0.8, "B": 0.8}  # C missing
        with pytest.raises(ParameterError, match="'C'"):
            discounted_vote_counts(
                dataset, "o1", scores, DependenceGraph(), 0.8, accuracies
            )

    def test_missing_score_names_the_source(self):
        dataset = self._dataset()
        scores = {"A": 1.0, "C": 1.0}  # B missing
        accuracies = {"A": 0.8, "B": 0.8, "C": 0.8}
        with pytest.raises(ParameterError, match="'B'"):
            discounted_vote_counts(
                dataset, "o1", scores, DependenceGraph(), 0.8, accuracies
            )

    def test_batch_variant_validates_whole_dataset(self):
        dataset = self._dataset()
        with pytest.raises(ParameterError, match="'C'"):
            all_discounted_vote_counts(
                dataset,
                {"A": 1.0, "B": 1.0, "C": 1.0},
                DependenceGraph(),
                0.8,
                {"A": 0.8, "B": 0.8},
            )

    def test_complete_maps_still_count(self):
        dataset = self._dataset()
        scores = {"A": 1.0, "B": 1.0, "C": 1.0}
        accuracies = {"A": 0.8, "B": 0.8, "C": 0.8}
        counts = discounted_vote_counts(
            dataset, "o1", scores, DependenceGraph(), 0.8, accuracies
        )
        assert counts == {"x": pytest.approx(2.0), "y": pytest.approx(1.0)}


class TestVoteCounting:
    def test_accuracy_score_monotone_in_accuracy(self):
        assert accuracy_score(0.9, 100) > accuracy_score(0.5, 100)

    def test_accuracy_score_monotone_in_n(self):
        assert accuracy_score(0.8, 1000) > accuracy_score(0.8, 10)

    def test_accuracy_score_rejects_degenerate(self):
        with pytest.raises(ParameterError):
            accuracy_score(1.0, 100)
        with pytest.raises(ParameterError):
            accuracy_score(0.5, 0)

    def test_decide_breaks_ties_deterministically(self):
        counts = {"a": 1.0, "b": 1.0}
        assert decide(counts) == decide(dict(reversed(list(counts.items()))))

    def test_softmax_empty(self):
        assert softmax_distribution({}) == {}

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(min_value=-50, max_value=50),
            min_size=1,
        )
    )
    @settings(max_examples=80)
    def test_softmax_is_distribution(self, counts):
        dist = softmax_distribution(counts)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert all(p >= 0 for p in dist.values())

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.floats(min_value=-50, max_value=50),
            min_size=2,
        ),
        st.floats(min_value=-20, max_value=20),
    )
    @settings(max_examples=60)
    def test_softmax_shift_invariant(self, counts, shift):
        shifted = {v: c + shift for v, c in counts.items()}
        base = softmax_distribution(counts)
        moved = softmax_distribution(shifted)
        for value in counts:
            assert moved[value] == pytest.approx(base[value], abs=1e-9)

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.floats(min_value=-20, max_value=20),
            min_size=2,
        )
    )
    @settings(max_examples=60)
    def test_softmax_argmax_matches_decide(self, counts):
        dist = softmax_distribution(counts)
        winner = decide(counts)
        assert dist[winner] == max(dist.values())
