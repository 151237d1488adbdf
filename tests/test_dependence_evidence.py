"""Equivalence tests for the batch evidence engine (EvidenceCache).

The batch engine must be a pure optimisation: in exact mode it
reproduces the per-pair ``collect_evidence`` / ``pair_posterior`` path
bit for bit (same accumulation order — both walk the overlap in sorted
object order); the fast aggregate path (uniform false-value model,
``expected_log``) is mathematically identical and is checked to
float-noise tolerance.
"""

import pytest

from repro.core.dataset import ClaimDataset
from repro.core.params import DependenceParams
from repro.dependence.bayes import (
    PairEvidence,
    collect_evidence,
    pair_posterior,
    uniform_value_probabilities,
)
from repro.dependence.evidence import EvidenceCache
from repro.dependence.graph import discover_dependence
from repro.exceptions import DataError
from repro.generators import BookstoreConfig, generate_bookstore_catalog
from repro.truth import Accu, Depen

ALL_PARAMS = [
    DependenceParams(false_value_model=model, evidence_form=form)
    for model in ("uniform", "empirical")
    for form in ("expected_log", "marginal")
]


def _accuracies(dataset, value=0.8):
    return {s: value for s in dataset.sources}


def _assert_identical(batch: PairEvidence, reference: PairEvidence):
    """Field-for-field, bit-for-bit equality of two evidence records."""
    assert batch.s1 == reference.s1
    assert batch.s2 == reference.s2
    assert batch.kt_soft == reference.kt_soft
    assert batch.kf_soft == reference.kf_soft
    assert batch.kd == reference.kd
    assert batch.shared_values == reference.shared_values
    assert batch.shared_count == reference.shared_count


def _assert_exact_equivalence(dataset, value_probs, params, accuracies):
    cache = EvidenceCache(dataset, params=params, exact=True)
    all_evidence = cache.collect_all(value_probs)
    assert all_evidence  # the workload must exercise at least one pair
    for (s1, s2), evidence in all_evidence.items():
        reference = collect_evidence(
            dataset,
            s1,
            s2,
            value_probs,
            with_popularity=params.false_value_model == "empirical",
        )
        _assert_identical(evidence, reference)
        batch_post = pair_posterior(evidence, accuracies[s1], accuracies[s2], params)
        ref_post = pair_posterior(reference, accuracies[s1], accuracies[s2], params)
        assert batch_post.p_independent == ref_post.p_independent
        assert batch_post.p_s1_copies_s2 == ref_post.p_s1_copies_s2
        assert batch_post.p_s2_copies_s1 == ref_post.p_s2_copies_s1


class TestExactEquivalence:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_table1_uniform_start(self, table1, params):
        probs = uniform_value_probabilities(table1)
        _assert_exact_equivalence(table1, probs, params, _accuracies(table1))

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_table1_hardened_probabilities(self, table1, params):
        """Second-round shape: soft-but-peaked value probabilities."""
        result = Accu().discover(table1)
        clamped = {
            s: min(0.95, max(0.05, a)) for s, a in result.accuracies.items()
        }
        _assert_exact_equivalence(table1, result.distributions, params, clamped)

    def test_bookstore_generator(self):
        config = BookstoreConfig(
            n_stores=24,
            n_books=60,
            n_listings=700,
            max_books_per_store=55,
            n_copier_cliques=3,
            clique_size=3,
            copier_min_books=8,
            copier_max_books=40,
        )
        catalog, _ = generate_bookstore_catalog(config, seed=3)
        dataset = catalog.field_claims("authors")
        probs = uniform_value_probabilities(dataset)
        for params in ALL_PARAMS:
            _assert_exact_equivalence(
                dataset, probs, params, _accuracies(dataset)
            )

    def test_disjoint_sources_yield_prior(self):
        """A candidate pair with no overlap carries zero evidence."""
        dataset = ClaimDataset.from_table(
            {
                "o1": {"A": "x"},
                "o2": {"A": "y"},
                "o3": {"B": "u"},
                "o4": {"B": "v"},
            }
        )
        probs = uniform_value_probabilities(dataset)
        params = DependenceParams(alpha=0.2)
        cache = EvidenceCache(dataset, [("A", "B")], params=params, exact=True)
        evidence = cache.collect_all(probs)[("A", "B")]
        _assert_identical(evidence, collect_evidence(dataset, "A", "B", probs))
        assert evidence.shared_count == 0
        assert evidence.overlap_size == 0
        posterior = pair_posterior(evidence, 0.8, 0.8, params)
        assert posterior.p_dependent == pytest.approx(params.alpha)

    def test_cache_rejects_self_pair_and_unknown_pair(self, table1):
        with pytest.raises(DataError):
            EvidenceCache(table1, [("S1", "S1")])
        cache = EvidenceCache(table1, [("S1", "S2")])
        cache.refresh(uniform_value_probabilities(table1))
        with pytest.raises(DataError):
            cache.evidence("S1", "S3")

    def test_evidence_before_refresh_rejected(self, table1):
        cache = EvidenceCache(table1, [("S1", "S2")])
        with pytest.raises(DataError, match="refresh"):
            cache.evidence("S1", "S2")

    def test_model_mismatch_rejected(self, table1):
        """A cache built for one evidence model cannot score another."""
        probs = uniform_value_probabilities(table1)
        accs = _accuracies(table1)
        cache = EvidenceCache(table1, params=DependenceParams())
        empirical = DependenceParams(false_value_model="empirical")
        with pytest.raises(DataError, match="false_value_model"):
            discover_dependence(
                table1, probs, accs, empirical, evidence_cache=cache
            )

    def test_cache_plus_candidate_pairs_rejected(self, table1):
        probs = uniform_value_probabilities(table1)
        accs = _accuracies(table1)
        cache = EvidenceCache(table1, params=DependenceParams())
        with pytest.raises(DataError, match="not both"):
            discover_dependence(
                table1,
                probs,
                accs,
                DependenceParams(),
                candidate_pairs=[("S1", "S2")],
                evidence_cache=cache,
            )

    def test_pair_key_order_insensitive(self, table1):
        probs = uniform_value_probabilities(table1)
        cache = EvidenceCache(table1, [("S2", "S1")], exact=True)
        cache.refresh(probs)
        evidence = cache.evidence("S1", "S2")
        _assert_identical(evidence, collect_evidence(table1, "S1", "S2", probs))


class TestFastAggregatePath:
    """uniform + expected_log: the per-value loop collapses to aggregates."""

    def test_skips_shared_values(self, table1):
        cache = EvidenceCache(table1, params=DependenceParams())
        for evidence in cache.collect_all(
            uniform_value_probabilities(table1)
        ).values():
            assert evidence.shared_values is None
            assert evidence.shared_count is not None

    def test_aggregate_counts_match_reference_exactly(self, table1):
        probs = uniform_value_probabilities(table1)
        cache = EvidenceCache(table1, params=DependenceParams())
        for (s1, s2), evidence in cache.collect_all(probs).items():
            reference = collect_evidence(table1, s1, s2, probs)
            assert evidence.kt_soft == reference.kt_soft
            assert evidence.kf_soft == reference.kf_soft
            assert evidence.kd == reference.kd
            assert evidence.shared_count == reference.shared_count

    def test_posteriors_match_per_value_path(self, table1):
        probs = uniform_value_probabilities(table1)
        params = DependenceParams()
        accs = _accuracies(table1)
        cache = EvidenceCache(table1, params=params)
        for (s1, s2), evidence in cache.collect_all(probs).items():
            fast = pair_posterior(evidence, accs[s1], accs[s2], params)
            per_value = pair_posterior(
                collect_evidence(table1, s1, s2, probs), accs[s1], accs[s2], params
            )
            assert fast.p_independent == pytest.approx(
                per_value.p_independent, rel=1e-12, abs=1e-12
            )
            assert fast.p_s1_copies_s2 == pytest.approx(
                per_value.p_s1_copies_s2, rel=1e-12, abs=1e-12
            )

    def test_marginal_form_disables_fast_path(self, table1):
        cache = EvidenceCache(
            table1, params=DependenceParams(evidence_form="marginal")
        )
        for evidence in cache.collect_all(
            uniform_value_probabilities(table1)
        ).values():
            assert evidence.shared_values is not None


class TestDiscoverDependenceWiring:
    def test_batch_graph_matches_per_pair_graph(self, copier_world):
        dataset, _ = copier_world
        probs = uniform_value_probabilities(dataset)
        accs = _accuracies(dataset)
        params = DependenceParams()
        legacy = discover_dependence(dataset, probs, accs, params, batch=False)
        cache = EvidenceCache(dataset, params=params, exact=True)
        batch = discover_dependence(
            dataset, probs, accs, params, evidence_cache=cache
        )
        assert len(batch) == len(legacy)
        for pair in legacy:
            other = batch.get(pair.s1, pair.s2)
            assert other.p_independent == pair.p_independent
            assert other.p_s1_copies_s2 == pair.p_s1_copies_s2
            assert other.p_s2_copies_s1 == pair.p_s2_copies_s1

    def test_cache_reuse_across_rounds_is_stable(self, table1):
        """Refreshing the same cache twice with the same probs is idempotent."""
        probs = uniform_value_probabilities(table1)
        accs = _accuracies(table1)
        params = DependenceParams()
        cache = EvidenceCache(table1, params=params)
        first = discover_dependence(
            table1, probs, accs, params, evidence_cache=cache
        )
        second = discover_dependence(
            table1, probs, accs, params, evidence_cache=cache
        )
        for pair in first:
            assert second.get(pair.s1, pair.s2).p_dependent == pair.p_dependent

    def test_depen_end_to_end_matches_legacy_rounds(self, table1):
        """The wired Depen still solves Table 1 (Example 3.1)."""
        result = Depen().discover(table1)
        assert result.dependence.probability("S4", "S5") > 0.9
        assert result.dependence.probability("S1", "S2") < 0.2


class TestOverlapSizeRegression:
    """Satellite bugfix: overlap_size from an explicit integer count."""

    def test_hand_built_fractional_soft_counts(self):
        # Marginal-style soft counts need not sum to an integer; the old
        # round(kt + kf) + kd misreported this overlap as 7 (round(5.5)
        # rounds up to 6) instead of the true 5 shared + 1 differing.
        fixed = PairEvidence(
            s1="A", s2="B", kt_soft=2.6, kf_soft=2.9, kd=1, shared_count=5
        )
        assert fixed.overlap_size == 6
        legacy = PairEvidence(s1="A", s2="B", kt_soft=2.6, kf_soft=2.9, kd=1)
        assert legacy.shared_count is None
        assert legacy.overlap_size == 7  # documents the fallback's drift hazard

    def test_collect_evidence_populates_shared_count(self, table1):
        # Adversarial soft probabilities: non-representable fractions
        # accumulate drift in kt_soft/kf_soft, but the integer count is
        # exact by construction.
        probs = {
            obj: {value: 1.0 / 3.0 for value in table1.values_for(obj)}
            for obj in table1.objects
        }
        for s1, s2 in (("S3", "S4"), ("S3", "S5"), ("S1", "S2")):
            evidence = collect_evidence(table1, s1, s2, probs)
            assert evidence.shared_count == len(evidence.shared_values)
            assert (
                evidence.overlap_size
                == evidence.shared_count + evidence.kd
                == len(table1.overlap(s1, s2))
            )

    def test_batch_engine_populates_shared_count(self, table1):
        cache = EvidenceCache(table1, params=DependenceParams())
        for (s1, s2), evidence in cache.collect_all(
            uniform_value_probabilities(table1)
        ).items():
            assert evidence.overlap_size == len(table1.overlap(s1, s2))


class TestScalarSumsFollowRefresh:
    """The scalar readers' sums lists are built lazily after a refresh;
    a later refresh must never leave them serving the previous sums."""

    MODES = [
        pytest.param(DependenceParams(), False, id="fast"),
        pytest.param(
            DependenceParams(false_value_model="empirical"), True, id="exact"
        ),
    ]

    @staticmethod
    def _check(dataset, cache, params, value_probs, read):
        popularity = params.false_value_model == "empirical"
        fast = cache._fast
        for s1, s2 in cache.pairs:
            evidence = read(s1, s2)
            reference = collect_evidence(
                dataset, s1, s2, value_probs, with_popularity=popularity
            )
            if fast:
                assert evidence.kt_soft == reference.kt_soft
                assert evidence.kf_soft == reference.kf_soft
                assert evidence.kd == reference.kd
                assert evidence.shared_count == reference.shared_count
            else:
                _assert_identical(evidence, reference)

    @pytest.mark.parametrize("params, exact", MODES)
    def test_interleaved_table_refreshes(self, copier_world, params, exact):
        import random

        from repro.truth.columnar import ValueProbTable

        dataset, _ = copier_world
        first = ValueProbTable(dataset)
        second = ValueProbTable(dataset, layout=first.layout)
        rng = random.Random(4)
        second.set_probs([rng.random() for _ in range(len(second))])
        cache = EvidenceCache(dataset, params=params, exact=exact)
        cache.refresh(first)
        collected = cache.collect_all(first)
        self._check(
            dataset, cache, params, first.to_dict(), lambda *k: collected[k]
        )
        cache.refresh(second)
        self._check(dataset, cache, params, second.to_dict(), cache.evidence)
        cache.refresh(first)
        self._check(dataset, cache, params, first.to_dict(), cache.evidence)

    @pytest.mark.parametrize("params, exact", MODES)
    def test_collect_all_after_depen(self, copier_world, params, exact):
        dataset, _ = copier_world
        cache = EvidenceCache(dataset, params=params, exact=exact)
        Depen(params).discover(dataset, evidence_cache=cache)
        probs = uniform_value_probabilities(dataset)
        collected = cache.collect_all(probs)
        self._check(dataset, cache, params, probs, lambda *k: collected[k])
