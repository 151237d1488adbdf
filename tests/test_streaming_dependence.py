"""Incremental-dependence equivalence tests.

The contract of the streaming subsystem: after *any* sequence of ingest
batches, the incrementally maintained :class:`EvidenceCache` (and any
:class:`DependenceGraph` discovered from it) is bit-for-bit identical to
a cold rebuild on the final dataset. The tests interleave random ingest
batches with refreshes/discoveries and assert exactly that, across every
evidence-model combination, overlap thresholds and the hot-object cap.

The ported temporal and opinion collectors are pinned the same way:
their batch output must match the per-pair reference walks
(:func:`collect_co_adoptions`, :func:`rater_pair_posterior`) that the
pre-refactor discovery loops used.
"""

from __future__ import annotations

import logging
import random

import pytest

from repro.core.claims import Claim
from repro.core.dataset import ClaimDataset
from repro.core.params import DependenceParams, OpinionParams, TemporalParams
from repro.dependence.bayes import uniform_value_probabilities
from repro.dependence.evidence import EvidenceCache
from repro.dependence.graph import discover_dependence
from repro.dependence.opinions import (
    RaterPairCollector,
    discover_rater_dependence,
    rater_pair_posterior,
)
from repro.dependence.streaming import StreamingDependenceEngine
from repro.dependence.temporal import (
    CoAdoptionCollector,
    collect_co_adoptions,
    discover_temporal_dependence,
    temporal_pair_posterior,
)
from repro.exceptions import DataError
from repro.generators import (
    RatingWorldConfig,
    TemporalConfig,
    TemporalCopierSpec,
    TemporalSourceSpec,
    generate_rating_world,
    generate_temporal_world,
)
from repro.temporal.lifespan import infer_timelines
from repro.truth import Depen

ALL_PARAMS = [
    DependenceParams(false_value_model=model, evidence_form=form)
    for model in ("uniform", "empirical")
    for form in ("expected_log", "marginal")
]


def _random_claims(rng, n_sources=12, n_objects=40, coverage=25, n_values=3):
    sources = [f"S{i:02d}" for i in range(n_sources)]
    objects = [f"o{i:03d}" for i in range(n_objects)]
    claims = []
    for source in sources:
        for obj in rng.sample(objects, coverage):
            claims.append(
                Claim(
                    source=source,
                    object=obj,
                    value=f"v{rng.randrange(n_values)}",
                )
            )
    rng.shuffle(claims)
    return claims


def _assert_same_evidence(incremental, cold, context=""):
    assert set(incremental) == set(cold), context
    for key in cold:
        a, b = incremental[key], cold[key]
        assert (a.s1, a.s2) == (b.s1, b.s2), (context, key)
        assert a.kt_soft == b.kt_soft, (context, key)
        assert a.kf_soft == b.kf_soft, (context, key)
        assert a.kd == b.kd, (context, key)
        assert a.shared_values == b.shared_values, (context, key)
        assert a.shared_count == b.shared_count, (context, key)


def _assert_same_graph(incremental, cold):
    assert len(incremental) == len(cold)
    for pair in cold:
        other = incremental.get(pair.s1, pair.s2)
        assert other.p_independent == pair.p_independent
        assert other.p_s1_copies_s2 == pair.p_s1_copies_s2
        assert other.p_s2_copies_s1 == pair.p_s2_copies_s1


class TestDatasetIngest:
    def test_version_counts_adds_not_duplicates(self, tiny_dataset):
        version = tiny_dataset.version
        assert version == len(tiny_dataset)
        delta = tiny_dataset.add_claims(
            [
                Claim(source="A", object="o1", value="x"),  # duplicate
                Claim(source="D", object="o1", value="x"),
            ]
        )
        assert delta.added == 1
        assert delta.duplicates == 1
        assert delta.dirty_objects == frozenset({"o1"})
        assert tiny_dataset.version == version + 1
        assert bool(delta)

    def test_empty_batch_is_falsy(self, tiny_dataset):
        delta = tiny_dataset.add_claims([])
        assert not delta
        assert delta.dirty_objects == frozenset()

    def test_conflicting_claim_still_raises(self, tiny_dataset):
        with pytest.raises(DataError):
            tiny_dataset.add_claims(
                [Claim(source="A", object="o1", value="DIFFERENT")]
            )

    def test_new_claims_since_reports_per_object_sources(self, tiny_dataset):
        version = tiny_dataset.version
        tiny_dataset.add_claims(
            [
                Claim(source="D", object="o1", value="x"),
                Claim(source="D", object="o2", value="u"),
                Claim(source="E", object="o2", value="v"),
            ]
        )
        delta = tiny_dataset.new_claims_since(version)
        assert delta == {"o1": {"D"}, "o2": {"D", "E"}}
        assert tiny_dataset.dirty_objects_since(version) == {"o1", "o2"}
        assert tiny_dataset.new_claims_since(tiny_dataset.version) == {}

    def test_future_version_rejected(self, tiny_dataset):
        with pytest.raises(DataError, match="future"):
            tiny_dataset.dirty_objects_since(tiny_dataset.version + 1)

    def test_compacting_past_current_version_rejected(self, tiny_dataset):
        with pytest.raises(DataError, match="compact past"):
            tiny_dataset.compact_log(tiny_dataset.version + 1)
        # The log floor is untouched by the failed call.
        assert tiny_dataset.new_claims_since(0) != {}

    def test_compacted_log_rejects_old_queries(self, tiny_dataset):
        version = tiny_dataset.version
        tiny_dataset.add_claims([Claim(source="D", object="o1", value="x")])
        dropped = tiny_dataset.compact_log()
        assert dropped == tiny_dataset.version
        with pytest.raises(DataError, match="compacted"):
            tiny_dataset.new_claims_since(version)
        # Queries from the compaction point onward still work.
        assert tiny_dataset.new_claims_since(tiny_dataset.version) == {}


class TestIncrementalEvidenceEquivalence:
    """Interleaved ingest + refresh == cold rebuild, bit for bit."""

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_random_ingest_matches_cold_rebuild(self, params):
        rng = random.Random(13)
        claims = _random_claims(rng)
        dataset = ClaimDataset(claims[:80])
        cache = EvidenceCache(dataset, params=params, exact=True)
        cursor = 80
        while cursor < len(claims):
            batch = claims[cursor : cursor + rng.randrange(1, 30)]
            cursor += len(batch)
            dataset.add_claims(batch)
            probs = uniform_value_probabilities(dataset)
            cold = EvidenceCache(dataset, params=params, exact=True)
            _assert_same_evidence(
                cache.collect_all(probs),
                cold.collect_all(probs),
                context=f"cursor={cursor}",
            )

    @pytest.mark.parametrize("min_overlap", [1, 5, 12])
    def test_pairs_crossing_overlap_threshold_are_backfilled(
        self, min_overlap
    ):
        rng = random.Random(29)
        claims = _random_claims(rng, n_sources=8, n_objects=30, coverage=18)
        dataset = ClaimDataset(claims[:40])
        params = DependenceParams()
        cache = EvidenceCache(
            dataset, min_overlap=min_overlap, params=params, exact=True
        )
        dataset.add_claims(claims[40:])
        probs = uniform_value_probabilities(dataset)
        cold = EvidenceCache(
            dataset, min_overlap=min_overlap, params=params, exact=True
        )
        # The pair set itself must match what the cold build derives —
        # including pairs that crossed min_overlap only through ingest.
        assert set(cache.collect_all(probs)) == set(cold.collect_all(probs))
        _assert_same_evidence(
            cache.collect_all(probs), cold.collect_all(probs)
        )

    def test_brand_new_sources_and_objects_join_the_pair_set(self):
        dataset = ClaimDataset.from_table(
            {"o1": {"A": "x", "B": "x"}, "o2": {"A": "y", "B": "z"}}
        )
        cache = EvidenceCache(dataset, params=DependenceParams(), exact=True)
        assert cache.pairs == [("A", "B")]
        dataset.add_claims(
            [
                Claim(source="C", object="o1", value="x"),
                Claim(source="C", object="o9", value="w"),
                Claim(source="A", object="o9", value="w"),
            ]
        )
        probs = uniform_value_probabilities(dataset)
        evidence = cache.collect_all(probs)
        assert set(evidence) == {("A", "B"), ("A", "C"), ("B", "C")}
        cold = EvidenceCache(dataset, params=DependenceParams(), exact=True)
        _assert_same_evidence(evidence, cold.collect_all(probs))

    def test_fixed_pair_set_updates_but_never_grows(self):
        dataset = ClaimDataset.from_table(
            {"o1": {"A": "x", "B": "x", "C": "y"}}
        )
        cache = EvidenceCache(dataset, [("A", "B")], exact=True)
        dataset.add_claims([Claim(source="C", object="o2", value="q"),
                           Claim(source="A", object="o2", value="q")])
        evidence = cache.collect_all(uniform_value_probabilities(dataset))
        assert set(evidence) == {("A", "B")}  # explicit pair set is fixed
        # ... but the listed pair's evidence does track new claims.
        dataset.add_claims([Claim(source="B", object="o2", value="q")])
        evidence = cache.collect_all(uniform_value_probabilities(dataset))
        assert evidence[("A", "B")].shared_count == 2

    def test_stale_evidence_access_rejected(self, tiny_dataset):
        cache = EvidenceCache(tiny_dataset, params=DependenceParams())
        cache.refresh(uniform_value_probabilities(tiny_dataset))
        tiny_dataset.add_claims([Claim(source="D", object="o1", value="x")])
        with pytest.raises(DataError, match="grown"):
            cache.evidence("A", "B")
        cache.refresh(uniform_value_probabilities(tiny_dataset))
        assert cache.evidence("A", "B") is not None

    @pytest.mark.parametrize(
        "params",
        [
            DependenceParams(max_providers_per_object=4),
            DependenceParams(
                false_value_model="empirical", max_providers_per_object=4
            ),
        ],
    )
    def test_hot_object_cap_keeps_equivalence_under_ingest(self, params):
        rng = random.Random(47)
        claims = _random_claims(rng, n_sources=10, n_objects=20, coverage=14)
        dataset = ClaimDataset(claims[:60])
        cache = EvidenceCache(dataset, params=params, exact=True)
        cursor = 60
        while cursor < len(claims):
            batch = claims[cursor : cursor + rng.randrange(1, 25)]
            cursor += len(batch)
            dataset.add_claims(batch)
            probs = uniform_value_probabilities(dataset)
            cold = EvidenceCache(dataset, params=params, exact=True)
            _assert_same_evidence(
                cache.collect_all(probs), cold.collect_all(probs)
            )
            assert dict(cache.truncated_objects) == dict(
                cold.truncated_objects
            )

    def test_cap_truncations_are_recorded_and_logged(self, caplog):
        dataset = ClaimDataset.from_table(
            {"hot": {f"S{i}": "x" for i in range(8)}, "cold": {"S0": "y", "S1": "y"}}
        )
        with caplog.at_level(logging.WARNING, logger="repro.dependence"):
            cache = EvidenceCache(
                dataset,
                params=DependenceParams(max_providers_per_object=3),
            )
        assert dict(cache.truncated_objects) == {"hot": 5}
        assert any("hot-item guard" in r.message for r in caplog.records)
        # Capped enumeration: the hot object only contributes pairs
        # among its first 3 providers.
        assert ("S0", "S3") not in set(cache.pairs)
        assert ("S0", "S2") in set(cache.pairs)

    def test_incompatible_cap_params_rejected(self, tiny_dataset):
        cache = EvidenceCache(tiny_dataset, params=DependenceParams())
        with pytest.raises(DataError, match="max_providers_per_object"):
            discover_dependence(
                tiny_dataset,
                uniform_value_probabilities(tiny_dataset),
                {s: 0.8 for s in tiny_dataset.sources},
                DependenceParams(max_providers_per_object=5),
                evidence_cache=cache,
            )


class TestStreamingEngine:
    def test_interleaved_ingest_discover_matches_cold_graph(self):
        rng = random.Random(3)
        claims = _random_claims(rng)
        params = DependenceParams()
        engine = StreamingDependenceEngine(params=params)
        cursor = 0
        while cursor < len(claims):
            batch = claims[cursor : cursor + rng.randrange(5, 60)]
            cursor += len(batch)
            engine.ingest(batch)
            live = engine.discover()
            probs = uniform_value_probabilities(engine.dataset)
            cold = discover_dependence(
                engine.dataset,
                probs,
                {s: 0.8 for s in engine.dataset.sources},
                params,
            )
            _assert_same_graph(live, cold)

    def test_staleness_tracking(self, tiny_dataset):
        engine = StreamingDependenceEngine(tiny_dataset)
        assert engine.is_stale
        engine.discover()
        assert not engine.is_stale
        engine.ingest([Claim(source="D", object="o1", value="x")])
        assert engine.is_stale
        engine.discover()
        assert not engine.is_stale

    def test_duplicate_only_batch_keeps_graph_fresh(self, tiny_dataset):
        engine = StreamingDependenceEngine(tiny_dataset)
        engine.discover()
        delta = engine.ingest([Claim(source="A", object="o1", value="x")])
        assert not delta
        assert not engine.is_stale

    def test_empty_engine_rejects_discover(self):
        engine = StreamingDependenceEngine()
        with pytest.raises(DataError, match="no claims"):
            engine.discover()

    def test_run_truth_reuses_cache_and_matches_fresh_depen(
        self, copier_world
    ):
        dataset, world = copier_world
        claims = sorted(dataset, key=lambda c: (c.source, str(c.object)))
        engine = StreamingDependenceEngine()
        engine.ingest(claims[: len(claims) // 2])
        engine.run_truth()
        engine.ingest(claims[len(claims) // 2 :])
        streamed = engine.run_truth()

        fresh = Depen().discover(engine.dataset)
        assert streamed.decisions == fresh.decisions
        assert streamed.accuracies == fresh.accuracies
        _assert_same_graph(streamed.dependence, fresh.dependence)
        # The engine adopted the run's outputs as live state.
        assert engine.graph is streamed.dependence
        assert not engine.is_stale
        assert engine.accuracies == streamed.accuracies

    def test_discover_clamps_perfect_accuracy_estimates(self):
        """DEPEN can estimate accuracy exactly 1.0; discover must clamp.

        A tiny fully-agreeing world converges to accuracies of 1.0;
        feeding them unclamped into the Bayes model (which needs the
        open interval) used to raise DataError.
        """
        engine = StreamingDependenceEngine(
            params=DependenceParams(n_false_values=20)
        )
        engine.ingest(
            [Claim(source=f"S{i}", object=f"o{j}", value="x")
             for i in range(3) for j in range(3)]
        )
        result = engine.run_truth()
        assert max(result.accuracies.values()) == 1.0
        engine.ingest([Claim(source="S9", object="o0", value="y")])
        graph = engine.discover()  # must not raise on the 1.0 estimates
        assert len(graph) > 0

    def test_compact_trims_the_mutation_log(self, tiny_dataset):
        engine = StreamingDependenceEngine(tiny_dataset)
        engine.ingest([Claim(source="D", object="o1", value="x")])
        assert engine.compact() > 0
        # The cache is synced past the compaction point, so it still works.
        engine.ingest([Claim(source="E", object="o2", value="u")])
        engine.discover()


class TestDepenEvidenceCacheInjection:
    def test_injected_cache_matches_default_run(self, table1):
        baseline = Depen().discover(table1)
        cache = EvidenceCache(table1, params=DependenceParams())
        injected = Depen().discover(table1, evidence_cache=cache)
        assert injected.decisions == baseline.decisions
        assert injected.accuracies == baseline.accuracies
        _assert_same_graph(injected.dependence, baseline.dependence)

    @pytest.mark.parametrize("change", ["pair_count_grows", "pair_set_swaps"])
    def test_cache_behind_dataset_matches_cold_run(self, change):
        rows = {
            "A": {"o2": "v1", "o4": "v1"},
            "B": {"o1": "v0", "o3": "v0"},
            "C": {"o0": "v0", "o1": "v0", "o4": "v0"},
            "D": {"o0": "v1", "o4": "v1"},
            "E": {"o0": "v0", "o1": "v1"},
        }
        dataset = ClaimDataset(
            [
                Claim(source, obj, value)
                for source, claims in rows.items()
                for obj, value in claims.items()
            ]
        )
        # Built before the mutation below: the cache lags the dataset.
        cache = EvidenceCache(dataset, min_overlap=2, params=DependenceParams())
        before = set(cache.pairs)
        if change == "pair_count_grows":
            dataset.add_claims([Claim("F", "o0", "v0"), Claim("F", "o1", "v0")])
        else:
            # CE falls below the overlap threshold while AD reaches it.
            dataset.retract_claims([("E", "o0")])
            dataset.add_claims([Claim("D", "o2", "v0")])
        depen = Depen(min_overlap=2)
        injected = depen.discover(dataset, evidence_cache=cache)
        cold = depen.discover(dataset)
        after = set(cache.pairs)
        assert after != before
        if change == "pair_set_swaps":
            assert len(after) == len(before)
        assert injected.decisions == cold.decisions
        assert injected.accuracies == cold.accuracies
        _assert_same_graph(injected.dependence, cold.dependence)
        assert {(p.s1, p.s2) for p in injected.dependence} == after

    def test_incompatible_cache_rejected(self, table1):
        cache = EvidenceCache(
            table1, params=DependenceParams(false_value_model="empirical")
        )
        with pytest.raises(DataError, match="false_value_model"):
            Depen().discover(table1, evidence_cache=cache)

    def test_cache_bound_to_other_dataset_rejected(self, table1, tiny_dataset):
        cache = EvidenceCache(tiny_dataset, params=DependenceParams())
        with pytest.raises(DataError, match="different ClaimDataset"):
            Depen().discover(table1, evidence_cache=cache)

    def test_min_overlap_mismatch_rejected(self, table1):
        cache = EvidenceCache(table1, params=DependenceParams())
        with pytest.raises(DataError, match="min_overlap"):
            Depen(min_overlap=3).discover(table1, evidence_cache=cache)


class TestTemporalCollectorEquivalence:
    @pytest.fixture(scope="class")
    def world(self):
        config = TemporalConfig(
            n_objects=40,
            time_span=40.0,
            transitions_per_object=2.0,
            n_false_values=10,
            sources=[
                TemporalSourceSpec("fresh", lag=0.3, error_rate=0.1),
                TemporalSourceSpec("slow", lag=3.0, error_rate=0.1),
                TemporalSourceSpec("mid1", lag=1.0, error_rate=0.1),
                TemporalSourceSpec("mid2", lag=1.5, error_rate=0.1),
            ],
            copiers=[
                TemporalCopierSpec(
                    "lazy1", "fresh", poll_interval=3.0, copy_rate=0.8
                ),
            ],
        )
        return generate_temporal_world(config, seed=11)

    def test_collector_events_match_per_pair_reference(self, world):
        dataset, _ = world
        timelines, _ = infer_timelines(dataset)
        collector = CoAdoptionCollector(dataset)
        sources = dataset.sources
        for i, s1 in enumerate(sources):
            for s2 in sources[i + 1 :]:
                reference = collect_co_adoptions(
                    dataset, s1, s2, timelines, collector.adopter_counts
                )
                assert collector.events(s1, s2, timelines) == reference

    def test_collector_events_swap_direction_cleanly(self, world):
        dataset, _ = world
        timelines, _ = infer_timelines(dataset)
        collector = CoAdoptionCollector(dataset)
        forward = collector.events("fresh", "lazy1", timelines)
        backward = collector.events("lazy1", "fresh", timelines)
        assert {(e.object, e.value, e.t1, e.t2) for e in forward} == {
            (e.object, e.value, e.t2, e.t1) for e in backward
        }

    def test_discovery_matches_pre_refactor_reference(self, world):
        """The ported loop reproduces the per-pair walk bit for bit."""
        dataset, _ = world
        params = TemporalParams(freshness_adjustment=0.6)
        timelines, exactness = infer_timelines(dataset)
        ported = discover_temporal_dependence(
            dataset, params, timelines, exactness
        )

        # Pre-refactor reference: per-pair collection walks + the
        # adopter/never-true precompute loops, verbatim.
        collector = CoAdoptionCollector(dataset)
        adopter_counts = dict(collector.adopter_counts)
        nt_rate = collector.never_true_rates(timelines)

        def clamp(a):
            return min(0.99, max(0.01, a))

        sources = dataset.sources
        n_pairs = 0
        for i, s1 in enumerate(sources):
            for s2 in sources[i + 1 :]:
                events = collect_co_adoptions(
                    dataset, s1, s2, timelines, adopter_counts
                )
                if not events:
                    continue
                n_pairs += 1
                expected = temporal_pair_posterior(
                    events,
                    s1,
                    s2,
                    clamp(exactness.get(s1, 0.5)),
                    clamp(exactness.get(s2, 0.5)),
                    params,
                    nt_rates=(nt_rate.get(s1, 0.0), nt_rate.get(s2, 0.0)),
                )
                got = ported.get(s1, s2)
                assert got.p_independent == expected.p_independent
                assert got.p_s1_copies_s2 == expected.p_s1_copies_s2
                assert got.p_s2_copies_s1 == expected.p_s2_copies_s1
        assert len(ported) == n_pairs > 0

    def test_stale_collector_rejected(self):
        from repro.core.claims import TemporalClaim
        from repro.core.temporal_dataset import TemporalDataset

        dataset = TemporalDataset.from_table(
            {"o1": {"A": [(1.0, "x"), (3.0, "y")], "B": [(2.0, "x")]}}
        )
        collector = CoAdoptionCollector(dataset)
        dataset.add(
            TemporalClaim(source="B", object="o1", value="y", time=4.0)
        )
        with pytest.raises(DataError, match="grown"):
            collector.events("A", "B", {})
        with pytest.raises(DataError, match="grown"):
            collector.never_true_rates({})

    def test_collector_for_other_dataset_rejected(self, world):
        dataset, _ = world
        other = dataset.restrict_sources(["fresh", "slow", "mid1"])
        collector = CoAdoptionCollector(other)
        with pytest.raises(DataError, match="different TemporalDataset"):
            discover_temporal_dependence(dataset, collector=collector)

    def test_self_pair_membership_is_false_not_error(self, world):
        dataset, _ = world
        collector = CoAdoptionCollector(dataset)
        assert ("fresh", "fresh") not in collector
        assert ("fresh", "slow") in collector

    def test_never_true_rates_match_reference_computation(self, world):
        dataset, _ = world
        timelines, _ = infer_timelines(dataset)
        collector = CoAdoptionCollector(dataset)
        from repro.dependence.temporal import _first_adoptions

        nt_counts: dict = {}
        adoption_counts: dict = {}
        for source in dataset.sources:
            for obj in dataset.objects_of(source):
                periods = timelines.get(obj, [])
                for value in _first_adoptions(dataset, source, obj):
                    adoption_counts[source] = (
                        adoption_counts.get(source, 0) + 1
                    )
                    if not any(p.value == value for p in periods):
                        nt_counts[source] = nt_counts.get(source, 0) + 1
        expected = {
            source: nt_counts.get(source, 0) / count
            for source, count in adoption_counts.items()
        }
        assert collector.never_true_rates(timelines) == expected


class TestRaterCollectorEquivalence:
    @pytest.fixture(scope="class")
    def world(self):
        config = RatingWorldConfig(
            n_items=40,
            n_clusters=2,
            raters_per_cluster=4,
            n_copiers=2,
            n_anti=1,
        )
        return generate_rating_world(config, seed=9)

    def test_unit_weight_posteriors_match_reference_exactly(self, world):
        """Unit weights: the count subtraction is exact arithmetic."""
        matrix = world.matrix
        params = OpinionParams()
        collector = RaterPairCollector(matrix)
        raters = matrix.raters
        checked = 0
        for i, r1 in enumerate(raters):
            for r2 in raters[i + 1 :]:
                if not matrix.co_rated(r1, r2):
                    continue
                reference = rater_pair_posterior(matrix, r1, r2, params)
                got = collector.pair_posterior(r1, r2, params)
                assert got.p_independent == reference.p_independent
                assert got.p_r1_copies_r2 == reference.p_r1_copies_r2
                assert got.p_r2_copies_r1 == reference.p_r2_copies_r1
                assert got.p_r1_opposes_r2 == reference.p_r1_opposes_r2
                assert got.p_r2_opposes_r1 == reference.p_r2_opposes_r1
                assert got.co_rated == reference.co_rated
                checked += 1
        assert checked > 0

    def test_weighted_posteriors_match_reference(self, world):
        matrix = world.matrix
        params = OpinionParams()
        rng = random.Random(17)
        weights = {r: rng.uniform(0.0, 1.0) for r in matrix.raters}
        collector = RaterPairCollector(matrix)
        counts = collector.weighted_counts(weights, params.smoothing)
        for r1, r2 in sorted(collector.pairs):
            reference = rater_pair_posterior(matrix, r1, r2, params, weights)
            got = collector.pair_posterior(
                r1, r2, params, weights, counts=counts
            )
            assert got.p_independent == pytest.approx(
                reference.p_independent, rel=1e-9, abs=1e-12
            )
            assert got.p_r1_copies_r2 == pytest.approx(
                reference.p_r1_copies_r2, rel=1e-9, abs=1e-12
            )
            assert got.p_r1_opposes_r2 == pytest.approx(
                reference.p_r1_opposes_r2, rel=1e-9, abs=1e-12
            )

    def test_discovery_matches_pre_refactor_reference(self, world):
        """The ported loop reproduces the per-pair reference loop."""
        matrix = world.matrix
        params = OpinionParams()
        ported = discover_rater_dependence(matrix, params, min_co_rated=3)

        raters = matrix.raters
        n_pairs = 0
        for i, r1 in enumerate(raters):
            for r2 in raters[i + 1 :]:
                if len(matrix.co_rated(r1, r2)) < 3:
                    continue
                n_pairs += 1
                reference = rater_pair_posterior(matrix, r1, r2, params)
                got = ported.get(r1, r2)
                assert got is not None
                assert got.p_independent == reference.p_independent
                assert got.p_dependent == reference.p_dependent
        assert len(ported) == n_pairs > 0

    def test_swapped_query_mirrors_directions(self, world):
        matrix = world.matrix
        collector = RaterPairCollector(matrix)
        r1, r2 = sorted(collector.pairs)[0]
        forward = collector.pair_posterior(r1, r2)
        backward = collector.pair_posterior(r2, r1)
        assert forward.p_r1_copies_r2 == backward.p_r2_copies_r1
        assert forward.p_r1_opposes_r2 == backward.p_r2_opposes_r1
        assert forward.p_independent == backward.p_independent

    def test_stale_collector_rejected(self):
        from repro.core.claims import Rating
        from repro.opinions.ratings import RatingMatrix

        matrix = RatingMatrix.from_table(
            ("Bad", "Good"),
            {"m1": {"R1": "Good", "R2": "Good"}, "m2": {"R1": "Bad", "R2": "Bad"}},
        )
        collector = RaterPairCollector(matrix)
        matrix.add(Rating(rater="R3", item="m1", score="Bad"))
        with pytest.raises(DataError, match="grown"):
            collector.pair_posterior("R1", "R2")
        with pytest.raises(DataError, match="grown"):
            collector.weighted_counts(None, 0.5)

    def test_collector_for_other_matrix_rejected(self, world, table2_matrix):
        collector = RaterPairCollector(table2_matrix)
        with pytest.raises(DataError, match="different RatingMatrix"):
            discover_rater_dependence(world.matrix, collector=collector)
