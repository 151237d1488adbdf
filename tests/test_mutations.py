"""Mutation-algebra tests: retraction, correction, MutationBatch.

The contract of the mutation tentpole: after *any* mix of adds,
retractions and corrections — applied through the unified
``MutationBatch`` surface — the incrementally repaired
:class:`EvidenceCache` is bit-for-bit identical to a cold rebuild on
the post-mutation dataset, for every entry store and parallel backend
(resident workers included). The hypothesis property here pins exactly
that; the rest covers the batch API itself, the mutation-log semantics
under removal, compaction bounding a correction storm, and the
session-level apply/feed plumbing.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.claims import Claim
from repro.core.dataset import (
    ABSENT,
    ClaimDataset,
    MutationBatch,
    MutationDelta,
)
from repro.core.params import DependenceParams
from repro.dependence.bayes import uniform_value_probabilities
from repro.dependence.entrystore import COMPACT_MIN_DEAD
from repro.dependence.evidence import EvidenceCache
from repro.dependence.streaming import StreamingDependenceEngine
from repro.exceptions import DataError
from repro.session import Session
from repro.truth.accu import Accu

REFERENCE_PARAMS = DependenceParams(parallel_backend="serial")


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


def _provider_orders(dataset):
    """Every object's values and provider sets, in iteration order."""
    return {
        obj: [
            (value, list(providers))
            for value, providers in dataset.values_for_view(obj).items()
        ]
        for obj in dataset.objects
    }


def _assert_same_accu(result, expected):
    """Two ACCU results agree bit for bit (floats compared by ``hex``)."""
    assert {s: a.hex() for s, a in result.accuracies.items()} == {
        s: a.hex() for s, a in expected.accuracies.items()
    }
    assert result.decisions == expected.decisions
    assert {
        obj: {value: p.hex() for value, p in dist.items()}
        for obj, dist in result.distributions.items()
    } == {
        obj: {value: p.hex() for value, p in dist.items()}
        for obj, dist in expected.distributions.items()
    }


def _seed_claims(rng, n_sources=8, n_objects=20, coverage=12, n_values=3):
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


def _random_batch(rng, dataset, n_values=3):
    """A mixed batch drawn against the dataset's current state."""
    live = sorted((c.source, c.object) for c in dataset)
    retractions = tuple(
        rng.sample(live, min(len(live), rng.randrange(0, 4)))
    )
    retracted = set(retractions)
    correctable = [key for key in live if key not in retracted]
    corrections = tuple(
        Claim(source=s, object=o, value=f"v{rng.randrange(n_values)}")
        for s, o in rng.sample(
            correctable, min(len(correctable), rng.randrange(0, 4))
        )
    )
    # Adds must not blindly re-assert an occupied key (that raises by
    # design); retracted keys are fair game — the batch order makes
    # retract-then-re-add legal.
    occupied = set(live) - retracted
    adds = []
    for _ in range(rng.randrange(0, 6)):
        key = (f"S{rng.randrange(10):02d}", f"o{rng.randrange(24):03d}")
        if key in occupied:
            continue
        occupied.add(key)
        adds.append(
            Claim(
                source=key[0],
                object=key[1],
                value=f"v{rng.randrange(n_values)}",
            )
        )
    return MutationBatch(
        adds=tuple(adds), retractions=retractions, corrections=corrections
    )


class TestMutationBatchApi:
    def test_batch_counts_and_truthiness(self):
        batch = MutationBatch(
            adds=(Claim(source="A", object="o", value="x"),),
            retractions=(("B", "o"),),
            corrections=(Claim(source="C", object="o", value="y"),),
        )
        assert len(batch) == 3
        assert batch
        assert not MutationBatch()
        assert len(MutationBatch()) == 0

    def test_from_claims_is_an_add_only_batch(self):
        claims = [Claim(source="A", object="o", value="x")]
        batch = MutationBatch.from_claims(claims)
        assert batch.adds == tuple(claims)
        assert batch.retractions == ()
        assert batch.corrections == ()

    def test_apply_accepts_bare_iterables(self, tiny_dataset):
        delta = tiny_dataset.apply(
            [Claim(source="D", object="o1", value="x")]
        )
        assert delta.added == 1
        assert delta.retracted == 0

    def test_retract_removes_the_claim(self, tiny_dataset):
        delta = tiny_dataset.retract_claims([("C", "o1")])
        assert delta.retracted == 1
        assert tiny_dataset.value_of("C", "o1") is None
        assert ("C", "o1") not in tiny_dataset

    def test_retract_missing_claim_rejected(self, tiny_dataset):
        with pytest.raises(DataError):
            tiny_dataset.retract_claims([("A", "o999")])

    def test_correct_replaces_the_value(self, tiny_dataset):
        delta = tiny_dataset.correct_claims(
            [Claim(source="C", object="o1", value="x")]
        )
        assert delta.corrected == 1
        assert tiny_dataset.value_of("C", "o1") == "x"

    def test_correct_without_target_rejected(self, tiny_dataset):
        with pytest.raises(DataError):
            tiny_dataset.correct_claims(
                [Claim(source="Z", object="o1", value="x")]
            )

    def test_identical_correction_counts_as_duplicate(self, tiny_dataset):
        existing = tiny_dataset.value_of("A", "o1")
        before = tiny_dataset.version
        delta = tiny_dataset.correct_claims(
            [Claim(source="A", object="o1", value=existing)]
        )
        assert delta.corrected == 0
        assert delta.duplicates == 1
        assert tiny_dataset.version == before

    def test_batch_applies_retract_then_correct_then_add(self, tiny_dataset):
        # The retraction of (C, o1) must land before the add re-creates
        # it — order within one batch is retract -> correct -> add.
        delta = tiny_dataset.apply(
            MutationBatch(
                adds=(Claim(source="C", object="o1", value="z"),),
                retractions=(("C", "o1"),),
            )
        )
        assert delta.retracted == 1 and delta.added == 1
        assert tiny_dataset.value_of("C", "o1") == "z"

    def test_top_level_exports(self):
        assert repro.MutationBatch is MutationBatch
        assert repro.MutationDelta is MutationDelta
        assert repro.ABSENT is ABSENT
        for name in ("Mutation", "MutationBatch", "MutationDelta", "ABSENT"):
            assert name in repro.__all__


class TestMutationLogSemantics:
    def test_dirty_objects_since_unions_removals(self, tiny_dataset):
        version = tiny_dataset.version
        tiny_dataset.retract_claims([("C", "o1")])
        tiny_dataset.correct_claims(
            [Claim(source="A", object="o2", value="w")]
        )
        assert tiny_dataset.dirty_objects_since(version) == {"o1", "o2"}

    def test_mutations_since_reports_first_old_value(self, tiny_dataset):
        version = tiny_dataset.version
        original = tiny_dataset.value_of("A", "o1")
        tiny_dataset.correct_claims(
            [Claim(source="A", object="o1", value="q")]
        )
        tiny_dataset.retract_claims([("A", "o1")])
        delta = tiny_dataset.mutations_since(version)
        # Two mutations on one key collapse to the state at `version`.
        assert delta["o1"]["A"] == original

    def test_add_then_retract_reports_absent(self, tiny_dataset):
        version = tiny_dataset.version
        tiny_dataset.add_claims([Claim(source="Z", object="o1", value="x")])
        tiny_dataset.retract_claims([("Z", "o1")])
        delta = tiny_dataset.mutations_since(version)
        assert delta["o1"]["Z"] is ABSENT

    def test_retractions_survive_compact_log(self, tiny_dataset):
        cutoff = tiny_dataset.version
        tiny_dataset.retract_claims([("C", "o1")])
        tiny_dataset.compact_log(cutoff)
        delta = tiny_dataset.mutations_since(cutoff)
        assert delta["o1"]["C"] == "y"

    def test_compacted_prefix_is_gone(self, tiny_dataset):
        tiny_dataset.retract_claims([("C", "o1")])
        tiny_dataset.compact_log(tiny_dataset.version)
        with pytest.raises(DataError):
            tiny_dataset.mutations_since(0)


BACKENDS = ["serial", "numpy", "resident"]


class TestMutationSyncEquivalence:
    """sync() after any add/retract/correct mix == cold rebuild."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(seed=st.integers(0, 10**6))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_mutation_mix_matches_cold_rebuild(self, backend, seed):
        rng = random.Random(seed)
        dataset = ClaimDataset(_seed_claims(rng))
        params = DependenceParams(parallel_backend=backend, num_workers=2)
        cache = EvidenceCache(dataset, params=params, exact=True)
        try:
            for round_no in range(3):
                dataset.apply(_random_batch(rng, dataset))
                cache.sync()
                probs = uniform_value_probabilities(dataset)
                cold = EvidenceCache(
                    dataset, params=REFERENCE_PARAMS, exact=True
                )
                _assert_same_evidence(
                    cache.collect_all(probs),
                    cold.collect_all(probs),
                    context=f"{backend} round {round_no}",
                )
        finally:
            cache.close()

    def test_retract_to_below_two_providers_clears_evidence(self):
        dataset = ClaimDataset.from_table(
            {"o1": {"A": "x", "B": "x"}, "o2": {"A": "y", "B": "y"}}
        )
        cache = EvidenceCache(dataset, params=REFERENCE_PARAMS, exact=True)
        dataset.retract_claims([("B", "o1")])
        cache.sync()
        probs = uniform_value_probabilities(dataset)
        cold = EvidenceCache(dataset, params=REFERENCE_PARAMS, exact=True)
        _assert_same_evidence(
            cache.collect_all(probs), cold.collect_all(probs)
        )

    def test_hot_object_cap_tracks_removals(self):
        # Retracting below the cap must clear the truncation record,
        # exactly as a cold enumeration of the final state would.
        table = {"o1": {f"S{i}": "x" for i in range(6)}}
        dataset = ClaimDataset.from_table(table)
        params = DependenceParams(
            max_providers_per_object=4, parallel_backend="serial"
        )
        cache = EvidenceCache(dataset, params=params, exact=True)
        cache.refresh(uniform_value_probabilities(dataset))
        assert "o1" in cache.truncated_objects
        dataset.retract_claims([("S4", "o1"), ("S5", "o1")])
        cache.sync()
        assert "o1" not in cache.truncated_objects
        probs = uniform_value_probabilities(dataset)
        cold = EvidenceCache(dataset, params=params, exact=True)
        _assert_same_evidence(
            cache.collect_all(probs), cold.collect_all(probs)
        )


class TestCorrectionStorm:
    def test_compaction_bounds_store_growth(self):
        rng = random.Random(3)
        dataset = ClaimDataset(
            _seed_claims(rng, n_sources=6, n_objects=8, coverage=8)
        )
        params = DependenceParams(parallel_backend="serial")
        cache = EvidenceCache(dataset, params=params, exact=True)
        cache.sync()
        store = cache._store
        keys = sorted((c.source, c.object) for c in dataset)
        for round_no in range(60):
            # The storm: the same claims corrected over and over.
            corrections = [
                Claim(source=s, object=o, value=f"v{round_no % 5}")
                for s, o in rng.sample(keys, 10)
            ]
            dataset.correct_claims(corrections)
            cache.sync()
            live = store.used - store.dead
            # The compaction hysteresis invariant: dead cells never
            # outnumber live ones (beyond the fixed trigger floor), so
            # the store stays within a constant factor of a cold build.
            assert (
                store.dead < COMPACT_MIN_DEAD
                or 2 * store.dead <= store.used
            ), f"round {round_no}"
            assert store.used <= 2 * live + 2 * COMPACT_MIN_DEAD
        probs = uniform_value_probabilities(dataset)
        cold = EvidenceCache(dataset, params=params, exact=True)
        _assert_same_evidence(
            cache.collect_all(probs), cold.collect_all(probs)
        )


class TestStreamingAndSessionSurface:
    def test_engine_ingest_accepts_batches(self, tiny_dataset):
        engine = StreamingDependenceEngine(tiny_dataset)
        delta = engine.ingest(
            MutationBatch(
                adds=(Claim(source="D", object="o2", value="u"),),
                retractions=(("C", "o1"),),
            )
        )
        assert delta.added == 1 and delta.retracted == 1
        graph = engine.discover()
        cold = StreamingDependenceEngine(tiny_dataset).discover()
        assert len(graph) == len(cold)
        for pair in cold:
            other = graph.get(pair.s1, pair.s2)
            assert other.p_independent == pair.p_independent

    def test_session_apply_and_feed_drain(self):
        claims = [
            Claim(source="A", object="o1", value="x"),
            Claim(source="B", object="o1", value="x"),
            Claim(source="C", object="o1", value="y"),
        ]
        with Session(claims=claims) as session:
            delta = session.apply(
                MutationBatch(
                    corrections=(Claim(source="C", object="o1", value="x"),)
                )
            )
            assert delta.corrected == 1
            # feed() queues; the retraction must survive until publish.
            queued = session.feed(MutationBatch(retractions=(("B", "o1"),)))
            assert queued == 1
            assert session.dirty
            snapshot = session.publish()
            assert session.dataset.value_of("B", "o1") is None
            assert snapshot.mutation_version == session.dataset.version
            assert snapshot.mutation_version == snapshot.dataset_version

    def test_feed_batches_drain_in_arrival_order(self):
        with Session(
            claims=[
                Claim(source="A", object="o1", value="x"),
                Claim(source="B", object="o1", value="x"),
            ]
        ) as session:
            # An add queued before the retraction that withdraws it:
            # arrival order makes the sequence legal.
            session.feed([Claim(source="C", object="o1", value="y")])
            session.feed(MutationBatch(retractions=(("C", "o1"),)))
            session.publish()
            assert session.dataset.value_of("C", "o1") is None


class TestTransactionalApply:
    """``apply()`` is all-or-nothing: a poison batch leaves no trace.

    The property mirrors the sync-equivalence one, but for *failed*
    batches: whatever primitive raises — a ghost retraction (first
    phase), a targetless correction (second) or a conflicting add
    (last, with every earlier phase already applied) — the dataset's
    claims, iteration order, version and mutation log are exactly what
    they were before the call, and an :class:`EvidenceCache` synced
    afterwards is bit-for-bit what a never-poisoned cache would be.
    """

    @staticmethod
    def _poisoned(clean, dataset):
        """Three variants of ``clean`` that must fail, by failing phase."""
        retracted = set(clean.retractions)
        victim = next(
            claim
            for claim in dataset
            if (claim.source, claim.object) not in retracted
        )
        ghost_retract = MutationBatch(
            adds=clean.adds,
            retractions=clean.retractions + (("__ghost__", "o000"),),
            corrections=clean.corrections,
        )
        bad_correct = MutationBatch(
            adds=clean.adds,
            retractions=clean.retractions,
            corrections=clean.corrections
            + (Claim(source="__ghost__", object="o000", value="v0"),),
        )
        dup_add = MutationBatch(
            adds=clean.adds
            + (
                Claim(
                    source=victim.source,
                    object=victim.object,
                    value="poison",
                ),
            ),
            retractions=clean.retractions,
            corrections=clean.corrections,
        )
        return (ghost_retract, bad_correct, dup_add)

    @given(seed=st.integers(0, 10**6))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_poison_batch_leaves_no_trace(self, seed):
        rng = random.Random(seed)
        dataset = ClaimDataset(_seed_claims(rng))
        cache = EvidenceCache(dataset, params=REFERENCE_PARAMS, exact=True)
        # Build some real history first, so the rollback has a live
        # mutation log and warmed evidence to corrupt.
        dataset.apply(_random_batch(rng, dataset))
        cache.sync()

        clean = _random_batch(rng, dataset)
        for poison in self._poisoned(clean, dataset):
            before_version = dataset.version
            before_log = dataset.mutations_since(0)
            before_claims = list(dataset)  # exact iteration order
            before_providers = _provider_orders(dataset)
            before_accu = Accu().discover(dataset)
            with pytest.raises(DataError):
                dataset.apply(poison)
            assert dataset.version == before_version
            assert dataset.mutations_since(0) == before_log
            assert list(dataset) == before_claims
            assert _provider_orders(dataset) == before_providers
            _assert_same_accu(Accu().discover(dataset), before_accu)

        # The cache synced over the rolled-back dataset equals a cold
        # rebuild — nothing half-applied leaked into evidence.
        cache.sync()
        probs = uniform_value_probabilities(dataset)
        cold = EvidenceCache(dataset, params=REFERENCE_PARAMS, exact=True)
        _assert_same_evidence(
            cache.collect_all(probs),
            cold.collect_all(probs),
            context="after rollback",
        )

        # And the clean batch the poison was derived from still applies.
        dataset.apply(clean)
        cache.sync()
        probs = uniform_value_probabilities(dataset)
        cold = EvidenceCache(dataset, params=REFERENCE_PARAMS, exact=True)
        _assert_same_evidence(
            cache.collect_all(probs),
            cold.collect_all(probs),
            context="clean batch after rollbacks",
        )

    def test_rollback_keeps_provider_order(self):
        """A provider set that grew and shrank keeps its iteration order
        through a rolled-back batch and through a successful batch of
        identical replays (a copy of it would not)."""
        claims = [Claim(f"s{i:03d}", "o", "v") for i in range(40)]
        claims += [
            Claim(f"s{i:03d}", "p", "w" if i % 3 else "x") for i in range(40)
        ]
        dataset = ClaimDataset(claims)
        dataset.retract_claims([(f"s{i:03d}", "o") for i in range(5, 40)])
        before_providers = _provider_orders(dataset)
        before_accu = Accu().discover(dataset)
        poison = MutationBatch(
            corrections=(Claim("s000", "o", "z"),),
            adds=(Claim("s001", "p", "poison"),),
        )
        with pytest.raises(DataError):
            dataset.apply(poison)
        assert _provider_orders(dataset) == before_providers
        _assert_same_accu(Accu().discover(dataset), before_accu)
        # A batch of identical replays succeeds, changes nothing and so
        # must not reorder anything either.
        version = dataset.version
        delta = dataset.apply(
            MutationBatch(
                corrections=(Claim("s000", "o", "v"),),
                adds=(Claim("s001", "o", "v"), Claim("s002", "p", "w")),
            )
        )
        assert delta.duplicates == 3 and dataset.version == version
        assert _provider_orders(dataset) == before_providers
        _assert_same_accu(Accu().discover(dataset), before_accu)

    def test_partial_retraction_phase_rolls_back(self, tiny_dataset):
        """The first retraction lands before the second raises — and is
        then undone."""
        batch = MutationBatch(
            retractions=(("A", "o1"), ("__ghost__", "o1"))
        )
        with pytest.raises(DataError):
            tiny_dataset.apply(batch)
        assert tiny_dataset.value_of("A", "o1") is not None

    def test_rolled_back_version_is_reusable(self, tiny_dataset):
        version = tiny_dataset.version
        with pytest.raises(DataError):
            tiny_dataset.apply(
                MutationBatch(retractions=(("__ghost__", "o1"),))
            )
        assert tiny_dataset.version == version
        delta = tiny_dataset.apply(
            MutationBatch(retractions=(("A", "o1"),))
        )
        assert delta.retracted == 1
        assert tiny_dataset.version == version + 1
