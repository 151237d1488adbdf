"""Batched posterior kernel: bit-for-bit equivalence with the scalar oracle.

The contract of :mod:`repro.dependence.bayes_batch`: for every evidence
model, the :class:`BatchedPosteriorEngine` produces posteriors that are
**bit-for-bit identical** to calling
:func:`~repro.dependence.bayes.pair_posterior` on the evidence the cache
serves for the same pair — all pairs or any index-selected subset,
including under streaming ingest, and end to end through ``Depen``,
``discover_dependence`` and the streaming engine's restricted
re-scoring (against the loops of ``tests/truth_oracle.py``) — plus the
hoisted accuracy validation.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.claims import Claim
from repro.core.dataset import ClaimDataset
from repro.core.params import DependenceParams, IterationParams
from repro.dependence.bayes import pair_posterior, uniform_value_probabilities
from repro.dependence.evidence import EvidenceCache
from repro.dependence.graph import discover_dependence
from repro.dependence.streaming import StreamingDependenceEngine
from repro.exceptions import DataError
from repro.truth import Depen
from truth_oracle import depen_oracle, posterior_graph

ALL_MODEL_PARAMS = [
    {"false_value_model": model, "evidence_form": form}
    for model in ("uniform", "empirical")
    for form in ("expected_log", "marginal")
]


def _params(**overrides):
    overrides.setdefault("overlap_warning_bound", None)
    return DependenceParams(**overrides)


def _random_claims(rng, n_sources=10, n_objects=30, coverage=18, n_values=3):
    claims = []
    for i in range(n_sources):
        for obj in rng.sample(range(n_objects), coverage):
            claims.append(
                Claim(
                    source=f"S{i:02d}",
                    object=f"o{obj:03d}",
                    value=f"v{rng.randrange(n_values)}",
                )
            )
    rng.shuffle(claims)
    return claims


def _random_accuracies(rng, dataset):
    return {s: rng.uniform(0.05, 0.95) for s in dataset.sources}


def _scalar_reference(cache, value_probs, accs, params):
    """The scalar path's posteriors, keyed by pair."""
    return {
        key: pair_posterior(evidence, accs[key[0]], accs[key[1]], params)
        for key, evidence in cache.collect_all(value_probs).items()
    }


def _assert_pairs_equal(batch_pairs, reference):
    assert len(batch_pairs) == len(reference)
    for pair in batch_pairs:
        ref = reference[(pair.s1, pair.s2)]
        assert pair.p_independent == ref.p_independent, (pair.s1, pair.s2)
        assert pair.p_s1_copies_s2 == ref.p_s1_copies_s2, (pair.s1, pair.s2)
        assert pair.p_s2_copies_s1 == ref.p_s2_copies_s1, (pair.s1, pair.s2)


# ---------------------------------------------------------------------------
# engine plumbing
# ---------------------------------------------------------------------------


class TestPosteriorEngine:
    def test_engine_memoized_per_params(self):
        dataset = ClaimDataset(_random_claims(random.Random(0)))
        params = _params()
        cache = EvidenceCache(dataset, params=params)
        assert cache.posterior_engine(params) is cache.posterior_engine(params)


# ---------------------------------------------------------------------------
# bit-for-bit equivalence with pair_posterior
# ---------------------------------------------------------------------------


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("model", ALL_MODEL_PARAMS)
    def test_all_pairs_bitwise(self, model):
        rng = random.Random(7)
        dataset = ClaimDataset(_random_claims(rng))
        params = _params(**model)
        cache = EvidenceCache(dataset, params=params)
        probs = uniform_value_probabilities(dataset)
        accs = _random_accuracies(rng, dataset)
        reference = _scalar_reference(cache, probs, accs, params)
        engine = cache.posterior_engine(params)
        _assert_pairs_equal(engine.posterior_pairs(accs), reference)

    @pytest.mark.parametrize("model", ALL_MODEL_PARAMS)
    def test_nonuniform_value_probs_bitwise(self, model):
        rng = random.Random(11)
        dataset = ClaimDataset(_random_claims(rng))
        params = _params(**model)
        cache = EvidenceCache(dataset, params=params)
        probs = uniform_value_probabilities(dataset)
        for by_value in probs.values():
            for value in by_value:
                by_value[value] = rng.uniform(0.01, 0.99)
        accs = _random_accuracies(rng, dataset)
        reference = _scalar_reference(cache, probs, accs, params)
        engine = cache.posterior_engine(params)
        _assert_pairs_equal(engine.posterior_pairs(accs), reference)

    def test_calibrated_pairs_bitwise(self):
        # overlap_policy="auto" with a small bound: bound-reaching pairs
        # escape to the calibrated (marginal, popularity-aware)
        # treatment while the rest stay on the fast aggregate path —
        # the batch kernel must mix both modes in one pass.
        rng = random.Random(13)
        claims = []
        for i in range(8):
            # Alternate dense and sparse sources so only dense-dense
            # pairs reach the calibration bound.
            for obj in rng.sample(range(20), 18 if i % 2 else 6):
                claims.append(
                    Claim(
                        source=f"S{i:02d}",
                        object=f"o{obj:03d}",
                        value=f"v{rng.randrange(3)}",
                    )
                )
        rng.shuffle(claims)
        dataset = ClaimDataset(claims)
        params = _params(overlap_policy="auto", overlap_warning_bound=12)
        cache = EvidenceCache(dataset, params=params)
        probs = uniform_value_probabilities(dataset)
        accs = _random_accuracies(rng, dataset)
        reference = _scalar_reference(cache, probs, accs, params)
        engine = cache.posterior_engine(params)
        engine.pair_keys()  # force static state for the mode check
        escaped = engine._escaped
        assert escaped.any() and not escaped.all()  # genuinely mixed
        _assert_pairs_equal(engine.posterior_pairs(accs), reference)

    def test_subset_selection_bitwise(self):
        rng = random.Random(17)
        dataset = ClaimDataset(_random_claims(rng))
        params = _params(evidence_form="marginal")
        cache = EvidenceCache(dataset, params=params)
        probs = uniform_value_probabilities(dataset)
        accs = _random_accuracies(rng, dataset)
        reference = _scalar_reference(cache, probs, accs, params)
        engine = cache.posterior_engine(params)
        keys = engine.pair_keys()
        subset = rng.sample(keys, len(keys) // 3)
        positions = engine.positions_of(subset)
        batch = engine.posterior_pairs(accs, positions)
        assert [(p.s1, p.s2) for p in batch] == subset
        _assert_pairs_equal(batch, {k: reference[k] for k in subset})

    @pytest.mark.parametrize("model", ALL_MODEL_PARAMS)
    def test_streaming_ingest_then_subset_bitwise(self, model):
        rng = random.Random(19)
        claims = _random_claims(rng, n_sources=8, n_objects=24, coverage=14)
        split = len(claims) // 2
        params = _params(**model)
        streaming = StreamingDependenceEngine(params=params)
        streaming.ingest(claims[:split])
        streaming.discover()
        streaming.ingest(claims[split:])
        cache = streaming.cache
        cache.sync()
        probs = uniform_value_probabilities(streaming.dataset)
        accs = _random_accuracies(rng, streaming.dataset)
        reference = _scalar_reference(cache, probs, accs, params)
        engine = cache.posterior_engine(params)
        keys = engine.pair_keys()
        assert set(keys) == set(reference)
        subset = rng.sample(keys, max(1, len(keys) // 2))
        positions = engine.positions_of(subset)
        _assert_pairs_equal(
            engine.posterior_pairs(accs, positions),
            {k: reference[k] for k in subset},
        )
        _assert_pairs_equal(engine.posterior_pairs(accs), reference)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**20),
        model=st.sampled_from(ALL_MODEL_PARAMS),
        n_sources=st.integers(3, 9),
        n_values=st.integers(1, 4),
    )
    def test_hypothesis_equivalence(self, seed, model, n_sources, n_values):
        rng = random.Random(seed)
        dataset = ClaimDataset(
            _random_claims(
                rng,
                n_sources=n_sources,
                n_objects=12,
                coverage=rng.randint(4, 12),
                n_values=n_values,
            )
        )
        params = _params(**model)
        cache = EvidenceCache(dataset, params=params)
        probs = uniform_value_probabilities(dataset)
        accs = _random_accuracies(rng, dataset)
        reference = _scalar_reference(cache, probs, accs, params)
        engine = cache.posterior_engine(params)
        _assert_pairs_equal(engine.posterior_pairs(accs), reference)


# ---------------------------------------------------------------------------
# hoisted accuracy validation
# ---------------------------------------------------------------------------


class TestHoistedValidation:
    def _engine(self, rng):
        dataset = ClaimDataset(_random_claims(rng))
        params = _params()
        cache = EvidenceCache(dataset, params=params)
        cache.refresh(uniform_value_probabilities(dataset))
        return dataset, params, cache.posterior_engine(params)

    def test_out_of_range_accuracy_matches_scalar_error(self):
        rng = random.Random(23)
        dataset, params, engine = self._engine(rng)
        accs = _random_accuracies(rng, dataset)
        # The lexicographically smallest source is s1 of its pairs, so
        # the scalar loop and the batch check name the same operand.
        accs[min(dataset.sources)] = 1.5
        with pytest.raises(DataError, match=r"a1 must be in \(0, 1\), got 1.5"):
            engine.posterior_pairs(accs)

    def test_missing_accuracy_raises_key_error_like_scalar(self):
        rng = random.Random(29)
        dataset, params, engine = self._engine(rng)
        accs = _random_accuracies(rng, dataset)
        victim = dataset.sources[0]
        del accs[victim]
        with pytest.raises(KeyError):
            engine.posterior_pairs(accs)

    def test_unrefreshed_cache_raises(self):
        dataset = ClaimDataset(_random_claims(random.Random(31)))
        params = _params()
        cache = EvidenceCache(dataset, params=params)
        engine = cache.posterior_engine(params)
        with pytest.raises(DataError, match="has not been refreshed"):
            engine.posterior_pairs({s: 0.8 for s in dataset.sources})


# ---------------------------------------------------------------------------
# end-to-end: Depen and the streaming engine vs the scalar oracle
# ---------------------------------------------------------------------------


def _results_equal(a, b):
    assert a.decisions == b.decisions
    assert a.distributions == b.distributions
    assert a.accuracies == b.accuracies
    assert a.rounds == b.rounds
    assert a.converged == b.converged
    assert len(a.trace) == len(b.trace)
    for ta, tb in zip(a.trace, b.trace):
        assert ta.round_index == tb.round_index
        assert ta.accuracy_change == tb.accuracy_change
        assert ta.decisions_changed == tb.decisions_changed


def _graphs_equal(a, b):
    keys_a = {(p.s1, p.s2): p for p in a}
    keys_b = {(p.s1, p.s2): p for p in b}
    assert set(keys_a) == set(keys_b)
    for key, pa in keys_a.items():
        pb = keys_b[key]
        assert pa.p_independent == pb.p_independent, key
        assert pa.p_s1_copies_s2 == pb.p_s1_copies_s2, key
        assert pa.p_s2_copies_s1 == pb.p_s2_copies_s1, key


class TestEndToEnd:
    @pytest.mark.parametrize("model", ALL_MODEL_PARAMS)
    def test_depen_batch_equals_scalar(self, model):
        dataset = ClaimDataset(_random_claims(random.Random(37)))
        iteration = IterationParams(max_rounds=6, fail_on_max_rounds=False)
        params = _params(**model)
        batch = Depen(params, iteration).discover(dataset)
        scalar = depen_oracle(dataset, params, iteration)
        _results_equal(batch, scalar)
        _graphs_equal(batch.dependence, scalar.dependence)

    def test_discover_dependence_batch_equals_scalar(self):
        rng = random.Random(47)
        dataset = ClaimDataset(_random_claims(rng))
        probs = uniform_value_probabilities(dataset)
        accs = _random_accuracies(rng, dataset)
        params = _params()
        batch = discover_dependence(dataset, probs, accs, params)
        scalar = posterior_graph(
            EvidenceCache(dataset, params=params), probs, accs, params
        )
        _graphs_equal(batch, scalar)

    @pytest.mark.parametrize("model", ALL_MODEL_PARAMS)
    def test_streaming_restricted_batch_equals_scalar(self, model):
        rng = random.Random(53)
        claims = _random_claims(rng, n_sources=9, n_objects=30, coverage=16)
        batches = [claims[i::3] for i in range(3)]
        params = _params(**model)
        engine = StreamingDependenceEngine(params=params)
        accs = None
        for i, batch in enumerate(batches):
            engine.ingest(batch)
            used = dict(accs) if accs is not None else engine.accuracies
            engine.discover(accuracies=accs)
            # The restricted re-score reuses posteriors; the oracle
            # re-scores every pair with the same clamped accuracies.
            clamped = {s: min(0.99, max(0.01, a)) for s, a in used.items()}
            reference = posterior_graph(
                engine.cache,
                uniform_value_probabilities(engine.dataset),
                clamped,
                params,
            )
            _graphs_equal(engine.graph, reference)
            if i == 1:
                # Perturb a few accuracies so the restricted path's
                # changed-endpoint selection is exercised.
                accs = engine.accuracies
                for s in rng.sample(sorted(accs), 3):
                    accs[s] = rng.uniform(0.2, 0.9)
        assert engine.last_discover_stats["restricted"]
