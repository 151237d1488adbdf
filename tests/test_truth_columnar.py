"""Columnar truth rounds: bit-for-bit equivalence with the dict oracle.

The contract of :mod:`repro.truth.columnar`: the array-native truth
rounds of ``Depen`` and ``Accu`` produce **bit-for-bit identical**
decisions, distributions, accuracies and round traces to the
pure-Python dict loops of ``tests/truth_oracle.py``, for every evidence
model and under interleaved streaming ingest — plus the unit
behaviour of the :class:`~repro.truth.columnar.ValueProbTable` exchange
format, the positional (probe-free) evidence-cache refresh it enables,
and DEPEN's per-round counters (every pair re-scored every round).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.claims import Claim
from repro.core.dataset import ClaimDataset
from repro.core.params import DependenceParams, IterationParams
from repro.dependence.bayes import PairDependence, uniform_value_probabilities
from repro.dependence.evidence import EvidenceCache
from repro.dependence.graph import DependenceGraph
from repro.dependence.streaming import StreamingDependenceEngine
from repro.exceptions import DataError
from repro.generators import simple_copier_world
from repro.truth import Accu, Depen, ValueProbTable
from repro.truth import columnar
from repro.truth.columnar import TruthRoundEngine, _factor_geometry
from repro.truth.voting import decide
from truth_oracle import (
    accu_oracle,
    all_discounted_vote_counts,
    depen_oracle,
    dependence_matrix,
)

ALL_MODEL_PARAMS = [
    {"false_value_model": model, "evidence_form": form}
    for model in ("uniform", "empirical")
    for form in ("expected_log", "marginal")
]


def _depen_params(**model):
    return DependenceParams(overlap_warning_bound=None, **model)


def _results_equal(a, b, *, compare_counters=False):
    """Bitwise result equality; trace counters compared only on demand."""
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
        if compare_counters:
            assert ta.pairs_rescored == tb.pairs_rescored
            assert ta.pairs_reused == tb.pairs_reused


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


# ---------------------------------------------------------------------------
# ValueProbTable units
# ---------------------------------------------------------------------------


class TestValueProbTable:
    @pytest.fixture
    def dataset(self):
        return ClaimDataset.from_table(
            {
                "o1": {"A": "x", "B": "x", "C": "y"},
                "o2": {"A": "u", "B": "v", "C": "v"},
                "o3": {"A": "w"},
            }
        )

    def test_uniform_build_matches_reference(self, dataset):
        table = ValueProbTable(dataset)
        assert table.to_dict() == uniform_value_probabilities(dataset)
        assert len(table) == 5  # (x, y), (u, v), (w)
        assert table.objects == dataset.objects

    def test_build_from_dict(self, dataset):
        probs = uniform_value_probabilities(dataset)
        probs["o1"]["x"] = 0.9
        probs["o1"]["y"] = 0.1
        table = ValueProbTable(dataset, probs)
        assert table.to_dict() == probs

    def test_slot_lookup_and_counts(self, dataset):
        table = ValueProbTable(dataset)
        slot = table.slot("o1", "x")
        assert table.slot_values[slot] == "x"
        assert table.counts[slot] == 2.0  # A and B assert x
        with pytest.raises(DataError):
            table.slot("o1", "nope")
        with pytest.raises(DataError):
            table.slot("o9", "x")

    def test_set_probs_swaps_the_array(self, dataset):
        table = ValueProbTable(dataset)
        fresh = table.probs.copy()
        fresh[table.slot("o2", "u")] = 0.75
        table.set_probs(fresh)
        assert table.version == 1
        assert table.probs.tolist() == fresh.tolist()

    def test_set_probs_validation(self, dataset):
        table = ValueProbTable(dataset)
        with pytest.raises(DataError):
            table.set_probs(np.zeros(2))


# ---------------------------------------------------------------------------
# evidence-cache consumption: positional refresh, no dict probes
# ---------------------------------------------------------------------------


class TestEvidenceCacheTableRefresh:
    @pytest.mark.parametrize("model", ALL_MODEL_PARAMS)
    def test_table_refresh_equals_dict_refresh(self, model):
        dataset = ClaimDataset(_random_claims(random.Random(3)))
        params = DependenceParams(overlap_warning_bound=None, **model)
        probs = uniform_value_probabilities(dataset)
        dict_cache = EvidenceCache(dataset, params=params)
        reference = dict_cache.collect_all(probs)
        table_cache = EvidenceCache(dataset, params=params)
        table = ValueProbTable(dataset, probs)
        assert table_cache.collect_all(table) == reference

    def test_table_refresh_after_hardened_probs(self):
        dataset = ClaimDataset(_random_claims(random.Random(4)))
        params = DependenceParams(
            false_value_model="empirical", overlap_warning_bound=None
        )
        probs = uniform_value_probabilities(dataset)
        hard = {
            obj: {
                value: (1.0 if i == 0 else 0.0)
                for i, value in enumerate(dist)
            }
            for obj, dist in probs.items()
        }
        cache_a = EvidenceCache(dataset, params=params)
        cache_b = EvidenceCache(dataset, params=params)
        assert cache_b.collect_all(
            ValueProbTable(dataset, hard)
        ) == cache_a.collect_all(hard)

    def test_foreign_dataset_rejected(self):
        dataset = ClaimDataset(_random_claims(random.Random(5)))
        other = ClaimDataset(_random_claims(random.Random(6)))
        cache = EvidenceCache(dataset, params=DependenceParams())
        with pytest.raises(DataError):
            cache.refresh(ValueProbTable(other))

    def test_stale_table_rejected_after_ingest(self):
        claims = _random_claims(random.Random(7))
        dataset = ClaimDataset(claims[:100])
        cache = EvidenceCache(dataset, params=DependenceParams())
        table = ValueProbTable(dataset)
        cache.refresh(table)  # fine while versions match
        dataset.add_claims(claims[100:])
        with pytest.raises(DataError):
            cache.refresh(table)
        # A fresh table over the grown dataset works again.
        cache.refresh(ValueProbTable(dataset))

    def test_non_table_non_dict_rejected(self):
        dataset = ClaimDataset(_random_claims(random.Random(8)))
        cache = EvidenceCache(dataset, params=DependenceParams())
        with pytest.raises(DataError):
            cache.refresh([("o1", "x", 0.5)])


# ---------------------------------------------------------------------------
# columnar rounds vs the dict oracle: deterministic worlds
# ---------------------------------------------------------------------------


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def world(self):
        dataset, _ = simple_copier_world(
            n_objects=60, n_independent=8, n_copiers=3, accuracy=0.75, seed=7
        )
        return dataset

    @pytest.mark.parametrize("model", ALL_MODEL_PARAMS)
    def test_depen_bitwise_equal(self, world, model):
        it = IterationParams(max_rounds=8)
        params = _depen_params(**model)
        dict_result = depen_oracle(world, params, it)
        col_result = Depen(params, it).discover(world)
        _results_equal(dict_result, col_result)
        # The dependence graphs agree too (same pairs, same posteriors).
        assert len(col_result.dependence) == len(dict_result.dependence)
        for pair in dict_result.dependence:
            assert col_result.dependence.get(pair.s1, pair.s2) == pair

    def test_accu_bitwise_equal(self, world):
        _results_equal(accu_oracle(world), Accu().discover(world))

    def test_accu_equal_on_paper_table(self, table1):
        _results_equal(accu_oracle(table1), Accu().discover(table1))

    def test_depen_equal_on_paper_table(self, table1):
        it = IterationParams(max_rounds=6)
        _results_equal(
            depen_oracle(table1, _depen_params(), it),
            Depen(_depen_params(), it).discover(table1),
        )

    def test_depen_reproduces_table1_corrections(self, table1):
        # The paper's worked example still lands on the right values
        # through the columnar rounds.
        result = Depen(_depen_params()).discover(table1)
        assert result.decisions["Halevy"] == "Google"
        assert result.decisions["Dalvi"] == "Yahoo!"
        assert result.decisions["Dong"] == "AT&T"


# ---------------------------------------------------------------------------
# columnar rounds vs the dict oracle: hypothesis property with ingest
# ---------------------------------------------------------------------------


@st.composite
def claim_tables(draw):
    """A random claim table plus a split point for interleaved ingest."""
    n_sources = draw(st.integers(min_value=3, max_value=8))
    n_objects = draw(st.integers(min_value=2, max_value=12))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_sources - 1),
                st.integers(0, n_objects - 1),
                st.integers(0, 2),
            ),
            min_size=6,
            max_size=70,
        )
    )
    seen = set()
    claims = []
    for source, obj, value in rows:
        if (source, obj) in seen:
            continue  # one claim per (source, object) in a snapshot
        seen.add((source, obj))
        claims.append(
            Claim(source=f"S{source}", object=f"o{obj:02d}", value=f"v{value}")
        )
    split = draw(st.integers(min_value=1, max_value=len(claims)))
    return claims, split


@given(table=claim_tables(), data=st.data())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_backend_equivalence_with_ingest(table, data):
    """Across every evidence model and interleaved streaming ingest, the
    streaming engine's DEPEN run (synced evidence cache and truth
    layout) is bit-for-bit the dict oracle's on the same dataset."""
    claims, split = table
    model = data.draw(st.sampled_from(ALL_MODEL_PARAMS))
    it = IterationParams(max_rounds=6)
    engine = StreamingDependenceEngine(params=_depen_params(**model))
    for batch in (claims[:split], claims[split:]):
        engine.ingest(batch)
        if len(engine.dataset) == 0:
            continue
        result = engine.run_truth(
            Depen(engine.params, it, min_overlap=engine.min_overlap)
        )
        reference = depen_oracle(
            engine.dataset, engine.params, it, engine.min_overlap
        )
        _results_equal(reference, result)


@given(table=claim_tables())
@settings(max_examples=25, deadline=None)
def test_property_accu_backend_equivalence(table):
    claims, _ = table
    dataset = ClaimDataset(claims)
    _results_equal(accu_oracle(dataset), Accu().discover(dataset))


# ---------------------------------------------------------------------------
# DEPEN's per-round counters: every pair re-scored every round
# ---------------------------------------------------------------------------


class TestRestrictedRescoring:
    @pytest.fixture(scope="class")
    def world(self):
        dataset, _ = simple_copier_world(
            n_objects=80, n_independent=10, n_copiers=3, accuracy=0.8, seed=11
        )
        return dataset

    def test_counters_cover_every_pair(self, world):
        it = IterationParams(max_rounds=6)
        result = Depen(_depen_params(), it).discover(world)
        n_pairs = len(result.dependence)
        assert n_pairs > 0
        for trace in result.trace:
            assert trace.pairs_rescored == n_pairs
            assert trace.pairs_reused == 0

    def test_exact_default_is_bitwise(self, world):
        it = IterationParams(max_rounds=10)
        _results_equal(
            depen_oracle(world, _depen_params(), it),
            Depen(_depen_params(), it).discover(world),
        )

    def test_streaming_surfaces_truth_stats(self, world):
        params = _depen_params()
        engine = StreamingDependenceEngine(
            dataset=ClaimDataset(list(world)), params=params
        )
        it = IterationParams(max_rounds=20, accuracy_tolerance=1e-9)
        engine.run_truth(Depen(params, it, min_overlap=engine.min_overlap))
        stats = engine.last_truth_stats
        assert stats["algorithm"] == "depen"
        assert stats["pairs_rescored"] == stats["rounds"] * len(engine.cache)
        assert stats["pairs_reused"] == 0


# ---------------------------------------------------------------------------
# DEPEN vote kernel: run-static factor geometry
# ---------------------------------------------------------------------------


def _wide_group_world(seed, n_sources=60, n_objects=8):
    """Every source claims every object; the majority value's slot group
    holds >= 40 providers."""
    rng = random.Random(seed)
    claims = [
        Claim(
            source=f"S{i:02d}",
            object=f"o{obj}",
            value="v0" if rng.random() < 0.8 else f"v{rng.randrange(1, 3)}",
        )
        for i in range(n_sources)
        for obj in range(n_objects)
    ]
    rng.shuffle(claims)
    return ClaimDataset(claims), rng


def _random_graph(rng, sources, share=0.3):
    graph = DependenceGraph()
    for i, a in enumerate(sources):
        for b in sources[i + 1 :]:
            if rng.random() < share:
                p12, p21 = rng.random() * 0.5, rng.random() * 0.5
                graph.add(PairDependence(a, b, 1.0 - p12 - p21, p12, p21))
    return graph


class TestDepenVoteKernel:
    def test_factor_geometry_of_small_groups(self):
        later, pair_j, pair_i, seg = _factor_geometry(np.array([0, 1, 4, 6]))
        assert later.tolist() == [2, 3, 5]
        assert pair_j.tolist() == [2, 3, 3, 5]
        assert pair_i.tolist() == [1, 1, 2, 4]
        assert seg.tolist() == [0, 1, 3]

    def test_depen_counts_equal_dict_path_across_rankings(self):
        dataset, rng = _wide_group_world(31)
        engine = TruthRoundEngine(dataset)
        layout = engine.table.layout
        sources = engine.sources
        assert max(np.diff(layout.slot_starts).tolist()) >= 40
        levels = (0.55, 0.7, 0.85)  # tied accuracies: ties break by source
        rankings = [{s: rng.choice(levels) for s in sources} for _ in range(4)]
        rankings.insert(3, rankings[0])  # the ranking changes back
        for accs in rankings:
            clamped = np.array([accs[s] for s in sources])
            scores = engine.scores(clamped, 3)
            graph = _random_graph(rng, sources)
            counts = engine.depen_counts(
                scores, dependence_matrix(graph, sources), 0.8, clamped
            )
            reference = all_discounted_vote_counts(
                dataset,
                dict(zip(sources, scores.tolist())),
                graph,
                0.8,
                accs,
            )
            for obj, by_value in reference.items():
                for value, count in by_value.items():
                    assert counts[layout.slot(obj, value)] == count  # bitwise

    def test_geometry_built_once_per_engine(self, monkeypatch):
        calls = []

        def counted(slot_starts):
            calls.append(1)
            return _factor_geometry(slot_starts)

        monkeypatch.setattr(columnar, "_factor_geometry", counted)
        dataset, rng = _wide_group_world(32)
        engine = TruthRoundEngine(dataset)
        sources = engine.sources
        dep = dependence_matrix(_random_graph(rng, sources), sources)
        rankings = set()
        for _ in range(5):
            clamped = np.array([rng.random() * 0.5 + 0.4 for _ in sources])
            rankings.add(tuple(np.argsort(-clamped, kind="stable").tolist()))
            engine.depen_counts(engine.scores(clamped, 3), dep, 0.8, clamped)
        assert len(rankings) == 5 and len(calls) == 1
        # A whole DEPEN run builds it once, however many rounds it takes.
        calls.clear()
        result = Depen(
            _depen_params(), IterationParams(max_rounds=6)
        ).discover(dataset)
        assert result.rounds > 1 and len(calls) == 1
        # ACCU never discounts, so it never builds it.
        calls.clear()
        Accu().discover(dataset)
        assert calls == []

    def test_multi_tie_decisions_match_dict_path(self):
        rng = random.Random(33)
        claims = [
            Claim(f"S{i:02d}", f"o{obj:02d}", f"v{rng.randrange(4)}")
            for i in range(6)
            for obj in range(40)
        ]
        dataset = ClaimDataset(claims)
        engine = TruthRoundEngine(dataset)
        table = engine.table
        for _ in range(5):
            # Few count levels: most objects tie two or more values.
            counts = np.array([float(rng.randrange(3)) for _ in range(len(table))])
            winners, _ = engine.decide_and_distributions(counts)
            for row, obj in enumerate(table.objects):
                lo, hi = int(table.bounds[row]), int(table.bounds[row + 1])
                by_value = dict(zip(table.slot_values[lo:hi], counts[lo:hi]))
                assert table.slot_values[winners[row]] == decide(by_value)
