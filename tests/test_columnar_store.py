"""The columnar entry store: bit-for-bit equivalence and repair mechanics.

The contract of :mod:`repro.dependence.entrystore` behind
:class:`~repro.dependence.evidence.EvidenceCache`: the physical layout
of the agreement structure is never observable. For every model
combination, every backend, every ingest interleaving — including
in-place tombstone repair and compaction — each pair's served
``kt``/``kf``/``kd``/``shared_count`` are bit-for-bit those of the
per-pair reference walk (:func:`~repro.dependence.bayes.collect_evidence`),
and an incrementally synced cache serves exactly what a cold one does.
Also covered here: the persistent worker pool, the ``DependenceParams``
environment-override hook, and the collectors'
:class:`~repro.dependence.entrystore.PackedRecords`.
"""

from __future__ import annotations

import random

import pytest

from repro.core.claims import Claim
from repro.core.dataset import ClaimDataset
from repro.core.params import DependenceParams
from repro.dependence import entrystore
from repro.dependence.bayes import collect_evidence, uniform_value_probabilities
from repro.dependence.entrystore import ColumnarAgreeStore, PackedRecords
from repro.dependence.evidence import EvidenceCache
from repro.dependence.sharding import SweepConfig
from repro.dependence.streaming import StreamingDependenceEngine
from repro.exceptions import ParameterError

ALL_MODEL_PARAMS = [
    {"false_value_model": model, "evidence_form": form}
    for model in ("uniform", "empirical")
    for form in ("expected_log", "marginal")
]

QUIET = {"overlap_warning_bound": None}


def _random_claims(rng, n_sources=12, n_objects=40, coverage=25, n_values=3):
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


def _capped(dataset, cap):
    """The dataset as the evidence engine sees it under a provider cap:
    each object keeps only its first ``cap`` providers in sorted order."""
    if cap is None:
        return dataset
    kept = {
        obj: set(sorted(dataset.claims_about_view(obj))[:cap])
        for obj in dataset.objects
    }
    return ClaimDataset([c for c in dataset if c.source in kept[c.object]])


def _assert_matches_per_pair_walk(served, dataset, probs, cap=None):
    """Every served pair's aggregate counts equal ``collect_evidence``'s
    bit for bit, and the pair set is the co-coverage pair set."""
    reference = _capped(dataset, cap)
    assert sorted(served) == sorted(reference.co_coverage_counts(1))
    for (s1, s2), evidence in served.items():
        walk = collect_evidence(reference, s1, s2, probs)
        assert evidence.kt_soft == walk.kt_soft, (s1, s2)
        assert evidence.kf_soft == walk.kf_soft, (s1, s2)
        assert evidence.kd == walk.kd, (s1, s2)
        assert evidence.shared_count == walk.shared_count, (s1, s2)


class TestStoreUnit:
    """ColumnarAgreeStore mechanics, at the store level."""

    class Slot:
        __slots__ = ("sid", "start", "length", "cap")

        def __init__(self):
            self.sid = -1
            self.start = 0
            self.length = 0
            self.cap = 0

    def _packed(self, segments):
        store = ColumnarAgreeStore()
        slots = [self.Slot() for _ in segments]
        store.pack(zip(slots, segments))
        return store, slots

    def test_pack_and_segments(self):
        store, slots = self._packed([[3, 1, 4], [], [1, 5]])
        assert [store.segment(s).tolist() for s in slots] == [
            [3, 1, 4],
            [],
            [1, 5],
        ]
        assert store.used == 5
        assert store.dead == 0
        assert store.n_sids == 3

    def test_sums_match_sequential_reference(self):
        rng = random.Random(1)
        segments = [
            [rng.randrange(500) for _ in range(rng.randrange(0, 400))]
            for _ in range(30)
        ]
        p_values = [rng.random() for _ in range(500)]
        store, slots = self._packed(segments)
        import numpy as np

        kt, kf = store.sums(np.asarray(p_values))
        for slot, segment in zip(slots, segments):
            expected_kt = 0.0
            expected_kf = 0.0
            for eid in segment:  # the list reference: sequential
                expected_kt += p_values[eid]
                expected_kf += 1.0 - p_values[eid]
            assert kt[slot.sid] == expected_kt  # bitwise, not approx
            assert kf[slot.sid] == expected_kf

    def test_insert_uses_slack_then_relocates(self):
        store, slots = self._packed([[10, 30]])
        slot = slots[0]
        store.insert(slot, 1, 20)  # full: relocates with growth room
        assert store.segment(slot).tolist() == [10, 20, 30]
        assert slot.cap > slot.length
        assert store.dead > 0  # the tombstoned original region
        slack_before = slot.cap - slot.length
        store.insert(slot, 3, 40)  # slack available: in-place
        assert store.segment(slot).tolist() == [10, 20, 30, 40]
        assert slot.cap - slot.length == slack_before - 1

    def test_remove_and_release_tombstone(self):
        store, slots = self._packed([[1, 2, 3], [4, 5]])
        store.remove(slots[0], 1)
        assert store.segment(slots[0]).tolist() == [1, 3]
        dead_after_remove = store.dead
        assert dead_after_remove == 1
        store.release(slots[1])
        assert store.segment(slots[1]).tolist() == []
        assert store.dead == dead_after_remove + 2

    def test_compact_rebuilds_cold_layout(self):
        store, slots = self._packed([[1, 2, 3], [4, 5], [6]])
        store.remove(slots[0], 0)
        store.insert(slots[1], 0, 9)  # forces a relocation
        live = [slots[0], slots[1], slots[2]]
        assert store.compact(live).tolist() == [0, 1, 2]
        assert store.dead == 0
        assert store.used == sum(s.length for s in live)
        assert [s.sid for s in live] == [0, 1, 2]
        assert [store.segment(s).tolist() for s in live] == [
            [2, 3],
            [9, 4, 5],
            [6],
        ]

    def test_backfill_append_segment(self):
        store, _ = self._packed([[1]])
        late = self.Slot()
        store.new_sid(late)
        store.append_segment(late, [7, 8])
        assert store.segment(late).tolist() == [7, 8]
        assert store.n_sids == 2

    @staticmethod
    def _assert_live_fresh(store):
        raw_sids = store._sids[: store.used]
        mask = raw_sids >= 0
        sids, eids = store.live()
        assert sids.tolist() == raw_sids[mask].tolist()
        assert eids.tolist() == store._eids[: store.used][mask].tolist()
        assert not sids.flags.writeable and not eids.flags.writeable
        assert store.live()[0] is sids  # cached until the next mutation

    def test_live_view_dropped_by_every_mutator(self):
        import numpy as np

        store = ColumnarAgreeStore()
        slots = [self.Slot() for _ in range(4)]
        store.pack(zip(slots, [[1, 2, 3], [4, 5], [6], []]))
        self._assert_live_fresh(store)
        store.insert(slots[1], 0, 7)  # full: relocates, grows the arrays
        self._assert_live_fresh(store)
        store.insert(slots[1], 3, 8)  # into the relocated region's slack
        self._assert_live_fresh(store)
        store.remove(slots[0], 1)
        self._assert_live_fresh(store)
        store.release(slots[2])
        self._assert_live_fresh(store)
        late = self.Slot()
        store.new_sid(late)
        store.append_segment(late, [2, 9])
        self._assert_live_fresh(store)
        renumbering = store.compact([slots[0], slots[1], slots[3], late])
        assert renumbering.tolist() == [0, 1, 3, 4]
        self._assert_live_fresh(store)
        store.adopt(np.array([5, 6, 7]), np.array([0, 0, 1]), 2)
        self._assert_live_fresh(store)
        store.pack(zip(slots[:2], [[3], [1, 4]]))
        self._assert_live_fresh(store)
        assert store.live()[1].tolist() == [3, 1, 4]

    def test_maybe_compact_thresholds(self, monkeypatch):
        monkeypatch.setattr(entrystore, "COMPACT_MIN_DEAD", 1)
        store, slots = self._packed([[1, 2, 3], [4, 5]])
        assert store.maybe_compact(slots) is None  # nothing dead
        store.remove(slots[0], 0)
        assert store.maybe_compact(slots) is None  # 2*1 <= 5: not worth it
        store.remove(slots[0], 0)
        store.remove(slots[1], 0)
        # 2*3 > 5: compacts, returning each new sid's old sid
        assert store.maybe_compact(slots).tolist() == [0, 1]
        assert store.dead == 0
        assert [store.segment(s).tolist() for s in slots] == [[3], [5]]


@pytest.mark.parametrize("model", ALL_MODEL_PARAMS)
@pytest.mark.parametrize("exact", [False, True])
def test_columnar_equals_list_reference_cold(model, exact):
    """Cold builds, serial and sharded, against the per-pair list walk."""
    rng = random.Random(3)
    dataset = ClaimDataset(_random_claims(rng))
    probs = uniform_value_probabilities(dataset)
    served = {}
    for backend in ("serial", "numpy"):
        served[backend] = EvidenceCache(
            dataset,
            params=DependenceParams(
                parallel_backend=backend, **QUIET, **model
            ),
            exact=exact,
        ).collect_all(probs)
    assert served["numpy"] == served["serial"]
    _assert_matches_per_pair_walk(served["serial"], dataset, probs)


@pytest.mark.parametrize("model", ALL_MODEL_PARAMS)
def test_columnar_equals_list_reference_interleaved_ingest(model):
    """A synced cache equals a cold one and the per-pair list walk."""
    rng = random.Random(23)
    claims = _random_claims(rng)
    cap = 5  # exercise removal/retire paths
    params = DependenceParams(
        max_providers_per_object=cap, **QUIET, **model
    )
    dataset = ClaimDataset()
    cache = EvidenceCache(dataset, params=params)
    for batch in (claims[:120], claims[120:150], claims[150:230], claims[230:]):
        dataset.add_claims(batch)
        probs = uniform_value_probabilities(dataset)
        cold = EvidenceCache(ClaimDataset(list(dataset)), params=params)
        served = cache.collect_all(probs)
        assert served == cold.collect_all(probs)
        _assert_matches_per_pair_walk(served, dataset, probs, cap)


def test_compaction_under_churn_stays_equivalent():
    """In-place repair leaves tombstones; compacting mid-lifecycle must
    be invisible in served evidence."""
    rng = random.Random(5)
    claims = _random_claims(rng, n_sources=14, coverage=30)
    params = DependenceParams(
        max_providers_per_object=4,  # prefix churn drives removals
        **QUIET,
    )
    dataset = ClaimDataset()
    cache = EvidenceCache(dataset, params=params)
    saw_tombstones = False
    for batch in (claims[:200], claims[200:260], claims[260:330], claims[330:]):
        dataset.add_claims(batch)
        cache.sync()
        store = cache._store
        if store.dead > 0:
            saw_tombstones = True
            store.compact(cache._slots.values())
            assert store.dead == 0
        probs = uniform_value_probabilities(dataset)
        cold = EvidenceCache(ClaimDataset(list(dataset)), params=params)
        assert cache.collect_all(probs) == cold.collect_all(probs)
    # The cap churn above must actually have produced tombstones —
    # otherwise this test is not exercising compaction at all.
    assert saw_tombstones


def test_explicit_compact_is_invisible():
    rng = random.Random(9)
    dataset = ClaimDataset(_random_claims(rng))
    params = DependenceParams(**QUIET)
    cache = EvidenceCache(dataset, params=params)
    probs = uniform_value_probabilities(dataset)
    before = cache.collect_all(probs)
    cache._store.compact(cache._slots.values())
    cache.refresh(probs)  # sums are per-sid: re-derive after renumbering
    assert cache.collect_all(probs) == before


class TestPersistentPool:
    def _params(self, **extra):
        return DependenceParams(
            parallel_backend="process",
            num_workers=2,
            shard_size=7,
            pool="persistent",
            **QUIET,
            **extra,
        )

    def test_matches_serial_and_reuses_the_pool(self):
        rng = random.Random(11)
        dataset = ClaimDataset(_random_claims(rng))
        probs = uniform_value_probabilities(dataset)
        reference = EvidenceCache(
            dataset, params=DependenceParams(**QUIET)
        ).collect_all(probs)
        with EvidenceCache(dataset, params=self._params()) as cache:
            assert cache.collect_all(probs) == reference
            executor = cache._executor
            assert executor is not None and executor.persistent
            # The supervisor wraps the pool executor; unwrap to inspect
            # the pool lifecycle itself.
            pool_executor = executor.inner
            pool = pool_executor._pool
            assert pool is not None  # warm after the first sharded build
            cache.build()  # rebuild: same workers, no re-fork
            assert pool_executor._pool is pool
            assert cache.collect_all(probs) == reference
        assert pool_executor._pool is None  # context exit released the pool

    def test_streaming_engine_close_releases_the_pool(self):
        rng = random.Random(13)
        claims = _random_claims(rng)
        with StreamingDependenceEngine(params=self._params()) as engine:
            engine.ingest(claims[:200])
            graph = engine.discover()
            engine.ingest(claims[200:])
            engine.discover()
            reference = StreamingDependenceEngine(
                dataset=ClaimDataset(list(engine.dataset)),
                params=DependenceParams(**QUIET),
            )
            reference.ingest([])
            full = reference.discover()
            assert len(graph) <= len(full)  # graph from first batch only
            for pair in engine.graph:
                assert full.get(pair.s1, pair.s2) == pair

    def test_sweep_config_carries_pool_policy(self):
        config = SweepConfig("process", 2, pool="persistent")
        executor = config.executor()
        assert executor.persistent
        executor.close()
        with pytest.raises(ParameterError):
            SweepConfig("process", 2, pool="forever")
        with pytest.raises(ParameterError):
            DependenceParams(pool="forever")


class TestEnvOverrides:
    def test_env_replaces_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
        monkeypatch.setenv("REPRO_POOL", "persistent")
        params = DependenceParams()
        assert params.parallel_backend == "process"
        assert params.num_workers == 3
        assert params.pool == "persistent"

    def test_explicit_arguments_beat_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
        params = DependenceParams(parallel_backend="numpy", num_workers=2)
        assert params.parallel_backend == "numpy"
        assert params.num_workers == 2

    def test_invalid_env_values_fail_eagerly(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "plenty")
        with pytest.raises(ParameterError, match="REPRO_NUM_WORKERS"):
            DependenceParams()
        monkeypatch.setenv("REPRO_NUM_WORKERS", "2")
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "threads")
        with pytest.raises(ParameterError, match="parallel_backend"):
            DependenceParams()

    def test_empty_env_values_are_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "")
        assert DependenceParams().parallel_backend == "serial"

    def test_env_overridden_params_stay_bit_for_bit(self, monkeypatch):
        rng = random.Random(17)
        dataset = ClaimDataset(_random_claims(rng))
        probs = uniform_value_probabilities(dataset)
        reference = EvidenceCache(
            dataset, params=DependenceParams(**QUIET)
        ).collect_all(probs)
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        monkeypatch.setenv("REPRO_NUM_WORKERS", "2")
        cache = EvidenceCache(dataset, params=DependenceParams(**QUIET))
        assert cache.collect_all(probs) == reference


class TestPackedRecords:
    def test_segments_match_slots(self):
        slots = {
            ("a", "b"): [(1, "x"), (2, "y")],
            ("a", "c"): [],
            ("b", "c"): [(3, "z")],
        }
        packed = PackedRecords(slots)
        assert len(packed) == 3
        assert packed.total_records == 3
        for key, records in slots.items():
            assert packed.segment(key) == records
            assert packed.count(key) == len(records)
            assert key in packed
        assert packed.segment(("a", "z")) == []
        assert packed.count(("a", "z")) == 0
        assert ("a", "z") not in packed

    def test_collector_packing_is_lazy_and_build_invalidated(self):
        from repro.generators import RatingWorldConfig, generate_rating_world
        from repro.dependence.opinions import RaterPairCollector

        matrix = generate_rating_world(
            RatingWorldConfig(n_items=12), seed=3
        ).matrix
        collector = RaterPairCollector(matrix)
        first = collector.packed
        assert first is collector.packed  # cached
        for key, slot in collector._slots.items():
            assert first.segment(key) == list(slot)
        collector.build([])  # a (re)build invalidates the packing
        assert collector.packed is not first
