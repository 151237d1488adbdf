"""Worker-count invariance of the sharded parallel evidence sweep.

The contract of :mod:`repro.dependence.sharding` and the executors in
:mod:`repro.exec`: for every backend (``serial``, ``numpy``,
``process``, ``resident``) and every worker count, the structural pass
produces **bit-for-bit identical** results — evidence, candidate
pairs, co-coverage counts, cap truncations, and the dependence
posteriors scored from them — across all three modalities (snapshot,
temporal, opinions), including after interleaved streaming ingest.
These tests pin exactly that, with deterministic worlds and a
hypothesis property over random claim tables, plus the deterministic
shard-planning and restricted-rescoring behaviour the streaming engine
builds on, the resident pool's delta shipping and crash recovery, and
the owned-vs-borrowed executor lifecycle.
"""

from __future__ import annotations

import logging
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.claims import Claim
from repro.core.dataset import ClaimDataset
from repro.core.params import DependenceParams, IterationParams
from repro.dependence.bayes import collect_evidence, uniform_value_probabilities
from repro.dependence.evidence import EvidenceCache
from repro.dependence.opinions import (
    RaterPairCollector,
    discover_rater_dependence,
)
from repro.dependence.sharding import (
    ShardPlanner,
    SweepConfig,
)
from repro.dependence.streaming import StreamingDependenceEngine
from repro.dependence.temporal import (
    CoAdoptionCollector,
    discover_temporal_dependence,
)
from repro.exceptions import ParameterError
from repro.generators import (
    RatingWorldConfig,
    TemporalConfig,
    TemporalCopierSpec,
    TemporalSourceSpec,
    generate_rating_world,
    generate_temporal_world,
    simple_copier_world,
)
from repro.truth import Depen

WORKER_COUNTS = (1, 2, 4)

#: Backends whose builds fan out over shards (everything but serial).
SHARDED_BACKENDS = ("numpy", "process", "resident")

ALL_MODEL_PARAMS = [
    {"false_value_model": model, "evidence_form": form}
    for model in ("uniform", "empirical")
    for form in ("expected_log", "marginal")
]


def _parallel(backend, num_workers=2, shard_size=7, **model):
    return DependenceParams(
        parallel_backend=backend,
        num_workers=num_workers,
        shard_size=shard_size,
        **model,
    )


def _graphs_equal(g1, g2):
    assert len(g1) == len(g2)
    for pair in g1:
        other = g2.get(pair.s1, pair.s2)
        assert other == pair, (pair.s1, pair.s2)


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


class TestShardPlanner:
    def test_plan_covers_items_contiguously(self):
        items = [f"o{i:03d}" for i in range(100)]
        plan = ShardPlanner(shard_size=17).plan(items)
        assert plan.n_shards == 6
        covered = [i for start, end in plan.ranges() for i in range(start, end)]
        assert covered == list(range(100))

    def test_plan_is_deterministic_and_size_driven(self):
        items = [f"o{i:03d}" for i in range(50)]
        p1 = ShardPlanner(num_workers=2, shard_size=10).plan(items)
        p2 = ShardPlanner(num_workers=4, shard_size=10).plan(items)
        assert p1 == p2  # explicit size: worker count never moves a boundary

    def test_derived_size_scales_with_workers(self):
        planner = ShardPlanner(num_workers=2)
        assert planner.resolve_size(8_000) == 1_000
        assert planner.resolve_size(10) == 32  # floor: no confetti shards

    def test_routing_matches_ranges_and_handles_new_items(self):
        items = [f"o{i:03d}" for i in range(40)]
        plan = ShardPlanner(shard_size=10).plan(items)
        for start, end in plan.ranges():
            for idx in range(start, end):
                assert plan.shard_of(items[idx]) == start // 10
        # An item that sorts before everything routes to shard 0; one
        # past the end routes to the last shard.
        assert plan.shard_of("o000") == 0
        assert plan.shard_of("a") == 0
        assert plan.shard_of("z") == plan.n_shards - 1
        routed = plan.route(["z", "o015", "a", "o035"])
        assert routed == {0: ["a"], 1: ["o015"], 3: ["o035", "z"]}

    def test_empty_plan(self):
        plan = ShardPlanner().plan([])
        assert plan.n_shards == 0
        assert plan.ranges() == []
        assert plan.shard_of("anything") == 0

    def test_validation(self):
        with pytest.raises(ParameterError):
            ShardPlanner(num_workers=0)
        with pytest.raises(ParameterError):
            ShardPlanner(shard_size=0)
        with pytest.raises(ParameterError):
            SweepConfig(backend="threads")
        with pytest.raises(ParameterError):
            DependenceParams(parallel_backend="threads")
        with pytest.raises(ParameterError):
            DependenceParams(num_workers=0)
        with pytest.raises(ParameterError):
            DependenceParams(shard_size=0)


@pytest.fixture(scope="module")
def snapshot_world():
    dataset, _ = simple_copier_world(
        n_objects=80, n_independent=12, n_copiers=4, accuracy=0.8, seed=17
    )
    return dataset


class TestSnapshotInvariance:
    """EvidenceCache: sharded backends == serial, bit for bit."""

    @pytest.mark.parametrize("model", ALL_MODEL_PARAMS)
    def test_cold_build_matches_serial(self, snapshot_world, model):
        dataset = snapshot_world
        probs = uniform_value_probabilities(dataset)
        serial = EvidenceCache(dataset, params=DependenceParams(**model))
        reference = serial.collect_all(probs)
        # The per-pair walk is the root reference; the serial build must
        # already match its aggregate counts bit for bit.
        for (s1, s2), evidence in reference.items():
            walk = collect_evidence(dataset, s1, s2, probs)
            assert (
                evidence.kt_soft,
                evidence.kf_soft,
                evidence.kd,
                evidence.shared_count,
            ) == (walk.kt_soft, walk.kf_soft, walk.kd, walk.shared_count)
        for backend in SHARDED_BACKENDS:
            for workers in WORKER_COUNTS:
                cache = EvidenceCache(
                    dataset, params=_parallel(backend, workers, 13, **model)
                )
                assert cache.pairs == serial.pairs
                assert cache.collect_all(probs) == reference
                cache.close()

    def test_exact_mode_matches_serial(self, snapshot_world):
        probs = uniform_value_probabilities(snapshot_world)
        reference = EvidenceCache(
            snapshot_world, params=DependenceParams(), exact=True
        ).collect_all(probs)
        for backend in SHARDED_BACKENDS:
            cache = EvidenceCache(
                snapshot_world, params=_parallel(backend), exact=True
            )
            assert cache.collect_all(probs) == reference
            cache.close()

    def test_min_overlap_and_co_counts_match(self, snapshot_world):
        probs = uniform_value_probabilities(snapshot_world)
        for min_overlap in (1, 10, 40):
            serial = EvidenceCache(
                snapshot_world, params=DependenceParams(), min_overlap=min_overlap
            )
            for backend in SHARDED_BACKENDS:
                cache = EvidenceCache(
                    snapshot_world,
                    params=_parallel(backend),
                    min_overlap=min_overlap,
                )
                assert cache.pairs == serial.pairs
                assert cache._co_counts == serial._co_counts
                assert cache.collect_all(probs) == serial.collect_all(probs)
                cache.close()

    def test_fixed_candidate_pairs_match(self, snapshot_world):
        sources = snapshot_world.sources
        fixed = [
            (sources[0], sources[1]),
            (sources[5], sources[2]),
            (sources[3], "never-seen"),
        ]
        probs = uniform_value_probabilities(snapshot_world)
        reference = EvidenceCache(snapshot_world, fixed).collect_all(probs)
        for backend in SHARDED_BACKENDS:
            cache = EvidenceCache(
                snapshot_world, fixed, params=_parallel(backend)
            )
            assert cache.collect_all(probs) == reference
            cache.close()

    def test_hot_object_cap_and_truncations_match(self, snapshot_world):
        probs = uniform_value_probabilities(snapshot_world)
        serial = EvidenceCache(
            snapshot_world,
            params=DependenceParams(max_providers_per_object=6),
        )
        reference = serial.collect_all(probs)
        for backend in SHARDED_BACKENDS:
            params = _parallel(backend, 3, 11, max_providers_per_object=6)
            cache = EvidenceCache(snapshot_world, params=params)
            assert cache.collect_all(probs) == reference
            assert dict(cache.truncated_objects) == dict(
                serial.truncated_objects
            )
            cache.close()

    @pytest.mark.parametrize("model", ALL_MODEL_PARAMS)
    def test_interleaved_ingest_matches_cold_serial_rebuild(self, model):
        rng = random.Random(23)
        claims = _random_claims(rng, n_sources=12, n_objects=40)
        batches = [claims[:150], claims[150:170], claims[170:]]
        caches = {
            (backend, workers): EvidenceCache(
                ClaimDataset(),
                params=_parallel(backend, workers, 9, **model),
            )
            for backend in ("process", "resident")
            for workers in WORKER_COUNTS
        }
        datasets = {key: cache.dataset for key, cache in caches.items()}
        first = ("process", 1)
        for batch in batches:
            for key, cache in caches.items():
                datasets[key].add_claims(batch)
                cache.sync()
            probs = uniform_value_probabilities(datasets[first])
            cold = EvidenceCache(
                ClaimDataset(list(datasets[first])),
                params=DependenceParams(**model),
            )
            reference = cold.collect_all(
                uniform_value_probabilities(cold.dataset)
            )
            for key, cache in caches.items():
                assert cache.collect_all(probs) == reference, key
        for cache in caches.values():
            cache.close()

    def test_sync_reports_shard_routing(self):
        rng = random.Random(5)
        claims = _random_claims(rng, n_sources=14, coverage=25)
        cache = EvidenceCache(
            ClaimDataset(claims[:250]), params=_parallel("numpy", 1, 8)
        )
        assert cache.shard_plan is not None
        assert cache.shard_plan.n_shards > 1
        cache.dataset.add_claims(claims[250:])
        cache.sync()
        routing = cache.last_sync_routing
        assert routing  # some shard was repaired
        assert sum(routing.values()) > 0
        assert all(
            0 <= shard < cache.shard_plan.n_shards for shard in routing
        )

    def test_depen_end_to_end_matches_serial(self, snapshot_world):
        iteration = IterationParams(max_rounds=3)
        reference = Depen(DependenceParams(), iteration).discover(snapshot_world)
        for backend in SHARDED_BACKENDS:
            result = Depen(_parallel(backend), iteration).discover(
                snapshot_world
            )
            assert result.decisions == reference.decisions
            assert result.accuracies == reference.accuracies
            _graphs_equal(result.dependence, reference.dependence)


class TestCollectorSharding:
    """Temporal and opinion collectors under the generic sharded sweep."""

    @pytest.fixture(scope="class")
    def temporal_world(self):
        config = TemporalConfig(
            n_objects=24,
            sources=[TemporalSourceSpec(f"T{i}") for i in range(6)],
            copiers=[TemporalCopierSpec("C0", "T0")],
        )
        dataset, _ = generate_temporal_world(config, seed=11)
        return dataset

    @pytest.fixture(scope="class")
    def rating_world(self):
        return generate_rating_world(RatingWorldConfig(n_items=30), seed=9)

    def test_temporal_collector_matches_serial(self, temporal_world):
        serial = CoAdoptionCollector(temporal_world)
        for backend in ("process", "resident"):
            for workers in WORKER_COUNTS:
                sweep = SweepConfig(backend, workers, shard_size=5)
                sharded = CoAdoptionCollector(temporal_world, sweep=sweep)
                assert sharded.pairs == serial.pairs
                assert sharded._slots == serial._slots

    def test_temporal_discovery_matches_serial(self, temporal_world):
        reference = discover_temporal_dependence(temporal_world)
        for workers in (2, 4):
            graph = discover_temporal_dependence(
                temporal_world,
                sweep=SweepConfig("process", workers, shard_size=5),
            )
            _graphs_equal(graph, reference)

    def test_rater_collector_matches_serial(self, rating_world):
        matrix = rating_world.matrix
        serial = RaterPairCollector(matrix)
        for backend in ("process", "resident"):
            for workers in WORKER_COUNTS:
                sweep = SweepConfig(backend, workers, shard_size=4)
                sharded = RaterPairCollector(matrix, sweep=sweep)
                assert sharded.pairs == serial.pairs
                assert sharded._slots == serial._slots

    def test_rater_discovery_matches_serial(self, rating_world):
        matrix = rating_world.matrix
        reference = discover_rater_dependence(matrix)
        for workers in (2, 4):
            result = discover_rater_dependence(
                matrix, sweep=SweepConfig("process", workers, shard_size=4)
            )
            assert len(result) == len(reference)
            for pair in reference:
                assert result.get(pair.r1, pair.r2) == pair

    def test_rater_cap_truncations_absorbed_from_workers(self, rating_world):
        matrix = rating_world.matrix
        serial = RaterPairCollector(matrix, max_raters_per_item=4)
        sharded = RaterPairCollector(
            matrix,
            max_raters_per_item=4,
            sweep=SweepConfig("process", 2, shard_size=4),
        )
        assert dict(sharded.truncated_items) == dict(serial.truncated_items)
        assert sharded._slots == serial._slots

    def test_sharded_cap_warns_once_per_item(self, rating_world, caplog):
        matrix = rating_world.matrix
        with caplog.at_level(logging.WARNING, logger="repro.dependence"):
            sharded = RaterPairCollector(
                matrix,
                max_raters_per_item=4,
                sweep=SweepConfig("process", 2, shard_size=4),
            )
        warned = [
            record
            for record in caplog.records
            if "hot-item guard" in record.getMessage()
        ]
        # One authoritative parent-side warning per truncated item —
        # never zero (silent) and never duplicated by worker logging.
        assert len(warned) == len(sharded.truncated_items)
        assert len(sharded.truncated_items) > 0

    def test_serial_sweep_config_is_the_serial_path(self, rating_world):
        matrix = rating_world.matrix
        serial = RaterPairCollector(matrix)
        config = RaterPairCollector(matrix, sweep=SweepConfig("serial"))
        assert config._slots == serial._slots


class TestStreamingRestrictedDiscover:
    """discover() re-scores only pairs that can have moved — exactly."""

    def _engine_and_batches(self, backend="serial"):
        rng = random.Random(41)
        claims = _random_claims(rng, n_sources=12, n_objects=40)
        params = (
            DependenceParams()
            if backend == "serial"
            else _parallel(backend, 2, 9)
        )
        engine = StreamingDependenceEngine(params=params)
        return engine, [claims[:150], claims[150:180], claims[180:]]

    def test_restriction_reuses_untouched_pairs(self):
        engine, batches = self._engine_and_batches()
        engine.ingest(batches[0])
        engine.discover()
        first = engine.last_discover_stats
        assert first["restricted"] is False
        assert first["rescored"] == first["pairs"]
        engine.ingest(batches[1])
        engine.discover()
        stats = engine.last_discover_stats
        assert stats["restricted"] is True
        assert stats["reused"] > 0
        assert stats["rescored"] < stats["pairs"]
        assert stats["rescored"] + stats["reused"] == stats["pairs"]

    @pytest.mark.parametrize("backend", ["serial", "process", "resident"])
    def test_restricted_equals_full_bit_for_bit(self, backend):
        engine, batches = self._engine_and_batches(backend)
        for batch in batches:
            engine.ingest(batch)
            graph = engine.discover()
            fresh = StreamingDependenceEngine(
                dataset=ClaimDataset(list(engine.dataset))
            )
            _graphs_equal(graph, fresh.discover())
        engine.close()

    def test_no_change_rescores_nothing(self):
        engine, batches = self._engine_and_batches()
        engine.ingest(batches[0])
        g1 = engine.discover()
        g2 = engine.discover()
        stats = engine.last_discover_stats
        assert stats["restricted"] is True
        assert stats["rescored"] == 0
        assert stats["reused"] == stats["pairs"]
        _graphs_equal(g1, g2)

    def test_accuracy_change_rescores_only_that_sources_pairs(self):
        engine, batches = self._engine_and_batches()
        engine.ingest(batches[0])
        engine.discover()
        accs = engine.accuracies
        accs["S00"] = 0.55
        graph = engine.discover(accuracies=accs)
        stats = engine.last_discover_stats
        expected = sum(1 for s1, s2 in engine.cache if "S00" in (s1, s2))
        assert stats["restricted"] is True
        assert stats["rescored"] == expected
        fresh = StreamingDependenceEngine(
            dataset=ClaimDataset(list(engine.dataset))
        )
        _graphs_equal(graph, fresh.discover(accuracies=accs))

    def test_failed_discover_does_not_lose_invalidations(self):
        engine, batches = self._engine_and_batches()
        engine.ingest(batches[0])
        engine.discover()
        engine.ingest(batches[1])
        bad = engine.accuracies
        bad.pop(batches[1][0].source)  # a source with freshly dirty pairs
        with pytest.raises(KeyError):
            engine.discover(accuracies=bad)
        # The failed discover must not have consumed the dirty set: the
        # retry still re-scores the ingested batch's pairs and matches a
        # cold full pass exactly.
        graph = engine.discover()
        fresh = StreamingDependenceEngine(
            dataset=ClaimDataset(list(engine.dataset))
        )
        _graphs_equal(graph, fresh.discover())

    def test_explicit_value_probs_force_full_rescore(self):
        engine, batches = self._engine_and_batches()
        engine.ingest(batches[0])
        engine.discover()
        probs = uniform_value_probabilities(engine.dataset)
        engine.discover(value_probs=probs)
        assert engine.last_discover_stats["restricted"] is False
        # ... and the explicit-probs graph is not reused as a baseline.
        engine.discover(value_probs=probs)
        assert engine.last_discover_stats["restricted"] is False

    def test_run_truth_invalidates_the_reuse_baseline(self):
        engine, batches = self._engine_and_batches()
        engine.ingest(batches[0])
        engine.discover()
        engine.run_truth()
        engine.discover()
        assert engine.last_discover_stats["restricted"] is False
        engine.discover()
        assert engine.last_discover_stats["restricted"] is True


class TestResidentPool:
    """The resident executor: delta shipping, warm builds, crash repair."""

    def _cache(self, claims, workers=2, shard_size=13):
        dataset = ClaimDataset(claims)
        return EvidenceCache(
            dataset, params=_parallel("resident", workers, shard_size)
        )

    def _world_claims(self, n_objects=120, seed=3):
        dataset, _ = simple_copier_world(
            n_objects=n_objects,
            n_independent=8,
            n_copiers=3,
            accuracy=0.8,
            seed=seed,
        )
        return list(dataset)

    def test_sync_ships_deltas_not_state(self):
        """≤10% dirty objects must cut shipped bytes by ≥5x vs a full
        state ship — the point of keeping records worker-resident."""
        cache = self._cache(self._world_claims())
        full = cache.last_build_shipped_bytes
        assert full > 0
        n_objects = len(cache.dataset.objects)
        new_objs = [f"zzz-{i:02d}" for i in range(6)]
        assert len(new_objs) <= 0.10 * n_objects
        cache.dataset.add_claims(
            [
                Claim(src, obj, f"v-{obj}")
                for obj in new_objs
                for src in ("ind00", "ind01")
            ]
        )
        cache.sync()
        delta = cache.last_sync_shipped_bytes
        assert 0 < delta * 5 <= full, (delta, full)
        # ... and the repaired cache is bit-for-bit a cold rebuild.
        cold = EvidenceCache(
            ClaimDataset(list(cache.dataset)), params=DependenceParams()
        )
        probs = uniform_value_probabilities(cache.dataset)
        assert cache.collect_all(probs) == cold.collect_all(probs)
        cache.close()

    def test_warm_rebuild_ships_no_shard_state(self):
        cache = self._cache(self._world_claims())
        cold = cache.last_build_shipped_bytes
        cache.build()  # dataset unchanged: workers already hold the rows
        assert cache.last_build_shipped_bytes < cold / 5
        probs = uniform_value_probabilities(cache.dataset)
        reference = EvidenceCache(
            ClaimDataset(list(cache.dataset)), params=DependenceParams()
        )
        assert cache.collect_all(probs) == reference.collect_all(probs)
        cache.close()

    def test_new_source_rearms_residency(self):
        cache = self._cache(self._world_claims())
        cache.dataset.add_claims(
            [
                Claim("brand-new", obj, f"v-{obj}")
                for obj in cache.dataset.objects[:30]
            ]
        )
        cache.sync()
        probs = uniform_value_probabilities(cache.dataset)
        cold = EvidenceCache(
            ClaimDataset(list(cache.dataset)), params=DependenceParams()
        )
        assert cache.collect_all(probs) == cold.collect_all(probs)
        # Residency survived the re-arm: the next sync is deltas again.
        cache.dataset.add_claims(
            [Claim(s, "yyy-0", "w") for s in ("ind00", "ind01")]
        )
        cache.sync()
        assert (
            0
            < cache.last_sync_shipped_bytes * 5
            <= cache.last_build_shipped_bytes
        )
        cache.close()

    def test_worker_crash_mid_stream_rebuilds_resident_state(self):
        """SIGKILL one pinned worker; the next sync's delta send finds
        the corpse, re-ships the lost shards' state onto a respawned
        worker, and the repaired cache equals a cold rebuild bit for
        bit."""
        import os
        import signal
        import time

        cache = self._cache(self._world_claims())
        pids = cache.executor.worker_pids()
        assert len(pids) == 2
        os.kill(pids[0], signal.SIGKILL)
        time.sleep(0.1)
        cache.dataset.add_claims(
            [
                Claim(src, f"crash-{i}", f"w-{i}")
                for i in range(4)
                for src in ("ind02", "ind03")
            ]
        )
        cache.sync()
        probs = uniform_value_probabilities(cache.dataset)
        cold = EvidenceCache(
            ClaimDataset(list(cache.dataset)), params=DependenceParams()
        )
        assert cache.collect_all(probs) == cold.collect_all(probs)
        # The replacement worker is live and distinct from the corpse.
        new_pids = cache.executor.worker_pids()
        assert pids[0] not in new_pids
        cache.close()


class TestExecutorLifecycle:
    """Owned vs borrowed executors, idempotent close, no stray pools."""

    def _claims(self):
        rng = random.Random(17)
        return _random_claims(rng, n_sources=10, n_objects=40)

    @staticmethod
    def _alive(pid):
        import os

        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    def test_owned_executor_closed_with_cache(self):
        cache = EvidenceCache(
            ClaimDataset(self._claims()), params=_parallel("resident", 2, 9)
        )
        assert cache.owns_executor
        pids = cache.executor.worker_pids()
        assert all(self._alive(pid) for pid in pids)
        cache.close()
        cache.close()  # idempotent
        assert cache.executor is None
        assert not any(self._alive(pid) for pid in pids)

    def test_borrowed_executor_survives_cache_close(self):
        from repro.exec import make_executor

        executor = make_executor("resident", 2)
        try:
            cache = EvidenceCache(
                ClaimDataset(self._claims()),
                params=_parallel("resident", 2, 9),
                executor=executor,
            )
            assert not cache.owns_executor
            pids = executor.worker_pids()
            cache.close()
            assert not executor.closed
            assert all(self._alive(pid) for pid in pids)
            # The borrowed executor still serves the next build.
            cache2 = EvidenceCache(
                ClaimDataset(self._claims()),
                params=_parallel("resident", 2, 9),
                executor=executor,
            )
            probs = uniform_value_probabilities(cache2.dataset)
            reference = EvidenceCache(
                ClaimDataset(self._claims()), params=DependenceParams()
            )
            assert cache2.collect_all(probs) == reference.collect_all(probs)
            cache2.close()
        finally:
            executor.close()
        assert executor.closed
        assert not any(self._alive(pid) for pid in pids)

    def test_streaming_exit_leaves_no_live_pool(self):
        pids = []
        with StreamingDependenceEngine(
            params=_parallel("resident", 2, 9)
        ) as engine:
            engine.ingest(self._claims())
            engine.discover()
            pids = engine.cache.executor.worker_pids()
            assert pids and all(self._alive(pid) for pid in pids)
        assert not any(self._alive(pid) for pid in pids)

    def test_serial_and_pool_executor_close_idempotent(self):
        from repro.exec import make_executor

        for backend in ("serial", "process"):
            executor = make_executor(backend, 2, persistent=True)
            executor.run("evidence.sweep_shard", [])
            executor.close()
            executor.close()
            assert executor.closed

    @staticmethod
    def _spawn_resident_workers(executor):
        """Workers spawn lazily; adopt an empty shard on each to start
        them, and return their pids."""
        empty = {"objs": [], "src": [], "entry": [], "n_sources": 0}
        executor.run_shards("resident.adopt", {0: dict(empty), 1: dict(empty)})
        return executor.worker_pids()

    def test_resident_terminate_kills_workers_without_handshake(self):
        from repro.exec import make_executor

        executor = make_executor("resident", 2)
        pids = self._spawn_resident_workers(executor)
        assert len(pids) == 2
        assert all(self._alive(pid) for pid in pids)
        executor.terminate()
        assert executor.closed
        # terminate() reaps as it kills: no zombies left behind (a
        # reaped pid no longer accepts signal 0).
        assert not any(self._alive(pid) for pid in pids)
        executor.close()  # idempotent after terminate

    def test_close_escalates_to_kill_for_wedged_worker(self):
        import os
        import signal

        from repro.exec import make_executor

        executor = make_executor("resident", 2)
        executor._teardown_grace = 0.1
        pids = self._spawn_resident_workers(executor)
        assert len(pids) == 2
        # SIGSTOP wedges the worker: it will never drain its pipe or
        # honour the shutdown sentinel, and SIGTERM stays pending — only
        # the final SIGKILL escalation can end it.
        os.kill(pids[0], signal.SIGSTOP)
        executor.close()
        assert not any(self._alive(pid) for pid in pids)

    def test_pool_terminate_kills_workers(self):
        from repro.exec import make_executor

        executor = make_executor("process", 2, persistent=True)
        assert executor.run(len, [[1], [2, 3]]) == [1, 2]
        processes = list(executor._pool._processes.values())
        assert processes and all(p.is_alive() for p in processes)
        executor.terminate()
        for process in processes:
            process.join(5)
        assert not any(process.is_alive() for process in processes)

    def test_capabilities_are_declared(self):
        from repro.exec import make_executor

        serial = make_executor("serial")
        pool = make_executor("process", 2)
        resident = make_executor("resident", 2)
        try:
            assert serial.capabilities.resident_state
            assert not pool.capabilities.resident_state
            assert pool.capabilities.serialization == "pickle"
            assert resident.capabilities.resident_state
            assert resident.capabilities.serialization == "pickle"
        finally:
            for executor in (serial, pool, resident):
                executor.close()


# ----------------------------------------------------------------------
# property: worker-count invariance over arbitrary claim tables
# ----------------------------------------------------------------------


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
            min_size=5,
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
    split = draw(st.integers(min_value=0, max_value=len(claims)))
    return claims, split


@given(table=claim_tables())
@settings(max_examples=30, deadline=None)
def test_property_numpy_backend_invariance(table):
    claims, _ = table
    dataset = ClaimDataset(claims)
    probs = uniform_value_probabilities(dataset)
    serial = EvidenceCache(dataset, params=DependenceParams())
    reference = serial.collect_all(probs)
    cache = EvidenceCache(dataset, params=_parallel("numpy", 1, 3))
    assert cache.pairs == serial.pairs
    assert cache.collect_all(probs) == reference


@given(table=claim_tables())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_worker_count_invariance_with_ingest(table):
    """Every execution policy — num_workers ∈ {1, 2, 4}, the in-process
    numpy backend, the persistent worker pool, the resident pool, and
    the columnar entry store behind them all — serves the same cache
    contents and posteriors as the pure-Python list-store reference,
    before and after interleaved streaming ingest."""
    claims, split = table
    engines = {
        f"{backend}-{workers}": StreamingDependenceEngine(
            params=_parallel(backend, workers, 3)
        )
        for backend in ("process", "resident")
        for workers in WORKER_COUNTS
    }
    engines["numpy"] = StreamingDependenceEngine(
        params=_parallel("numpy", 1, 3)
    )
    engines["persistent-pool"] = StreamingDependenceEngine(
        params=_parallel("process", 2, 3, pool="persistent")
    )
    # The reference: the serial backend, which every sharded and
    # vectorised path must reproduce bit for bit.
    serial_engine = StreamingDependenceEngine(params=DependenceParams())
    try:
        for batch in (claims[:split], claims[split:]):
            serial_engine.ingest(batch)
            for engine in engines.values():
                engine.ingest(batch)
            if len(serial_engine.dataset) == 0:
                continue
            reference_graph = serial_engine.discover()
            probs = uniform_value_probabilities(serial_engine.dataset)
            reference = serial_engine.cache.collect_all(probs)
            for label, engine in engines.items():
                assert engine.cache.pairs == serial_engine.cache.pairs, label
                assert engine.cache.collect_all(probs) == reference, label
                _graphs_equal(engine.discover(), reference_graph)
    finally:
        for engine in engines.values():
            engine.close()


@given(data=st.data())
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_temporal_and_opinion_invariance(data):
    """The other two modalities: sharded sweeps match serial for
    num_workers ∈ {1, 2, 4} on randomised worlds."""
    seed = data.draw(st.integers(0, 2**16))
    temporal, _ = generate_temporal_world(
        TemporalConfig(
            n_objects=data.draw(st.integers(4, 16)),
            sources=[TemporalSourceSpec(f"T{i}") for i in range(4)],
            copiers=[TemporalCopierSpec("C0", "T1")],
        ),
        seed=seed,
    )
    temporal_serial = CoAdoptionCollector(temporal)
    matrix = generate_rating_world(
        RatingWorldConfig(n_items=data.draw(st.integers(4, 20))), seed=seed
    ).matrix
    rating_serial = RaterPairCollector(matrix)
    for backend, workers in (
        ("process", 1),
        ("process", 2),
        ("process", 4),
        ("resident", 2),
    ):
        sweep = SweepConfig(backend, workers, shard_size=3)
        sharded_temporal = CoAdoptionCollector(temporal, sweep=sweep)
        assert sharded_temporal._slots == temporal_serial._slots
        sharded_raters = RaterPairCollector(matrix, sweep=sweep)
        assert sharded_raters._slots == rating_serial._slots
        # The packed (columnar) read path serves the same segments the
        # slot registry holds, for both modalities.
        for collector in (sharded_temporal, sharded_raters):
            packed = collector.packed
            for key, slot in collector._slots.items():
                assert packed.segment(key) == list(slot)
