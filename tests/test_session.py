"""repro.Session facade: lifecycle, policy normalization, async serving."""

import asyncio

import pytest

import repro
from repro.core.claims import Claim
from repro.core.dataset import MutationBatch
from repro.core.params import DependenceParams, IterationParams
from repro.exceptions import ParameterError, ServeError
from repro.generators import simple_copier_world
from repro.serve import ServingEngine
from repro.truth.depen import Depen


@pytest.fixture()
def world():
    return simple_copier_world(
        n_objects=30, n_independent=5, n_copiers=2, seed=7
    )


# ---------------------------------------------------------------------------
# policy-keyword normalization
# ---------------------------------------------------------------------------


def test_policy_keywords_fold_into_params():
    session = repro.Session(num_workers=3, pool="persistent", max_retries=5)
    assert session.params.num_workers == 3
    assert session.params.pool == "persistent"
    assert session.params.max_retries == 5
    session.close()


def test_explicit_keyword_beats_params_field():
    base = DependenceParams(num_workers=3)
    session = repro.Session(params=base, num_workers=2)
    assert session.params.num_workers == 2
    assert base.num_workers == 3  # the passed params are untouched
    session.close()


#: Removed knobs and the params class that no longer takes them.
REMOVED_KEYWORDS = {
    "entry_store": DependenceParams,
    "truth_backend": DependenceParams,
    "posterior_backend": DependenceParams,
    "rescore_tolerance": IterationParams,
}


@pytest.mark.parametrize("keyword", list(REMOVED_KEYWORDS))
def test_removed_policy_keywords_rejected(keyword):
    # Each DEPEN layer has one production path, and DEPEN re-scores
    # every pair every round: the old execution choices and the in-round
    # re-scoring tolerance are not fields, nor session keywords, any
    # more.
    with pytest.raises(TypeError):
        REMOVED_KEYWORDS[keyword](**{keyword: "auto"})
    with pytest.raises(ParameterError, match="unknown Session keyword"):
        repro.Session(**{keyword: "auto"})


def test_unknown_policy_keyword_rejected_eagerly():
    with pytest.raises(ParameterError, match="unknown Session keyword"):
        repro.Session(truth_bakend="dict")


def test_dataset_and_claims_are_exclusive(world):
    dataset, _ = world
    with pytest.raises(ParameterError, match="not both"):
        repro.Session(dataset=dataset, claims=list(dataset))


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


def test_full_lifecycle(world):
    dataset, world_truth = world
    with repro.Session(claims=list(dataset), min_overlap=5) as session:
        graph = session.discover()
        assert graph is session.graph
        result = session.run_truth()
        snapshot = session.publish()
        assert snapshot.version == 1
        assert not session.dirty
        for obj in list(dataset.objects)[:10]:
            answer = session.query(obj)
            assert answer.value == result.decisions[obj]
            assert answer.version == 1
            assert session.query_value(obj, answer.value) == answer.probability
            assert session.distribution(obj) == result.distributions[obj]
        top = session.recommend(3)
        assert len(top) == 3
        pair = session.explain_dependence("ind00", "cop00")
        assert 0.0 <= pair["p_dependent"] <= 1.0
        neighbourhood = session.explain_dependence("cop00")
        assert neighbourhood
        stats = session.stats()
        assert stats["store"]["published"] == 1
        assert stats["claims"] == len(dataset)


def test_publish_and_refresh_honour_session_iteration(world):
    dataset, _ = world
    iteration = IterationParams(max_rounds=2)
    with repro.Session(
        claims=list(dataset), iteration=iteration, min_overlap=5
    ) as session:

        def cold():
            return Depen(session.params, iteration, min_overlap=5).discover(
                session.dataset
            )

        def published_matches(result):
            assert session.stats()["truth"]["rounds"] == result.rounds
            for obj in session.dataset.objects:
                assert session.distribution(obj) == result.distributions[obj]

        session.publish()
        expected = cold()
        published_matches(expected)
        default = Depen(session.params, min_overlap=5).discover(
            session.dataset
        )
        assert default.rounds > expected.rounds  # the cap really binds
        session.apply(
            MutationBatch(
                adds=[Claim(source="s-new", object="obj0000", value="x")],
                retractions=[("ind00", "obj0001")],
            )
        )
        assert session.refresh() is not None
        published_matches(cold())


def test_query_before_publish_guides(world):
    dataset, _ = world
    with repro.Session(dataset=dataset) as session:
        with pytest.raises(ServeError, match="no snapshot yet"):
            session.query(next(iter(dataset.objects)))


def test_refresh_skips_clean_state(world):
    dataset, _ = world
    with repro.Session(dataset=dataset, min_overlap=5) as session:
        first = session.refresh()
        assert first is not None and first.version == 1
        assert session.refresh() is None  # nothing changed
        session.feed([Claim(source="s-new", object="obj0000", value="x")])
        assert session.dirty
        second = session.refresh()
        assert second is not None and second.version == 2
        assert not session.dirty


def test_feed_drained_on_publish(world):
    dataset, _ = world
    with repro.Session(dataset=dataset, min_overlap=5) as session:
        queued = session.feed(
            [Claim(source="s-fed", object="obj0000", value="fed")]
            )
        assert queued == 1
        assert session.stats()["pending"] == 1
        session.publish()
        assert session.stats()["pending"] == 0
        assert "s-fed" in session.dataset.sources


def test_pinned_version_query(world):
    dataset, _ = world
    with repro.Session(dataset=dataset, min_overlap=5) as session:
        session.publish()
        old = session.query("obj0000", version=1)
        session.ingest(
            [Claim(source=f"n{i}", object="obj0000", value="new") for i in range(9)]
        )
        session.publish()
        assert session.query("obj0000").value == "new"
        assert session.query("obj0000", version=1) == old


def _count_scorecard_builds(monkeypatch):
    """Count scorecard builds on both the session and the engine path."""
    from repro.recommend import scoring
    from repro.serve import engine as engine_mod

    builds = []
    real = scoring.snapshot_scorecards

    def counting(snapshot, *args, **kwargs):
        builds.append(snapshot.version)
        return real(snapshot, *args, **kwargs)

    monkeypatch.setattr(scoring, "snapshot_scorecards", counting)
    monkeypatch.setattr(engine_mod, "snapshot_scorecards", counting)
    return builds


def test_recommend_builds_scorecards_once_per_version(world, monkeypatch):
    dataset, _ = world
    builds = _count_scorecard_builds(monkeypatch)
    with repro.Session(dataset=dataset, min_overlap=5) as session:
        session.publish()
        first = session.recommend(3)
        assert session.recommend(3) == first
        assert builds == [1]
        # The serving engine reads the same per-version memo.
        engine = session.serving()
        assert asyncio.run(engine.recommend(3)) == first
        assert builds == [1]
        # A newer version builds its own; the pinned old one is reused.
        session.publish()
        session.recommend(3)
        session.recommend(3, version=1)
        assert builds == [1, 2]


def test_scorecard_memo_leaves_with_evicted_versions(world, monkeypatch):
    dataset, _ = world
    builds = _count_scorecard_builds(monkeypatch)
    with repro.Session(dataset=dataset, min_overlap=5, retention=2) as session:
        engine = session.serving()
        for _ in range(5):
            session.publish()
            session.recommend(3)
            asyncio.run(engine.recommend(3))
            store = session.store
            assert set(store._scorecards) <= set(store.versions())
            assert store.stats()["memoised"] <= store.retention
        assert builds == [1, 2, 3, 4, 5]
        assert sorted(session.store._scorecards) == [4, 5]
        # A pin keeps a version (and its memo entry) past retention; the
        # last release drops both.
        with session.store.pin(5):
            session.publish()
            session.publish()
            assert 5 in session.store._scorecards
        assert session.store.versions() == [6, 7]
        assert 5 not in session.store._scorecards
        session.store.clear()
        assert session.store.stats()["memoised"] == 0


# ---------------------------------------------------------------------------
# async serving front-end
# ---------------------------------------------------------------------------


def test_serving_engine_reads(world):
    dataset, _ = world

    async def scenario():
        with repro.Session(dataset=dataset, min_overlap=5) as session:
            session.publish()
            engine = session.serving()
            answer = await engine.query("obj0000")
            assert answer.version == 1
            assert await engine.query_value("obj0000", answer.value) == (
                answer.probability
            )
            top = await engine.recommend(3)
            assert len(top) == 3
            again = await engine.recommend(3)
            assert again == top  # memoized scorecards, same version
            pair = await engine.explain_dependence("ind00", "cop00")
            assert "p_dependent" in pair
            stats = engine.stats()
            assert stats["queries"] == 2
            assert stats["recommends"] == 2

    asyncio.run(scenario())


def test_serving_engine_background_loop(world):
    dataset, _ = world

    async def scenario():
        with repro.Session(dataset=dataset, min_overlap=5) as session:
            session.publish()
            engine = session.serving(refresh_interval=0.01)
            engine.start()
            assert engine.running
            with pytest.raises(ServeError, match="already running"):
                engine.start()
            session.feed(
                [Claim(source="live", object="obj0000", value="live-value")]
            )
            for _ in range(200):
                if session.store.stats()["latest_version"] >= 2:
                    break
                await asyncio.sleep(0.01)
            answer = await engine.query("obj0000")
            assert answer.version >= 2
            await engine.stop()
            assert not engine.running
            assert engine.stats()["refreshes"] >= 1

    asyncio.run(scenario())


def test_serving_engine_requires_refresh_for_loop(world):
    dataset, _ = world

    async def scenario():
        with repro.Session(dataset=dataset, min_overlap=5) as session:
            session.publish()
            engine = ServingEngine(session.store)
            assert (await engine.query("obj0000")).version == 1
            with pytest.raises(ServeError, match="no refresh callable"):
                engine.start()
            with pytest.raises(ServeError, match="no refresh callable"):
                await engine.refresh_once()

    asyncio.run(scenario())


def test_serving_engine_validates_interval(world):
    dataset, _ = world
    with repro.Session(dataset=dataset) as session:
        with pytest.raises(ServeError, match="refresh_interval"):
            session.serving(refresh_interval=0.0)


# ---------------------------------------------------------------------------
# supervised serving: loop survival, quarantine, health
# ---------------------------------------------------------------------------


def test_refresh_failure_never_kills_the_loop(world):
    """Two consecutive refresh failures: the loop records them, backs
    off, keeps serving the last-good snapshot, then recovers."""
    dataset, _ = world

    async def scenario():
        failures = {"left": 2}

        def refresh():
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("wedged executor")
            return None

        with repro.Session(dataset=dataset, min_overlap=5) as session:
            session.publish()
            engine = ServingEngine(
                session.store, refresh, refresh_interval=0.01
            )
            engine.start()
            for _ in range(500):
                if engine.health()["refreshes"] >= 1:
                    break
                await asyncio.sleep(0.01)
            assert engine.running  # the failures did not kill the loop
            health = engine.health()
            assert health["refreshes"] >= 1
            assert health["total_failures"] == 2
            assert health["consecutive_failures"] == 0  # recovered
            assert "wedged executor" in health["last_error"]
            assert health["snapshot_staleness"] is not None
            # Reads were served by the last-good snapshot throughout.
            assert (await engine.query("obj0000")).version == 1
            await engine.stop()
            assert not engine.running

    asyncio.run(scenario())


def test_refresh_once_reraises_but_records(world):
    dataset, _ = world

    async def scenario():
        def refresh():
            raise RuntimeError("boom")

        with repro.Session(dataset=dataset, min_overlap=5) as session:
            session.publish()
            engine = ServingEngine(session.store, refresh)
            with pytest.raises(RuntimeError, match="boom"):
                await engine.refresh_once()
            health = engine.health()
            assert health["total_failures"] == 1
            assert health["consecutive_failures"] == 1
            assert "boom" in health["last_error"]

    asyncio.run(scenario())


def test_poison_batch_quarantined_while_serving_continues(world):
    """The acceptance scenario: a poison mutation batch fed to a live
    serving session is quarantined to the dead-letter queue, the batch
    behind it still lands, the engine keeps answering, and health()
    reports the quarantine."""
    dataset, _ = world

    async def scenario():
        with repro.Session(dataset=dataset, min_overlap=5) as session:
            session.publish()
            engine = session.serving(refresh_interval=0.01)
            engine.start()
            session.feed(
                MutationBatch(retractions=(("__ghost__", "obj0000"),))
            )
            session.feed(
                [Claim(source="live", object="obj0000", value="fresh")]
            )
            for _ in range(500):
                if (
                    session.quarantined_total >= 1
                    and session.store.stats()["latest_version"] >= 2
                ):
                    break
                await asyncio.sleep(0.01)
            assert engine.running  # the poison never stopped the loop
            assert session.quarantined_total == 1
            (letter,) = session.dead_letters
            assert letter.batch.retractions == (("__ghost__", "obj0000"),)
            assert "DataError" in letter.error
            # The batch queued *behind* the poison landed.
            answer = await engine.query("obj0000")
            assert answer.version >= 2
            health = engine.health()
            assert health["quarantine_depth"] == 1
            assert health["quarantined_total"] == 1
            assert health["pending_batches"] == 0
            assert health["total_failures"] == 0  # refresh itself never failed
            await engine.stop()
            stats = session.stats()
            assert stats["quarantined"] == 1
            assert stats["quarantined_total"] == 1

    asyncio.run(scenario())


def test_dead_letter_queue_is_bounded(world):
    dataset, _ = world
    with repro.Session(
        dataset=dataset, min_overlap=5, dead_letter_limit=1
    ) as session:
        session.feed(MutationBatch(retractions=(("__ghost__", "a"),)))
        session.feed(MutationBatch(retractions=(("__ghost__", "b"),)))
        session.publish()
        assert session.quarantined_total == 2
        (letter,) = session.dead_letters  # oldest evicted, bound held
        assert letter.batch.retractions[0][1] == "b"


def test_dead_letter_limit_validated(world):
    dataset, _ = world
    with pytest.raises(ParameterError, match="dead_letter_limit"):
        repro.Session(dataset=dataset, dead_letter_limit=0)


def test_direct_apply_still_raises(world):
    """Quarantine is only for the fire-and-forget feed path."""
    from repro.exceptions import DataError

    dataset, _ = world
    with repro.Session(dataset=dataset, min_overlap=5) as session:
        with pytest.raises(DataError):
            session.apply(
                MutationBatch(retractions=(("__ghost__", "obj0000"),))
            )
        assert session.quarantined_total == 0


def test_session_execution_health_surfaces_supervisor(world):
    dataset, _ = world
    params = DependenceParams(parallel_backend="resident", num_workers=2)
    with repro.Session(
        dataset=dataset, params=params, min_overlap=5
    ) as session:
        session.publish()
        health = session.execution_health()
        assert health["supervised"]
        assert health["backend"] == "resident"
        assert not health["degraded"]
    with repro.Session(dataset=dataset, min_overlap=5) as session:
        # A default session is unsupervised — unless an env-override CI
        # job promotes the default backend ("serial" is the default
        # value, so the hook applies to it too).
        if session.params.parallel_backend == "serial":
            assert session.execution_health() == {"supervised": False}
        else:
            assert session.execution_health()["supervised"]


# ---------------------------------------------------------------------------
# top-level namespace
# ---------------------------------------------------------------------------


def test_unknown_top_level_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.not_a_thing  # noqa: B018
