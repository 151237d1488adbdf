"""Serving layer: snapshot immutability, store concurrency, persistence.

The contract under test is the ISSUE-8 acceptance bar: a reader pinned
to version N keeps seeing bit-for-bit unchanged answers while the
writer publishes N+1 mid-read, persistence round-trips are bitwise
equal to the in-memory snapshot, and no query ever observes a torn
(half-updated) state.
"""

import threading

import numpy as np
import pytest

import repro
from repro.core.claims import Claim
from repro.exceptions import ServeError
from repro.generators import simple_copier_world
from repro.query.catalog import BookCatalog, Listing
from repro.query.engine import ServedQueryEngine
from repro.query.queries import LookupQuery
from repro.recommend import recommend_from_snapshot, snapshot_scorecards
from repro.serve import (
    Snapshot,
    SnapshotStore,
    cache_stats,
    clear_cache,
    fetch_snapshot,
    load_snapshot,
    save_snapshot,
)
from repro.serve.snapshot import ARRAY_FIELDS
from repro.truth.columnar import ValueProbTable
from repro.truth.depen import Depen


@pytest.fixture(scope="module")
def world():
    return simple_copier_world(
        n_objects=40, n_independent=6, n_copiers=3, seed=11
    )


@pytest.fixture(scope="module")
def published(world):
    dataset, _ = world
    result = Depen(min_overlap=5).discover(dataset)
    return dataset, result, Snapshot.from_result(dataset, result)


# ---------------------------------------------------------------------------
# snapshot: immutability + reads
# ---------------------------------------------------------------------------


def test_snapshot_arrays_are_read_only(published):
    _, _, snapshot = published
    for name in ("probs", "bounds", "counts", "winners", "accuracies",
                 "coverage", "p_dependent"):
        arr = getattr(snapshot, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0 if arr.size else 0  # noqa: PLW2901 - write must raise
    assert isinstance(snapshot.objects, tuple)
    assert isinstance(snapshot.slot_values, tuple)


def test_snapshot_rejects_writable_arrays(published):
    dataset, result, snapshot = published
    arrays = {
        name: getattr(snapshot, name).copy()  # copies are writable again
        for name in (
            "bounds", "counts", "probs", "winners", "accuracies",
            "coverage", "pair_s1", "pair_s2", "p_dependent",
            "p_s1_copies", "p_s2_copies",
        )
    }
    with pytest.raises(ServeError, match="writable"):
        Snapshot(
            objects=snapshot.objects,
            sources=snapshot.sources,
            slot_values=snapshot.slot_values,
            arrays=arrays,
            dataset_version=snapshot.dataset_version,
            round_id=snapshot.round_id,
        )


def test_snapshot_answers_match_truth_result(published):
    dataset, result, snapshot = published
    for obj in dataset.objects:
        answer = snapshot.answer(obj)
        assert answer.value == result.decisions[obj]
        assert answer.probability == result.distributions[obj][answer.value]
        assert snapshot.distribution(obj) == result.distributions[obj]
    assert snapshot.decisions() == result.decisions
    for source in dataset.sources:
        assert snapshot.accuracy(source) == result.accuracies[source]
        assert snapshot.source_coverage(source) == dataset.coverage(source)


def test_snapshot_dependence_matches_graph(published):
    dataset, result, snapshot = published
    graph = result.dependence
    sources = dataset.sources
    for i, s1 in enumerate(sources):
        assert snapshot.dependence_score(s1) == graph.dependence_score(s1)
        for s2 in sources[i + 1 :]:
            assert snapshot.dependence_probability(s1, s2) == graph.probability(
                s1, s2
            )
            assert snapshot.directed_probability(s1, s2) == (
                graph.directed_probability(s1, s2)
            )


def _scanned_pair(snapshot, i, j):
    """The pair index a linear scan of source ``i``'s adjacency finds."""
    lo, hi = snapshot._adj_ptr[i], snapshot._adj_ptr[i + 1]
    for pos in range(lo, hi):
        if snapshot._adj_other[pos] == j:
            return snapshot._adj_pair[pos]
    return None


def test_snapshot_pair_lookup_matches_adjacency_scan():
    """A published snapshot orders its pairs by source codes, but a
    snapshot may hold them in any order: here the evidence registry's,
    where a backfilled pair comes last, so a source's adjacency is not
    sorted by partner. The pair index must find exactly what a scan of
    the adjacency finds, for every ordered pair of sources, analysed or
    not."""
    table = {
        f"o{k:02d}": {
            source: f"v{(k * (i + 2)) % 3}"
            for i, source in enumerate("ACDEF")
            if (k + i) % 4 != 0
        }
        for k in range(24)
    }
    # B shares one object with A at first (below min_overlap), so (A, B)
    # is backfilled once B claims three more of A's objects.
    for k in range(24):
        if k == 1 or k % 4 == 0:
            table[f"o{k:02d}"]["B"] = "v0"
    table["o07"]["G"] = "v2"  # G overlaps no source enough: no pairs
    claims = [
        Claim(source, obj, value)
        for obj, row in table.items()
        for source, value in row.items()
    ]
    with repro.Session(claims=claims, min_overlap=3) as session:
        session.publish()
        session.apply([Claim("B", f"o{k:02d}", "v1") for k in (2, 3, 5)])
        published = session.publish()
        registry = session.engine.cache.pairs
    assert registry[-2:] == [("A", "B"), ("B", "F")]
    sources = published.sources
    code = {source: i for i, source in enumerate(sources)}
    row = {
        (s1, s2): k
        for k, (s1, s2) in enumerate(
            zip(published.pair_s1.tolist(), published.pair_s2.tolist())
        )
    }
    order = np.asarray([row[code[a], code[b]] for a, b in registry])
    arrays = {name: getattr(published, name) for name in ARRAY_FIELDS}
    for name in ARRAY_FIELDS[-5:]:  # the pair arrays
        arrays[name] = arrays[name][order]
        arrays[name].flags.writeable = False
    snapshot = Snapshot(
        objects=published.objects,
        sources=sources,
        slot_values=published.slot_values,
        arrays=arrays,
        dataset_version=published.dataset_version,
        round_id=published.round_id,
    )
    a, b = code["A"], code["B"]
    lo, hi = snapshot._adj_ptr[a], snapshot._adj_ptr[a + 1]
    partners = snapshot._adj_other[lo:hi]
    assert partners[-1] == b and partners != sorted(partners)
    absent = 0
    for i, x in enumerate(sources):
        for j, y in enumerate(sources):
            k = _scanned_pair(snapshot, i, j)
            absent += k is None
            assert snapshot._pair(i, j) == k
            expected = 0.0 if k is None else float(snapshot.p_dependent[k])
            assert snapshot.dependence_probability(x, y) == expected
            assert published.dependence_probability(x, y) == expected
            directed = snapshot.p_s1_copies if i < j else snapshot.p_s2_copies
            expected = 0.0 if k is None else float(directed[k])
            assert snapshot.directed_probability(x, y) == expected
            assert published.directed_probability(x, y) == expected
    assert absent > len(sources)  # G's pairs are not analysed


def test_snapshot_explain_dependence_sorted(published):
    _, _, snapshot = published
    entries = snapshot.explain_dependence("cop00")
    assert entries
    probs = [e["p_dependent"] for e in entries]
    assert probs == sorted(probs, reverse=True)
    strong = snapshot.explain_dependence("cop00", threshold=0.9)
    assert all(e["p_dependent"] >= 0.9 for e in strong)


def test_snapshot_unknown_object_and_source(published):
    _, _, snapshot = published
    with pytest.raises(ServeError, match="not covered"):
        snapshot.answer("no-such-object")
    with pytest.raises(ServeError, match="not covered"):
        snapshot.accuracy("no-such-source")
    assert snapshot.probability(snapshot.objects[0], "unseen-value") == 0.0


def test_snapshot_stamp_exactly_once(published):
    dataset, result, _ = published
    snapshot = Snapshot.from_result(dataset, result)
    assert snapshot.version is None
    store = SnapshotStore()
    store.publish(snapshot)
    assert snapshot.version == 1
    with pytest.raises(ServeError, match="already published"):
        store.publish(snapshot)


def test_frozen_table_survives_set_probs(world):
    dataset, _ = world
    table = ValueProbTable(dataset)
    frozen = table.freeze()
    before = frozen["probs"].copy()
    table.set_probs(np.linspace(0.0, 1.0, len(table)))
    assert np.array_equal(frozen["probs"], before)
    assert not frozen["probs"].flags.writeable
    with pytest.raises(ValueError):
        table.bounds[0] = 7  # structural arrays are locked in place


# ---------------------------------------------------------------------------
# store: latest-wins, retention, pinning
# ---------------------------------------------------------------------------


def _publish_round(store, dataset, result):
    return store.publish(Snapshot.from_result(dataset, result))


def test_store_latest_wins_and_versions(published):
    dataset, result, _ = published
    store = SnapshotStore(retention=2)
    v1 = _publish_round(store, dataset, result)
    v2 = _publish_round(store, dataset, result)
    assert (v1.version, v2.version) == (1, 2)
    assert store.latest is v2
    assert store.get(1) is v1
    v3 = _publish_round(store, dataset, result)
    assert store.versions() == [2, 3]
    with pytest.raises(ServeError, match="not in the store"):
        store.get(1)
    stats = store.stats()
    assert stats["published"] == 3
    assert stats["evicted"] == 1
    assert stats["latest_version"] == 3
    assert v3.version == 3


def test_store_empty_reads_raise():
    store = SnapshotStore()
    with pytest.raises(ServeError, match="no snapshot"):
        store.latest
    with pytest.raises(ServeError):
        with store.pin():
            pass


def test_store_pin_blocks_eviction(published):
    dataset, result, _ = published
    store = SnapshotStore(retention=1)
    v1 = _publish_round(store, dataset, result)
    with store.pin(1) as pinned:
        assert pinned is v1
        _publish_round(store, dataset, result)
        _publish_round(store, dataset, result)
        # Out of the retention window but pinned: still resolvable.
        assert store.get(1) is v1
        assert 1 in store.pins()
    # Last release drops the stale version.
    assert 1 not in store.versions()
    with pytest.raises(ServeError):
        store.get(1)


def test_store_clear_spares_pins(published):
    dataset, result, _ = published
    store = SnapshotStore()
    _publish_round(store, dataset, result)
    _publish_round(store, dataset, result)
    with store.pin(1):
        assert store.clear() == 1
        assert store.versions() == [1]
        with pytest.raises(ServeError, match="no snapshot"):
            store.latest
    v3 = _publish_round(store, dataset, result)
    assert v3.version == 3  # version sequence never restarts


def test_store_retention_validation():
    with pytest.raises(ServeError):
        SnapshotStore(retention=0)


# ---------------------------------------------------------------------------
# the headline consistency contract
# ---------------------------------------------------------------------------


def test_pinned_reader_unchanged_across_publish(world):
    """Writer publishes round N+1 mid-read; the pinned reader of N sees
    bit-for-bit unchanged answers."""
    dataset, _ = world
    session = repro.Session(dataset=dataset, min_overlap=5)
    first = session.publish()
    probe = list(first.objects)[:10]
    before = {
        obj: (first.answer(obj), tuple(sorted(first.distribution(obj).items())))
        for obj in probe
    }
    fingerprint = first.fingerprint()

    # Mid-read ingest + publish of round N+1 that *changes* answers.
    flip = [
        Claim(source=f"flood{i}", object=probe[0], value="flooded-value")
        for i in range(12)
    ]
    session.ingest(flip)
    second = session.publish()
    assert second.version == first.version + 1
    assert session.query(probe[0]).value == "flooded-value"

    # The pinned version N is bitwise what it was.
    pinned = session.store.get(first.version)
    assert pinned is first
    assert pinned.fingerprint() == fingerprint
    for obj in probe:
        answer, dist = before[obj]
        assert pinned.answer(obj) == answer
        assert tuple(sorted(pinned.distribution(obj).items())) == dist
    session.close()


def test_concurrent_readers_never_tear(world):
    """Threaded readers racing a publishing writer always see answers
    internally consistent with exactly one published version."""
    dataset, _ = world
    session = repro.Session(dataset=dataset, min_overlap=5)
    session.publish()
    probe = list(session.store.latest.objects)[:5]
    expected: dict[int, dict] = {}
    expected[1] = {o: session.store.latest.answer(o) for o in probe}

    stop = threading.Event()
    torn: list[str] = []

    def reader():
        while not stop.is_set():
            snapshot = session.store.latest
            version = snapshot.version
            for obj in probe:
                answer = snapshot.answer(obj)
                if answer.version != version:
                    torn.append(f"{obj}: {answer.version} != {version}")
                reference = expected.get(version)
                if reference is not None and answer != reference[obj]:
                    torn.append(f"{obj}@{version}: {answer} != {reference[obj]}")

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for round_index in range(5):
            claims = [
                Claim(
                    source=f"w{round_index}",
                    object=obj,
                    value=f"round-{round_index}",
                )
                for obj in probe
            ]
            session.ingest(claims)
            snapshot = session.publish()
            expected[snapshot.version] = {
                o: snapshot.answer(o) for o in probe
            }
    finally:
        stop.set()
        for thread in threads:
            thread.join()
        session.close()
    assert torn == []


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_persistence_roundtrip_bitwise(published, tmp_path):
    dataset, result, snapshot = published
    directory = str(tmp_path / "snap")
    save_snapshot(snapshot, directory)
    for mmap in (True, False):
        loaded = load_snapshot(directory, mmap=mmap)
        assert loaded.fingerprint() == snapshot.fingerprint()
        assert loaded.objects == snapshot.objects
        assert loaded.sources == snapshot.sources
        assert loaded.slot_values == snapshot.slot_values
        assert np.array_equal(loaded.probs, snapshot.probs)
        assert np.array_equal(loaded.winners, snapshot.winners)
        for obj in dataset.objects:
            assert loaded.answer(obj) == snapshot.answer(obj)
        assert not loaded.probs.flags.writeable


def test_persistence_preserves_tuple_identifiers(tmp_path):
    catalog = BookCatalog(
        [
            Listing("s1", "b1", "T", ("a", "b"), "P", 2001, "cs"),
            Listing("s2", "b1", "T", ("a", "b"), "P", 2001, "cs"),
        ]
    )
    dataset = catalog.claim_dataset()
    result = Depen().discover(dataset)
    snapshot = Snapshot.from_result(dataset, result)
    directory = str(tmp_path / "catalog-snap")
    save_snapshot(snapshot, directory)
    loaded = load_snapshot(directory)
    assert loaded.objects == snapshot.objects  # (book, field) tuples
    assert loaded.answer(("b1", "authors")).value == ("a", "b")
    assert loaded.fingerprint() == snapshot.fingerprint()


def test_persistence_detects_corruption(published, tmp_path):
    _, _, snapshot = published
    directory = str(tmp_path / "corrupt")
    save_snapshot(snapshot, directory)
    probs = np.load(directory + "/probs.npy")
    probs[0] += 0.25
    np.save(directory + "/probs.npy", probs)
    with pytest.raises(ServeError, match="fingerprint"):
        load_snapshot(directory)
    # verify=False serves it anyway (caller's explicit choice).
    assert load_snapshot(directory, verify=False) is not None


def test_persistence_missing_manifest(tmp_path):
    with pytest.raises(ServeError, match="manifest"):
        load_snapshot(str(tmp_path / "nowhere"))


def test_fetch_snapshot_cache(published, tmp_path):
    _, _, snapshot = published
    directory = str(tmp_path / "cached")
    save_snapshot(snapshot, directory)
    clear_cache()
    base = cache_stats()
    first = fetch_snapshot(directory)
    again = fetch_snapshot(directory)
    assert again is first
    stats = cache_stats()
    assert stats["misses"] == base["misses"] + 1
    assert stats["hits"] == base["hits"] + 1
    assert clear_cache() >= 1
    assert cache_stats()["resident"] == 0


# ---------------------------------------------------------------------------
# snapshot-backed application layers
# ---------------------------------------------------------------------------


def test_served_query_engine(world):
    catalog = BookCatalog(
        [
            Listing("s1", "b1", "Title A", ("ann",), "PubX", 2001, "cs"),
            Listing("s2", "b1", "Title A", ("ann",), "PubX", 2001, "cs"),
            Listing("s3", "b1", "Title B", ("ann",), "PubY", 2001, "cs"),
            Listing("s1", "b2", "Other", ("bob",), "PubX", 1999, "math"),
            Listing("s2", "b2", "Other", ("bob",), "PubX", 1999, "math"),
        ]
    )
    session = repro.Session(dataset=catalog.claim_dataset())
    snapshot = session.publish()
    served = ServedQueryEngine(snapshot)
    assert served.version == snapshot.version
    assert served.answer(LookupQuery("b1", "title")) == "Title A"
    records = served.records()
    assert records["b2"]["publisher"] == "PubX"
    assert 0.0 < served.confidence("b1", "title") <= 1.0
    # Records are assembled once; a later publish elsewhere cannot bleed in.
    session.ingest(
        [Claim(source="s9", object=("b1", "title"), value="Title Z")]
    )
    session.publish()
    assert served.answer(LookupQuery("b1", "title")) == "Title A"
    session.close()


def test_served_query_engine_needs_catalog_shape(published):
    _, _, snapshot = published
    from repro.exceptions import QueryError

    with pytest.raises(QueryError, match="catalog-shaped"):
        ServedQueryEngine(snapshot)


def test_recommend_from_snapshot_matches_live_path(published):
    dataset, result, snapshot = published
    from repro.recommend import build_scorecards, recommend_sources

    live_cards = build_scorecards(
        result.accuracies,
        {s: dataset.coverage(s) for s in dataset.sources},
        result.dependence,
    )
    frozen_cards = snapshot_scorecards(snapshot)
    assert frozen_cards == live_cards
    assert recommend_from_snapshot(snapshot, 3) == recommend_sources(
        live_cards, result.dependence, 3
    )
