"""The dependence side patched through the mutation log equals a cold read.

Each publish, :class:`~repro.dependence.bayes_batch.BatchedPosteriorEngine`
patches its per-pair arrays (pair keys, sids, ``kd``, segment lengths,
endpoint source codes, the ``overlap_policy="auto"`` escape mask and the
per-value entry layout) through the evidence cache's pair log, and the
cache patches its entry-to-table-slot gather through the truth layout's
old-to-new slot map. The contract pinned here: after random
add/retract/correct batches, rolled-back poison batches, replay-only
batches, store compactions and a compacted mutation log, the patched
arrays are bit for bit what a cold read of the same cache gives, and the
patched gather is the cold :meth:`~repro.truth.columnar.TruthLayout.slots`
gather.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.claims import Claim
from repro.core.dataset import ClaimDataset, MutationBatch
from repro.core.params import DependenceParams
from repro.dependence import entrystore
from repro.dependence.bayes_batch import BatchedPosteriorEngine
from repro.dependence.evidence import EvidenceCache
from repro.exceptions import DataError
from repro.truth.columnar import TruthLayout, ValueProbTable

SOURCES = [f"S{i:02d}" for i in range(10)]
OBJECTS = [f"o{i:02d}" for i in range(24)]


def _value(rng):
    return f"v{rng.randrange(3)}"


def _seed(rng):
    claims = [
        Claim(source, obj, _value(rng))
        for source in SOURCES[:8]
        for obj in rng.sample(OBJECTS[:20], 9)
    ]
    rng.shuffle(claims)
    return ClaimDataset(claims)


def _batch(rng, dataset):
    """A valid mixed batch; sometimes wipes a whole source (its pairs
    drop and the source codes shift), sometimes is nothing but
    identical replays (which change nothing)."""
    claims = {(c.source, c.object): c for c in dataset}
    live = sorted(claims)
    if rng.random() < 0.15:
        replay = [claims[key] for key in rng.sample(live, min(len(live), 3))]
        return MutationBatch(
            adds=tuple(replay[:2]), corrections=tuple(replay[2:])
        )
    retract = set(rng.sample(live, min(len(live), rng.randrange(0, 5))))
    if rng.random() < 0.15 and live:
        source = rng.choice(live)[0]
        retract |= {key for key in live if key[0] == source}
    rest = [key for key in live if key not in retract]
    corrections = []
    for source, obj in rng.sample(rest, min(len(rest), rng.randrange(0, 5))):
        value = _value(rng)
        if value != dataset.value_of(source, obj):
            corrections.append(Claim(source, obj, value))
    taken = set(rest)
    adds = []
    for _ in range(rng.randrange(0, 8)):
        key = (rng.choice(SOURCES), rng.choice(OBJECTS))
        if key not in taken:
            taken.add(key)
            adds.append(Claim(key[0], key[1], _value(rng)))
    return MutationBatch(
        adds=tuple(adds),
        retractions=tuple(sorted(retract)),
        corrections=tuple(corrections),
    )


def _poison(batch):
    """``batch`` plus a retraction of an absent claim: ``apply`` rolls back."""
    return MutationBatch(
        adds=batch.adds,
        retractions=batch.retractions + (("ghost", OBJECTS[0]),),
        corrections=batch.corrections,
    )


def _cold_engine(cache, params):
    """A fresh engine's full read of ``cache``, leaving the cache's pair
    log with the engine under test (a fresh engine starts its own)."""
    log = cache._pair_log
    cold = BatchedPosteriorEngine(cache, params)
    cold.pair_keys()
    cache._pair_log = log
    return cold


def _same_array(a, b, name):
    assert a.dtype == b.dtype, name
    assert a.shape == b.shape, name
    assert a.tobytes() == b.tobytes(), name


def assert_engine_is_cold(engine, cache, params, accuracies):
    keys = engine.pair_keys()
    cold = _cold_engine(cache, params)
    assert keys == cold.pair_keys() == list(cache._slots)
    assert engine.sources == cold.sources
    for name in ("_sid", "_kd", "_length", "_s1c", "_s2c", "_escaped"):
        _same_array(getattr(engine, name), getattr(cold, name), name)
    assert engine._needs_values == cold._needs_values
    if cold._needs_values:
        _same_array(engine._entry_pos, cold._entry_pos, "_entry_pos")
        _same_array(engine._entry_eids, cold._entry_eids, "_entry_eids")
    for ours, theirs in zip(engine.endpoint_codes(), cold.endpoint_codes()):
        _same_array(ours, theirs, "endpoint_codes")
    probe = keys[::3]
    _same_array(
        engine.positions_of(probe), cold.positions_of(probe), "positions_of"
    )
    for ours, theirs in zip(
        engine.posterior_arrays(accuracies), cold.posterior_arrays(accuracies)
    ):
        _same_array(ours, theirs, "posterior")


def assert_gather_is_cold(cache, table):
    cold = table.layout.slots(cache._entry_obj, cache._entry_value)
    _same_array(cache._table_gather(table), cold, "gather")


CASES = [
    pytest.param("serial", {}, 40, id="serial"),
    pytest.param(
        "serial",
        {"overlap_policy": "auto", "overlap_warning_bound": 4},
        40,
        id="serial-auto",
    ),
    pytest.param(
        "serial", {"false_value_model": "empirical"}, 20, id="serial-empirical"
    ),
    pytest.param(
        "resident",
        {"overlap_policy": "auto", "overlap_warning_bound": 4},
        4,
        id="resident-auto",
    ),
]


@pytest.mark.parametrize("backend, extra, examples", CASES)
def test_patched_statics_and_gather_equal_cold(backend, extra, examples):
    params = DependenceParams(parallel_backend=backend, num_workers=2, **extra)

    @given(seed=st.integers(0, 10**6), steps=st.integers(1, 10))
    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def check(seed, steps):
        rng = random.Random(seed)
        dataset = _seed(rng)
        cache = EvidenceCache(dataset, min_overlap=2, params=params)
        engine = cache.posterior_engine(params)
        layout = TruthLayout.sync(dataset)
        accuracies = {}
        patched = 0
        try:
            for step in range(steps + 1):
                # Up to three syncs between two reads: the pair log then
                # spans several drops, backfills and compactions.
                for sync in range(rng.choice((1, 1, 2, 3)) if step else 0):
                    if sync:
                        cache.sync()
                    batch = _batch(rng, dataset)
                    if rng.random() < 0.2:
                        with pytest.raises(DataError):
                            dataset.apply(_poison(batch))
                    dataset.apply(batch)
                if step and rng.random() < 0.2:
                    # Compact the log past the layout (the next layout
                    # is a cold build) but not past the cache.
                    cache.sync()
                    dataset.compact_log(dataset.version)
                layout = TruthLayout.sync(dataset, layout)
                table = ValueProbTable(dataset, layout=layout)
                table.set_probs(
                    [rng.random() for _ in range(len(table))]
                )
                patched += engine._log is not None and (
                    engine._log is cache._pair_log
                )
                cache.refresh(table)
                assert_gather_is_cold(cache, table)
                for source in dataset.sources:
                    accuracies.setdefault(source, rng.uniform(0.2, 0.9))
                assert_engine_is_cold(engine, cache, params, accuracies)
        finally:
            cache.close()
        # Every step after the first full read patched the arrays.
        assert patched == steps

    # A small dead-cell floor, so the store compacts (and renumbers the
    # sids under the pair log) within a few batches.
    with mock.patch.object(entrystore, "COMPACT_MIN_DEAD", 4):
        check()


def test_rebuild_and_second_engine_read_every_pair():
    """A rebuilt cache, or another engine having read since, leaves no
    log to patch from: the engine re-reads every pair."""
    rng = random.Random(3)
    dataset = _seed(rng)
    params = DependenceParams()
    cache = EvidenceCache(dataset, min_overlap=2, params=params)
    engine = cache.posterior_engine(params)
    table = ValueProbTable(dataset)
    cache.refresh(table)
    accuracies = {source: 0.7 for source in dataset.sources}
    first = engine.posterior_arrays(accuracies)
    cache.build()
    cache.refresh(table)
    assert engine._log is not cache._pair_log
    for ours, theirs in zip(engine.posterior_arrays(accuracies), first):
        _same_array(ours, theirs, "posterior after rebuild")
    other = BatchedPosteriorEngine(cache, params)
    other.pair_keys()
    dataset.apply(_batch(rng, dataset))
    cache.refresh(ValueProbTable(dataset))
    assert engine._log is not cache._pair_log
    assert_engine_is_cold(
        engine, cache, params, {s: 0.7 for s in dataset.sources}
    )


def test_patch_leaves_earlier_arrays_alone():
    """Results of earlier publishes hold the engine's key list and code
    arrays; a patch must replace them, never write into them."""
    rng = random.Random(8)
    dataset = _seed(rng)
    params = DependenceParams()
    cache = EvidenceCache(dataset, min_overlap=2, params=params)
    engine = cache.posterior_engine(params)
    cache.refresh(ValueProbTable(dataset))
    keys = engine.pair_keys()
    codes = engine.endpoint_codes()
    saved = list(keys), [c.copy() for c in codes]
    for _ in range(5):
        dataset.apply(_batch(rng, dataset))
        cache.refresh(ValueProbTable(dataset))
        engine.pair_keys()
    assert keys == saved[0]
    for ours, before in zip(codes, saved[1]):
        assert np.array_equal(ours, before)
