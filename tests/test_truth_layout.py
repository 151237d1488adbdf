"""The incremental truth layout: a synced layout equals a cold build.

:meth:`~repro.truth.columnar.TruthLayout.sync` derives a run's slot
table and claim arrays from the previous run's layout plus the mutation
log, rebuilding only the dirty objects' and sources' segments. The
contract pinned here: after any mutation sequence — objects, sources and
values appearing and vanishing, re-added claims, rolled-back poison
batches — the synced layout is bit-for-bit the cold build of the same
dataset, a compacted log falls back to the cold build, a sync never
writes the layout it started from (published snapshots share it), and a
streaming :class:`~repro.session.Session` publishes exactly what a cold
:class:`~repro.truth.depen.Depen` run would.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.claims import Claim
from repro.core.dataset import ClaimDataset, MutationBatch
from repro.exceptions import DataError
from repro.serve.snapshot import Snapshot
from repro.session import Session
from repro.truth.columnar import TruthLayout, TruthRoundEngine, ValueProbTable
from repro.truth.depen import Depen

ARRAYS = (
    "bounds",
    "row_of_slot",
    "counts",
    "slot_starts",
    "claim_slot",
    "claim_src",
    "acc_starts",
    "acc_slot",
    "acc_src",
    "acc_counts",
)

SOURCES = [f"S{i}" for i in range(9)]
OBJECTS = [f"o{i}" for i in range(14)]


def _value(rng):
    return f"v{rng.randrange(4)}"


def _seed(rng):
    claims = [
        Claim(source, obj, _value(rng))
        for source in SOURCES[:6]
        for obj in OBJECTS[:10]
        if rng.random() < 0.6
    ]
    rng.shuffle(claims)
    return ClaimDataset(claims)


def _batch(rng, dataset):
    """A valid mixed batch; sometimes wipes a whole source or object,
    sometimes replays identical claims (tolerated, and they change
    nothing), sometimes is nothing but such replays."""
    claims = {(c.source, c.object): c for c in dataset}
    live = sorted(claims)
    if rng.random() < 0.15:
        replay = [claims[key] for key in rng.sample(live, min(len(live), 3))]
        return MutationBatch(adds=tuple(replay[:2]), corrections=tuple(replay[2:]))
    retract = set(rng.sample(live, min(len(live), rng.randrange(0, 4))))
    wipe = rng.random()
    if wipe < 0.15 and live:
        source = rng.choice(live)[0]
        retract |= {key for key in live if key[0] == source}
    elif wipe < 0.3 and live:
        obj = rng.choice(live)[1]
        retract |= {key for key in live if key[1] == obj}
    rest = [key for key in live if key not in retract]
    corrections = []
    for source, obj in rng.sample(rest, min(len(rest), rng.randrange(0, 4))):
        value = _value(rng)
        if value != dataset.value_of(source, obj):
            corrections.append(Claim(source, obj, value))
    corrected = {(c.source, c.object) for c in corrections}
    stable = [key for key in rest if key not in corrected]
    replay = [claims[key] for key in rng.sample(stable, min(len(stable), 2))]
    corrections += replay[:1]
    taken = set(rest)
    adds = replay[1:]
    # Retracted keys may come straight back (re-added claims move to the
    # end of their source's claim order).
    candidates = [(rng.choice(SOURCES), rng.choice(OBJECTS)) for _ in range(5)]
    candidates += rng.sample(sorted(retract), min(len(retract), 2))
    for key in candidates:
        if key not in taken:
            taken.add(key)
            adds.append(Claim(key[0], key[1], _value(rng)))
    return MutationBatch(
        adds=tuple(adds),
        retractions=tuple(sorted(retract)),
        corrections=tuple(corrections),
    )


def _poison(batch, dataset):
    """``batch`` plus one conflicting blind add: ``apply`` must roll back."""
    retracted = set(batch.retractions)
    victim = next(
        (c for c in dataset if (c.source, c.object) not in retracted), None
    )
    if victim is None:
        return MutationBatch(retractions=(("ghost", "o0"),))
    bad = Claim(victim.source, victim.object, victim.value + "!")
    return MutationBatch(
        adds=batch.adds + (bad,),
        retractions=batch.retractions,
        corrections=batch.corrections,
    )


def assert_same_layout(synced, cold, dataset):
    for name in ARRAYS:
        a, b = getattr(synced, name), getattr(cold, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable, name
    assert synced.slot_values == cold.slot_values
    assert list(synced.objects) == list(cold.objects) == dataset.objects
    assert list(synced.sources) == list(cold.sources) == dataset.sources
    assert synced.row_of == cold.row_of
    assert synced.value_offsets == cold.value_offsets
    for claim in dataset:
        slot = synced.slot(claim.object, claim.value)
        assert slot == cold.slot(claim.object, claim.value)
        assert synced.slot_values[slot] == claim.value
    # The round engine reads its claim and accuracy orders off the layout.
    ours = TruthRoundEngine(dataset, ValueProbTable(dataset, layout=synced))
    theirs = TruthRoundEngine(dataset)
    for name in ("claim_slot", "claim_src", "_acc_slot", "_acc_src", "_acc_counts"):
        assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name


@given(seed=st.integers(0, 10**6), steps=st.integers(1, 8))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_synced_layout_equals_cold_build(seed, steps):
    rng = random.Random(seed)
    dataset = _seed(rng)
    layout = TruthLayout.sync(dataset)
    for _ in range(steps):
        batch = _batch(rng, dataset)
        if rng.random() < 0.25:
            with pytest.raises(DataError):
                dataset.apply(_poison(batch, dataset))
        dataset.apply(batch)
        if rng.random() < 0.3:
            continue  # let the layout fall several batches behind
        before = {name: getattr(layout, name).copy() for name in ARRAYS}
        synced = TruthLayout.sync(dataset, layout)
        assert_same_layout(synced, TruthLayout.sync(dataset), dataset)
        for name, arr in before.items():  # the old layout is left as it was
            assert np.array_equal(getattr(layout, name), arr), name
        layout = synced
    assert_same_layout(
        TruthLayout.sync(dataset, layout), TruthLayout.sync(dataset), dataset
    )


def test_unchanged_dataset_reuses_layout():
    dataset = _seed(random.Random(1))
    layout = TruthLayout.sync(dataset)
    assert TruthLayout.sync(dataset, layout) is layout
    with pytest.raises(DataError):
        dataset.apply(MutationBatch(retractions=(("ghost", "o0"),)))
    assert TruthLayout.sync(dataset, layout) is layout


def test_rolled_back_or_replayed_batch_keeps_the_layout_valid():
    """One version means one iteration order: after a poison batch, or a
    batch of identical replays, that touched a provider set which grew
    and shrank, the layout kept for that version still equals the cold
    build."""
    dataset = ClaimDataset(Claim(f"s{i:03d}", "o", "v") for i in range(40))
    dataset.retract_claims([(f"s{i:03d}", "o") for i in range(5, 40)])
    layout = TruthLayout.sync(dataset)
    with pytest.raises(DataError):
        dataset.apply(
            MutationBatch(
                corrections=(Claim("s000", "o", "w"),),
                retractions=(("ghost", "o"),),
            )
        )
    assert_same_layout(
        TruthLayout.sync(dataset, layout), TruthLayout.sync(dataset), dataset
    )
    version = dataset.version
    dataset.apply(
        MutationBatch(
            adds=(Claim("s001", "o", "v"),),
            corrections=(Claim("s000", "o", "v"),),
        )
    )
    assert dataset.version == version
    assert TruthLayout.sync(dataset, layout) is layout
    assert_same_layout(layout, TruthLayout.sync(dataset), dataset)


def test_sync_shares_clean_segments_and_compaction_falls_back_cold():
    dataset = _seed(random.Random(2))
    layout = TruthLayout.sync(dataset)
    clean = next(o for o in dataset.objects if o != "o0")
    source = next(c.source for c in dataset if c.object == "o0")
    dataset.correct(Claim(source, "o0", "fresh"))
    synced = TruthLayout.sync(dataset, layout)
    assert synced.value_offsets[clean] is layout.value_offsets[clean]
    dataset.add(Claim("S0", "new-object", "x"))
    dataset.compact_log()
    cold = TruthLayout.sync(dataset, synced)
    assert cold.value_offsets[clean] is not synced.value_offsets[clean]
    assert_same_layout(cold, TruthLayout.sync(dataset), dataset)


def test_layout_bound_to_another_version_is_refused():
    dataset = _seed(random.Random(3))
    layout = TruthLayout.sync(dataset)
    dataset.add(Claim("S8", "o13", "x"))
    with pytest.raises(DataError):
        ValueProbTable(dataset, layout=layout)
    with pytest.raises(DataError):
        ValueProbTable(ClaimDataset(list(dataset)), layout=layout)


def _world(seed=5, n_sources=14, n_objects=40):
    rng = random.Random(seed)
    claims = []
    for i in range(n_sources):
        for j in range(n_objects):
            if rng.random() < 0.5:
                truth = f"t{j}" if rng.random() < 0.7 else f"f{j}.{rng.randrange(3)}"
                claims.append(Claim(f"S{i:02d}", f"o{j:02d}", truth))
    # Two copiers of S00, so DEPEN has dependence to find.
    for copier in ("C1", "C2"):
        for claim in claims[:]:
            if claim.source == "S00" and rng.random() < 0.9:
                claims.append(Claim(copier, claim.object, claim.value))
    return claims


def _session_batches(rng, dataset, n):
    for _ in range(n):
        live = sorted((c.source, c.object) for c in dataset)
        retract = rng.sample(live, 3)
        rest = [key for key in live if key not in retract]
        corrections = [
            Claim(s, o, f"t{o[1:]}" if rng.random() < 0.5 else f"f{o[1:]}.9")
            for s, o in rng.sample(rest, 3)
        ]
        corrections = [
            c
            for c in corrections
            if c.value != dataset.value_of(c.source, c.object)
        ]
        taken = set(rest)
        adds = []
        for _ in range(4):
            key = (f"S{rng.randrange(16):02d}", f"o{rng.randrange(44):02d}")
            if key not in taken:
                taken.add(key)
                adds.append(Claim(key[0], key[1], f"t{key[1][1:]}"))
        yield MutationBatch(
            adds=tuple(adds),
            retractions=tuple(retract),
            corrections=tuple(corrections),
        )


def test_session_publishes_what_a_cold_depen_run_would():
    rng = random.Random(7)
    with Session(claims=_world()) as session:
        session.publish()
        for batch in _session_batches(rng, session.dataset, 10):
            session.apply(batch)
            snapshot = session.publish()
            dataset = session.dataset
            cold = Depen(
                session.params, session.iteration, min_overlap=session.min_overlap
            ).discover(dataset)
            expected = Snapshot.from_result(
                dataset, cold, round_id=snapshot.round_id
            )
            assert snapshot.fingerprint() == expected.fingerprint()


def test_published_snapshot_survives_later_syncs():
    rng = random.Random(11)
    with Session(claims=_world(seed=6), retention=8) as session:
        first = session.publish()
        digest = first.fingerprint()
        decisions = first.decisions()
        for batch in _session_batches(rng, session.dataset, 4):
            session.apply(batch)
            session.publish()
        first._fingerprint = None  # recompute from the arrays as they are now
        assert first.fingerprint() == digest
        assert first.decisions() == decisions
