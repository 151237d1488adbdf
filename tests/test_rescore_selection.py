"""DEPEN's one-pass restricted re-scoring selection vs the per-stamp oracle.

:func:`repro.truth.depen.select_affected` picks, each round after the
first, which pair posteriors the batched DEPEN round recomputes. It
must choose bit for bit what the per-stamp-group loop in
``tests/rescore_oracle.py`` chooses — and drop the same baselines — on
every round, so posteriors, trace counters and decisions cannot move.
Covered: both drift tolerances, the uniform and empirical evidence
models (the latter widens the entry mask to whole objects),
``overlap_policy="auto"``, and the state a mixed ``MutationBatch`` plus
``sync()`` leaves behind (stamp-0 backfilled pairs, retired pairs).
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from rescore_oracle import per_stamp_selection

from repro.core.claims import Claim
from repro.core.dataset import ClaimDataset, MutationBatch
from repro.core.params import DependenceParams, IterationParams
from repro.dependence.entrystore import ColumnarAgreeStore
from repro.dependence.streaming import StreamingDependenceEngine
from repro.generators import simple_copier_world
from repro.truth import depen as depen_module
from repro.truth.columnar import ValueProbTable
from repro.truth.depen import Depen, select_affected

MODELS = [
    {"false_value_model": "uniform"},
    {"false_value_model": "empirical"},
    # A tiny bound makes most pairs escape to the calibrated
    # (popularity-aware) treatment, so the entry mask widens per object.
    {"overlap_policy": "auto", "overlap_warning_bound": 3},
]
TOLERANCES = [0.0, 1e-4]


def _params(model):
    fields = {"overlap_warning_bound": None}
    fields.update(model)
    return DependenceParams(**fields)


@contextlib.contextmanager
def _checked_selection():
    """Run every DEPEN selection against the oracle; yield the call log.

    Each logged entry is ``(n_pairs, n_affected)`` for one round.
    """
    calls: list[tuple[int, int]] = []

    def checked(posterior, base_p, base_a, drift_p, drift_a, tol):
        expected, survivors = per_stamp_selection(
            posterior, base_p, base_a, drift_p, drift_a, tol
        )
        got = select_affected(posterior, base_p, base_a, drift_p, drift_a, tol)
        assert got.dtype == bool
        assert np.array_equal(got, expected)
        assert sorted(base_p) == survivors
        assert sorted(base_a) == survivors
        calls.append((int(got.size), int(got.sum())))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(depen_module, "select_affected", checked)
        yield calls


@st.composite
def churned_worlds(draw):
    """A claim table plus one mixed retract/correct/add batch over it."""
    n_sources = draw(st.integers(min_value=3, max_value=7))
    n_objects = draw(st.integers(min_value=3, max_value=12))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_sources - 1),
                st.integers(0, n_objects - 1),
                st.integers(0, 2),
            ),
            min_size=10,
            max_size=70,
            unique_by=lambda row: row[:2],
        )
    )
    claims = [
        Claim(source=f"S{s}", object=f"o{o:02d}", value=f"v{v}")
        for s, o, v in rows
    ]
    keys = {(c.source, c.object) for c in claims}
    retract = draw(st.sets(st.sampled_from(sorted(keys)), max_size=4))
    kept = [c for c in claims if (c.source, c.object) not in retract]
    corrected = (
        draw(st.lists(st.sampled_from(kept), max_size=3, unique=True))
        if kept
        else []
    )
    corrections = [Claim(c.source, c.object, c.value + "x") for c in corrected]
    fresh = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_sources),  # S{n_sources} is a new source
                st.integers(0, n_objects + 1),
                st.integers(0, 2),
            ),
            max_size=8,
            unique_by=lambda row: row[:2],
        )
    )
    adds = [
        Claim(f"S{s}", f"o{o:02d}", f"v{v}")
        for s, o, v in fresh
        if (f"S{s}", f"o{o:02d}") not in keys
    ]
    batch = MutationBatch(
        adds=adds, retractions=sorted(retract), corrections=corrections
    )
    return claims, batch


@given(world=churned_worlds(), data=st.data())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_depen_rounds_match_oracle(world, data):
    """Every round of a batched DEPEN run, before and after a mixed
    mutation batch, selects exactly what the per-stamp loop selects."""
    claims, batch = world
    params = _params(data.draw(st.sampled_from(MODELS)))
    it = IterationParams(
        max_rounds=12,
        accuracy_tolerance=1e-9,
        rescore_tolerance=data.draw(st.sampled_from(TOLERANCES)),
    )
    engine = StreamingDependenceEngine(ClaimDataset(claims), params=params)
    with _checked_selection() as calls:
        first = engine.run_truth(Depen(params, it))
        engine.ingest(batch)
        second = engine.run_truth(Depen(params, it))
    restricted = sum(len(r.trace) - 1 for r in (first, second))
    assert len(calls) == restricted
    traced = [
        (t.pairs_rescored, t.pairs_rescored + t.pairs_reused)
        for r in (first, second)
        for t in r.trace[1:]
    ]
    assert [(hit, n) for n, hit in calls] == traced


@given(
    world=churned_worlds(),
    model=st.sampled_from(MODELS),
    tol=st.sampled_from(TOLERANCES),
    seed=st.integers(0, 2**32 - 1),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_selection_on_synced_state(world, model, tol, seed):
    """Arbitrary stamps and baselines on the state a mutation + sync leaves.

    DEPEN itself re-stamps every pair in its first round, so a run never
    feeds the selection stamp-0 or foreign stamps; this drives it with
    them directly: backfilled pairs keep stamp 0, some positions carry a
    stamp with no baseline, and several baseline groups overlap.
    """
    claims, batch = world
    params = _params(model)
    engine = StreamingDependenceEngine(ClaimDataset(claims), params=params)
    engine.run_truth(Depen(params, IterationParams(max_rounds=3)))
    engine.ingest(batch)
    dataset = engine.dataset
    if len(dataset) == 0:
        return
    cache = engine._cache
    table = ValueProbTable(dataset)
    cache.refresh(table)
    posterior = cache.posterior_engine(params)
    n_pairs = len(posterior.pair_keys())
    rng = np.random.default_rng(seed)
    # Stamps 1..4 get baselines, 7 does not; 0 stays "never scored".
    stamps = rng.choice([0, 1, 2, 3, 4, 7], size=n_pairs)
    for stamp in (1, 2, 3, 4, 7):
        posterior.stamp_positions(np.flatnonzero(stamps == stamp), stamp)
    drift_p = rng.random(len(table))
    drift_a = rng.random(len(posterior.sources))
    step = max(tol, 1e-3)
    base_p = {}
    base_a = {}
    for stamp in (1, 2, 3, 4, 9):  # 9: a baseline no pair carries
        base_p[stamp] = drift_p - step * rng.choice(
            [0.0, 0.5, 2.0], size=drift_p.size, p=[0.9, 0.05, 0.05]
        )
        base_a[stamp] = drift_a - step * rng.choice(
            [0.0, 2.0], size=drift_a.size, p=[0.9, 0.1]
        )
    expected, survivors = per_stamp_selection(
        posterior, base_p, base_a, drift_p, drift_a, tol
    )
    got = select_affected(posterior, base_p, base_a, drift_p, drift_a, tol)
    assert np.array_equal(got, expected)
    assert sorted(base_p) == survivors == sorted(base_a)


def test_rounds_read_each_cell_at_most_once(monkeypatch):
    """No full-store scan, and at most one read of each live cell per
    round: pairs an endpoint move already settled are never scanned
    (the old loop read every cell once per stamp group)."""
    dataset, _ = simple_copier_world(
        n_objects=80, n_independent=10, n_copiers=3, accuracy=0.8, seed=11
    )
    # A unanimous cluster whose endpoints stop moving after two rounds,
    # so later rounds leave pairs for the cell scan.
    claims = list(dataset) + [
        Claim(f"una{s}", f"uobj{o:02d}", f"truth{o:02d}")
        for s in range(4)
        for o in range(20)
    ]
    scanned: list[int] = []  # cells read per flagged_segments call
    round_starts: list[int] = []  # len(scanned) as each round began
    flagged_segments = ColumnarAgreeStore.flagged_segments

    def counting(store, starts, lengths, entry_mask):
        scanned.append(int(np.sum(lengths)))
        return flagged_segments(store, starts, lengths, entry_mask)

    def forbidden(store, entry_mask):
        raise AssertionError("full-store cell scan in a DEPEN round")

    def counted(*args):
        round_starts.append(len(scanned))
        return select_affected(*args)

    monkeypatch.setattr(ColumnarAgreeStore, "flagged_segments", counting)
    monkeypatch.setattr(ColumnarAgreeStore, "flagged_sids", forbidden)
    monkeypatch.setattr(depen_module, "select_affected", counted)
    params = _params({})
    it = IterationParams(
        max_rounds=20, accuracy_tolerance=1e-9, rescore_tolerance=1e-4
    )
    engine = StreamingDependenceEngine(ClaimDataset(claims), params=params)
    result = engine.run_truth(Depen(params, it))
    live_cells = int(engine._cache._store.live()[0].size)
    assert len(round_starts) == result.rounds - 1
    assert scanned
    bounds = round_starts + [len(scanned)]
    assert max(
        sum(scanned[a:b]) for a, b in zip(bounds, bounds[1:])
    ) <= live_cells
