"""Experiment S1 — scalability of dependence discovery.

Section 1 motivates the work with "given the huge number of data sources
and the vast volume of conflicting data … doing so in a scalable manner
is extremely challenging". We measure DEPEN runtime as the number of
sources and objects grows; expected shape: roughly quadratic in the
number of overlapping sources (pairwise analysis dominates), roughly
linear in objects.

This module also carries the before/after benchmark for the batch
evidence engine: the per-pair reference path (``batch=False``) versus
:class:`~repro.dependence.evidence.EvidenceCache` reused across rounds,
plus a round-scaling case showing the structural pass amortising, the
ingest-vs-rebuild curve for incremental (dirty-object) maintenance, the
serial-vs-sharded structural sweep
(:mod:`repro.dependence.sharding`), the restricted posterior
re-scoring of the streaming engine, and the columnar truth rounds
(:mod:`repro.truth.columnar`) against the dict oracle of
``tests/truth_oracle.py``.

Headline speedups are recorded through the ``bench_record`` fixture and
land in ``BENCH_scalability.json`` (see ``conftest.py``), which CI
uploads as a workflow artifact — the persistent perf trajectory.
"""

from __future__ import annotations

import os
import random
import time
from itertools import accumulate

import numpy as np

from repro.core.claims import Claim
from repro.core.dataset import ClaimDataset, MutationBatch
from repro.core.params import DependenceParams, IterationParams
from repro.dependence.bayes import (
    PairDependence,
    collect_evidence,
    pair_posterior,
    uniform_value_probabilities,
)
from repro.dependence.evidence import EvidenceCache
from repro.dependence.graph import DependenceGraph, discover_dependence
from repro.dependence.streaming import StreamingDependenceEngine
from repro.eval import render_table
from repro.generators import simple_copier_world
from repro.truth import Depen
from repro.truth.columnar import TruthLayout, TruthRoundEngine
from truth_oracle import all_discounted_vote_counts, dependence_matrix, depen_oracle

# Shared CI runners have noisy neighbours and shifting CPU frequency;
# wall-clock ratios measured there gate with looser thresholds so the
# numerical-equivalence assertions (which never flake) stay the real
# gate. Local runs keep the strict acceptance thresholds.
_ON_CI = bool(os.environ.get("CI"))


def _run(n_sources: int, n_objects: int) -> float:
    dataset, _ = simple_copier_world(
        n_objects=n_objects,
        n_independent=n_sources - 2,
        n_copiers=2,
        accuracy=0.8,
        seed=5,
    )
    algo = Depen(iteration=IterationParams(max_rounds=3))
    started = time.perf_counter()
    algo.discover(dataset)
    return time.perf_counter() - started


def test_scaling_in_sources(benchmark):
    benchmark.pedantic(lambda: _run(12, 150), rounds=1, iterations=1)
    rows = []
    timings = {}
    for n_sources in (6, 12, 24):
        seconds = _run(n_sources, 150)
        timings[n_sources] = seconds
        rows.append([n_sources, 150, seconds])
    print()
    print("S1: DEPEN runtime vs #sources (pairwise analysis dominates)")
    print(render_table(["sources", "objects", "seconds"], rows))

    # Quadratic-ish growth in sources: 4x sources should cost clearly
    # more than 2x, but stay sane.
    assert timings[24] > timings[6]
    assert timings[24] < 600


def test_scaling_in_objects(benchmark):
    benchmark.pedantic(lambda: _run(10, 200), rounds=1, iterations=1)
    rows = []
    timings = {}
    for n_objects in (100, 200, 400):
        seconds = _run(10, n_objects)
        timings[n_objects] = seconds
        rows.append([10, n_objects, seconds])
    print()
    print("S1: DEPEN runtime vs #objects (roughly linear)")
    print(render_table(["sources", "objects", "seconds"], rows))

    assert timings[400] > timings[100] * 1.2
    assert timings[400] < timings[100] * 30


def _pair_sweep_inputs(n_sources: int, n_objects: int, seed: int = 11):
    dataset, _ = simple_copier_world(
        n_objects=n_objects,
        n_independent=n_sources - 4,
        n_copiers=4,
        accuracy=0.8,
        seed=seed,
    )
    value_probs = uniform_value_probabilities(dataset)
    accuracies = {s: 0.8 for s in dataset.sources}
    return dataset, value_probs, accuracies


def test_pair_sweep_batch_vs_per_pair(benchmark, bench_record):
    """Before/after: per-pair evidence collection vs the batch engine.

    The 50-source workload of the acceptance criterion: ~1225 candidate
    pairs over 300 objects, three dependence rounds (evidence refreshed
    per round, structural cache built once). The batch engine must be at
    least 5x faster than the per-pair reference path.
    """
    dataset, value_probs, accuracies = _pair_sweep_inputs(50, 300)
    params = DependenceParams()
    rounds = 3
    candidate_pairs = sorted(dataset.co_coverage_counts(1))
    benchmark.pedantic(
        lambda: discover_dependence(
            dataset, value_probs, accuracies, params,
            candidate_pairs=candidate_pairs,
        ),
        rounds=1,
        iterations=1,
    )

    def time_per_pair() -> float:
        nonlocal legacy
        started = time.perf_counter()
        for _ in range(rounds):
            legacy = discover_dependence(
                dataset,
                value_probs,
                accuracies,
                params,
                candidate_pairs=candidate_pairs,
                batch=False,
            )
        return time.perf_counter() - started

    def time_batch() -> float:
        nonlocal batched
        started = time.perf_counter()
        cache = EvidenceCache(dataset, candidate_pairs, params=params)
        for _ in range(rounds):
            batched = discover_dependence(
                dataset, value_probs, accuracies, params, evidence_cache=cache
            )
        return time.perf_counter() - started

    # Best-of-2, interleaved, so a CPU-frequency shift or a noisy
    # neighbour during one window doesn't decide the comparison.
    legacy = batched = None
    p1, b1 = time_per_pair(), time_batch()
    p2, b2 = time_per_pair(), time_batch()
    per_pair_seconds = min(p1, p2)
    batch_seconds = min(b1, b2)

    # Same posteriors from both paths (the engine is a pure optimisation).
    assert len(batched) == len(legacy)
    worst = max(
        abs(batched.get(p.s1, p.s2).p_dependent - p.p_dependent)
        for p in legacy
    )
    assert worst < 1e-9

    speedup = per_pair_seconds / batch_seconds
    print()
    print("S1: dependence pair sweep, per-pair path vs batch engine")
    print(
        render_table(
            ["path", "pairs", "rounds", "seconds"],
            [
                ["per-pair", len(candidate_pairs), rounds, per_pair_seconds],
                ["batch", len(candidate_pairs), rounds, batch_seconds],
                ["speedup", "", "", speedup],
            ],
        )
    )
    bench_record(
        "batch_vs_per_pair",
        {
            "workload": "50 sources x 300 objects, 3 rounds",
            "pairs": len(candidate_pairs),
            "per_pair_seconds": per_pair_seconds,
            "batch_seconds": batch_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= (2.0 if _ON_CI else 5.0)


def test_pair_posterior_batch_vs_scalar(benchmark, bench_record):
    """The posterior step alone: batched kernel vs the scalar loop.

    The 50-source workload (~1225 pairs) with the evidence already
    refreshed — this isolates exactly the cost the batched engine
    removes from a DEPEN round. The scalar path calls
    ``pair_posterior`` once per pair over the collected evidence; the
    batched engine computes every posterior in one array pass over the
    columnar layout. The posteriors must be bit-for-bit identical; the
    acceptance floor is 3x.
    """
    dataset, value_probs, accuracies = _pair_sweep_inputs(50, 300)
    params = DependenceParams()
    cache = EvidenceCache(dataset, params=params)
    evidence = cache.collect_all(value_probs)
    engine = cache.posterior_engine(params)
    rounds = 5
    benchmark.pedantic(
        lambda: engine.posterior_pairs(accuracies), rounds=1, iterations=1
    )

    def time_scalar() -> float:
        nonlocal scalar_pairs
        started = time.perf_counter()
        for _ in range(rounds):
            scalar_pairs = [
                pair_posterior(ev, accuracies[s1], accuracies[s2], params)
                for (s1, s2), ev in evidence.items()
            ]
        return time.perf_counter() - started

    def time_batch() -> float:
        # posterior_arrays is what the fused DEPEN loop consumes (the
        # posteriors go straight into the dependence matrix); the
        # PairDependence wrapper below is only for the equality check.
        started = time.perf_counter()
        for _ in range(rounds):
            engine.posterior_arrays(accuracies)
        return time.perf_counter() - started

    # Best-of-2, interleaved, so a CPU-frequency shift or a noisy
    # neighbour during one window doesn't decide the comparison.
    scalar_pairs = None
    s1, b1 = time_scalar(), time_batch()
    s2, b2 = time_scalar(), time_batch()
    scalar_seconds = min(s1, s2) / rounds
    batch_seconds = min(b1, b2) / rounds

    # The kernel is a pure optimisation: identical posteriors, bitwise.
    batch_pairs = engine.posterior_pairs(accuracies)
    assert len(batch_pairs) == len(scalar_pairs)
    for got, want in zip(batch_pairs, scalar_pairs):
        assert (got.s1, got.s2) == (want.s1, want.s2)
        assert got.p_independent == want.p_independent
        assert got.p_s1_copies_s2 == want.p_s1_copies_s2
        assert got.p_s2_copies_s1 == want.p_s2_copies_s1

    speedup = scalar_seconds / batch_seconds
    print()
    print("S1: posterior step, scalar pair_posterior loop vs batched kernel")
    print(
        render_table(
            ["path", "pairs", "seconds/round"],
            [
                ["scalar", len(batch_pairs), scalar_seconds],
                ["batch", len(batch_pairs), batch_seconds],
                ["speedup", "", speedup],
            ],
        )
    )
    bench_record(
        "pair_posterior_batch",
        {
            "workload": "50 sources x 300 objects, posterior step only",
            "pairs": len(batch_pairs),
            "scalar_seconds_per_round": scalar_seconds,
            "batch_seconds_per_round": batch_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= (3.0 if _ON_CI else 4.0)


def test_pair_sweep_round_scaling(benchmark):
    """Round-to-round caching: extra rounds only pay the soft refresh.

    With the structural pass amortised, 8 rounds must cost well under
    8x one round (the first round carries the cache build).
    """
    dataset, value_probs, accuracies = _pair_sweep_inputs(30, 300)
    params = DependenceParams()
    benchmark.pedantic(
        lambda: EvidenceCache(dataset, params=params), rounds=1, iterations=1
    )

    def run(rounds: int) -> float:
        started = time.perf_counter()
        cache = EvidenceCache(dataset, params=params)
        for _ in range(rounds):
            discover_dependence(
                dataset, value_probs, accuracies, params, evidence_cache=cache
            )
        return time.perf_counter() - started

    rows = []
    timings = {}
    for rounds in (1, 2, 4, 8):
        timings[rounds] = run(rounds)
        rows.append([rounds, timings[rounds]])
    print()
    print("S1: dependence-step time vs rounds (structural pass amortises)")
    print(render_table(["rounds", "seconds"], rows))

    # Amortisation: the marginal cost of an extra round (soft refresh +
    # posteriors) stays below a full from-scratch dependence step.
    marginal = (timings[8] - timings[1]) / 7
    assert timings[8] < timings[1] * 8
    assert marginal < timings[1] * (2.0 if _ON_CI else 1.0)


def test_round_refresh_columnar_vs_list(benchmark, bench_record):
    """The per-round evidence path: columnar entry store vs per-pair walk.

    The 50-source workload (~1225 pairs, ~235k agreement references):
    after the structural pass is amortised, every DEPEN round still pays
    ``refresh(value_probs)`` plus evidence assembly for all pairs. The
    reference re-walks each pair's overlap with
    :func:`~repro.dependence.bayes.collect_evidence`, a Python loop per
    pair; the columnar store is a gather plus two sequential
    ``bincount`` segment sums reading straight off the arrays. The
    acceptance floor is 2x, and every pair's ``kt``/``kf``/``kd``/
    ``shared_count`` must be bit-for-bit the walk's.
    """
    dataset, value_probs, _ = _pair_sweep_inputs(50, 300)
    rounds = 6
    # The bound targets exactly this model combination at this overlap;
    # silenced so the bench log stays about performance.
    params = DependenceParams(overlap_warning_bound=None)
    benchmark.pedantic(
        lambda: EvidenceCache(dataset, params=params), rounds=1, iterations=1
    )
    cache = EvidenceCache(dataset, params=params)
    cache.collect_all(value_probs)  # warm structural state
    pairs = cache.pairs

    def time_rounds(collect):
        best, collected = float("inf"), None
        for _ in range(2):  # best-of-2: noisy-neighbour insurance
            started = time.perf_counter()
            for _ in range(rounds):
                collected = collect()
            best = min(best, time.perf_counter() - started)
        return best / rounds, collected

    walk_seconds, walk_evidence = time_rounds(
        lambda: {
            (s1, s2): collect_evidence(dataset, s1, s2, value_probs)
            for s1, s2 in pairs
        }
    )
    columnar_seconds, columnar_evidence = time_rounds(
        lambda: cache.collect_all(value_probs)
    )

    # The store layout is never observable: identical counts, bitwise.
    assert columnar_evidence.keys() == walk_evidence.keys()
    for key, got in columnar_evidence.items():
        want = walk_evidence[key]
        assert got.kt_soft == want.kt_soft, key
        assert got.kf_soft == want.kf_soft, key
        assert got.kd == want.kd, key
        assert got.shared_count == want.shared_count, key

    speedup = walk_seconds / columnar_seconds
    print()
    print("S1: per-round evidence, per-pair walk vs columnar store")
    print(
        render_table(
            ["path", "pairs", "seconds/round"],
            [
                ["per-pair walk", len(walk_evidence), walk_seconds],
                ["columnar", len(columnar_evidence), columnar_seconds],
                ["speedup", "", speedup],
            ],
        )
    )
    bench_record(
        "round_refresh",
        {
            "workload": "50 sources x 300 objects, per-round evidence path",
            "pairs": len(columnar_evidence),
            "walk_seconds_per_round": walk_seconds,
            "columnar_seconds_per_round": columnar_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= (1.5 if _ON_CI else 2.0)


def test_truth_round_columnar_vs_dict(benchmark, bench_record):
    """The iterative truth rounds: columnar array kernels vs dict oracle.

    The 50-source workload under a full DEPEN run (6 rounds): the dict
    oracle (``tests/truth_oracle.py``) re-walks Python dicts for vote
    discounting, softmax decisions and accuracy re-estimation every
    round and scores every pair with the scalar ``pair_posterior``;
    ``Depen`` runs the same four steps as array kernels over a
    ``ValueProbTable`` that the evidence cache consumes positionally,
    with the pair posteriors coming from the batched kernel
    (:mod:`repro.dependence.bayes_batch`) fused into the round. Results
    must be bit-for-bit identical; the acceptance floor is 2.5x.
    """
    dataset, _, _ = _pair_sweep_inputs(50, 300)
    rounds = 6
    params = DependenceParams(overlap_warning_bound=None)
    it = IterationParams(max_rounds=rounds)
    benchmark.pedantic(
        lambda: Depen(params, IterationParams(max_rounds=1)).discover(dataset),
        rounds=1,
        iterations=1,
    )

    def run(discover):
        best, result = float("inf"), None
        for _ in range(2):  # best-of-2: noisy-neighbour insurance
            started = time.perf_counter()
            result = discover()
            best = min(best, time.perf_counter() - started)
        return best, result

    dict_seconds, dict_result = run(lambda: depen_oracle(dataset, params, it))
    columnar_seconds, columnar_result = run(
        lambda: Depen(params, it).discover(dataset)
    )

    # The kernels are a pure optimisation: identical results, bitwise.
    assert columnar_result.decisions == dict_result.decisions
    assert columnar_result.distributions == dict_result.distributions
    assert columnar_result.accuracies == dict_result.accuracies

    speedup = dict_seconds / columnar_seconds
    print()
    print("S1: full DEPEN truth rounds, dict oracle vs columnar kernels")
    print(
        render_table(
            ["path", "rounds", "seconds"],
            [
                ["dict oracle", rounds, dict_seconds],
                ["columnar", rounds, columnar_seconds],
                ["speedup", "", speedup],
            ],
        )
    )

    bench_record(
        "truth_round",
        {
            "workload": "50 sources x 300 objects, 6-round DEPEN run",
            "pairs": len(columnar_result.dependence),
            "dict_seconds": dict_seconds,
            "columnar_seconds": columnar_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= (2.5 if _ON_CI else 2.6)


def test_depen_vote_kernel_wide_groups(benchmark, bench_record):
    """DEPEN's discounted vote counts on wide slot groups: kernel vs dict path.

    Shaped like perfbench's dense-rounds world: 120 sources each claim
    180 of 600 objects, so an object's true-value slot groups up to ~45
    providers, and the dependence graph holds every source pair. Each
    call brings a new accuracy ranking, so the columnar kernel re-sorts
    its claims and re-gathers its pair codes every time, as in a run
    whose ranking has not settled; the factor geometry is built once.
    Counts must be bit-for-bit the dict path's; the acceptance floor is
    20x (10x on CI).
    """
    rng = random.Random(41)
    objects = [f"o{i:03d}" for i in range(600)]
    claims = []
    for i in range(120):
        accuracy = rng.uniform(0.6, 0.95)
        for obj in rng.sample(objects, 180):
            value = "t" if rng.random() < accuracy else f"f{rng.randrange(100)}"
            claims.append(Claim(f"s{i:03d}", obj, value))
    dataset = ClaimDataset(claims)
    engine = TruthRoundEngine(dataset)
    sources = engine.sources
    graph = DependenceGraph()
    for i, a in enumerate(sources):
        for b in sources[i + 1 :]:
            p = rng.random() ** 4  # mostly near-independent, a few copiers
            graph.add(PairDependence(a, b, 1.0 - p, p / 2, p / 2))
    dep = dependence_matrix(graph, sources)
    rankings = [
        [rng.uniform(0.6, 0.95) for _ in sources] for _ in range(4)
    ]
    layout = engine.table.layout
    max_group = int(max(np.diff(layout.slot_starts).tolist()))

    def columnar_calls():
        out = []
        for accs in rankings:
            clamped = np.array(accs)
            out.append(
                engine.depen_counts(engine.scores(clamped, 100), dep, 0.8, clamped)
            )
        return out

    benchmark.pedantic(columnar_calls, rounds=1, iterations=1)
    columnar_times = []
    for _ in range(5):  # best-of-5: noisy-neighbour insurance
        started = time.perf_counter()
        counts = columnar_calls()
        columnar_times.append(time.perf_counter() - started)
    started = time.perf_counter()
    reference = []
    for accs in rankings:
        scores = engine.scores(np.array(accs), 100).tolist()
        reference.append(
            all_discounted_vote_counts(
                dataset,
                dict(zip(sources, scores)),
                graph,
                0.8,
                dict(zip(sources, accs)),
            )
        )
    dict_seconds = time.perf_counter() - started
    for got, expected in zip(counts, reference):
        for obj, by_value in expected.items():
            for value, count in by_value.items():
                assert got[layout.slot(obj, value)] == count  # bitwise

    columnar_seconds = min(columnar_times)
    speedup = dict_seconds / columnar_seconds
    print()
    print("S1: DEPEN vote counts, wide groups, a new ranking every call")
    print(
        render_table(
            ["path", "calls", "seconds"],
            [
                ["dict", len(rankings), dict_seconds],
                ["columnar", len(rankings), columnar_seconds],
                ["speedup", "", speedup],
            ],
        )
    )
    bench_record(
        "depen_vote_kernel",
        {
            "workload": "120 sources x 600 objects, 180 claims each, all pairs",
            "claims": len(dataset),
            "max_group": max_group,
            "calls": len(rankings),
            "dict_seconds": dict_seconds,
            "columnar_seconds": columnar_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= (10.0 if _ON_CI else 20.0)


def test_ingest_vs_rebuild_scaling(benchmark, bench_record):
    """Incremental maintenance scales with the dirty set, not the dataset.

    The 50-source workload again: a slice of objects receives late
    claims. The incremental path (batch ingest + dirty-object sync +
    evidence refresh) is compared with a cold rebuild of the evidence
    cache on the final dataset followed by the same refresh. Acceptance:
    >=5x faster when <10% of the objects are dirty — and the two paths'
    evidence must be bit-for-bit identical.
    """
    dataset_full, _ = simple_copier_world(
        n_objects=300, n_independent=46, n_copiers=4, accuracy=0.8, seed=11
    )
    claims = list(dataset_full)
    objects = sorted({c.object for c in claims})
    late_sources = set(sorted({c.source for c in claims})[:5])
    params = DependenceParams()

    def split(fraction):
        dirty = set(objects[: int(len(objects) * fraction)])
        holdout = [
            c for c in claims if c.object in dirty and c.source in late_sources
        ]
        base = [
            c
            for c in claims
            if not (c.object in dirty and c.source in late_sources)
        ]
        return base, holdout

    def measure(fraction):
        base, holdout = split(fraction)
        dataset = ClaimDataset(base)
        cache = EvidenceCache(dataset, params=params)
        cache.collect_all(uniform_value_probabilities(dataset))  # warm state

        started = time.perf_counter()
        dataset.add_claims(holdout)
        cache.sync()
        probs = uniform_value_probabilities(dataset)
        incremental = cache.collect_all(probs)
        incremental_seconds = time.perf_counter() - started

        started = time.perf_counter()
        cold_cache = EvidenceCache(dataset, params=params)
        cold = cold_cache.collect_all(probs)
        rebuild_seconds = time.perf_counter() - started

        assert incremental == cold  # bit-for-bit, PairEvidence equality
        return len(holdout), incremental_seconds, rebuild_seconds

    benchmark.pedantic(lambda: measure(0.05), rounds=1, iterations=1)
    rows = []
    speedups = {}
    for fraction in (0.02, 0.05, 0.10):
        # Best-of-2 per path so one noisy window doesn't decide it.
        n1, i1, r1 = measure(fraction)
        _, i2, r2 = measure(fraction)
        incremental_seconds = min(i1, i2)
        rebuild_seconds = min(r1, r2)
        speedups[fraction] = rebuild_seconds / incremental_seconds
        rows.append(
            [
                f"{fraction:.0%}",
                n1,
                incremental_seconds,
                rebuild_seconds,
                speedups[fraction],
            ]
        )
    print()
    print("S1: incremental ingest vs cold rebuild (50 sources, 300 objects)")
    print(
        render_table(
            ["dirty", "claims", "incremental s", "rebuild s", "speedup"],
            rows,
        )
    )
    bench_record(
        "ingest_vs_rebuild",
        {
            "workload": "50 sources x 300 objects",
            "speedups_by_dirty_fraction": {
                f"{fraction:.0%}": speedup
                for fraction, speedup in speedups.items()
            },
        },
    )
    floor = 2.0 if _ON_CI else 5.0
    for fraction, speedup in speedups.items():
        assert speedup >= floor, (fraction, speedup)


def test_mutation_sync_vs_rebuild(benchmark, bench_record):
    """Retraction/correction repair scales with the dirty set too.

    The 50-source workload with a mixed mutation batch: five sources
    retract their claims on 10% of the objects and five more correct
    theirs — well under 10% of all claims mutated. The incremental path
    (one ``apply`` + inverse-delta ``sync`` + evidence refresh) is
    compared with a cold rebuild of the evidence cache on the mutated
    dataset followed by the same refresh. Acceptance: >=3x faster, and
    the two paths' evidence must be bit-for-bit identical.
    """
    dataset_full, _ = simple_copier_world(
        n_objects=300, n_independent=46, n_copiers=4, accuracy=0.8, seed=11
    )
    claims = list(dataset_full)
    objects = sorted({c.object for c in claims})
    sources = sorted({c.source for c in claims})
    dirty = set(objects[: int(len(objects) * 0.10)])
    retracting = set(sources[:5])
    correcting = set(sources[5:10])
    batch = MutationBatch(
        retractions=tuple(
            (c.source, c.object)
            for c in claims
            if c.object in dirty and c.source in retracting
        ),
        corrections=tuple(
            Claim(source=c.source, object=c.object, value=f"{c.value}'")
            for c in claims
            if c.object in dirty and c.source in correcting
        ),
    )
    mutated_fraction = len(batch) / len(claims)
    assert mutated_fraction <= 0.10
    params = DependenceParams()

    def measure():
        dataset = ClaimDataset(claims)
        cache = EvidenceCache(dataset, params=params)
        cache.collect_all(uniform_value_probabilities(dataset))  # warm state

        started = time.perf_counter()
        dataset.apply(batch)
        cache.sync()
        probs = uniform_value_probabilities(dataset)
        incremental = cache.collect_all(probs)
        incremental_seconds = time.perf_counter() - started

        started = time.perf_counter()
        cold_cache = EvidenceCache(dataset, params=params)
        cold = cold_cache.collect_all(probs)
        rebuild_seconds = time.perf_counter() - started

        assert incremental == cold  # bit-for-bit, PairEvidence equality
        return incremental_seconds, rebuild_seconds

    benchmark.pedantic(measure, rounds=1, iterations=1)
    # Best-of-2 per path so one noisy window doesn't decide it.
    i1, r1 = measure()
    i2, r2 = measure()
    incremental_seconds = min(i1, i2)
    rebuild_seconds = min(r1, r2)
    speedup = rebuild_seconds / incremental_seconds
    print()
    print(
        "S1: mixed mutation batch, inverse-delta sync vs cold rebuild "
        "(50 sources, 300 objects)"
    )
    print(
        render_table(
            ["path", "mutations", "seconds"],
            [
                ["sync", len(batch), incremental_seconds],
                ["rebuild", len(batch), rebuild_seconds],
                ["speedup", "", speedup],
            ],
        )
    )
    bench_record(
        "mutation_sync",
        {
            "workload": "50 sources x 300 objects, retract+correct batch",
            "mutations": len(batch),
            "claims": len(claims),
            "mutated_fraction": mutated_fraction,
            "incremental_seconds": incremental_seconds,
            "rebuild_seconds": rebuild_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= (3.0 if _ON_CI else 3.5)


def _zipf_world(n_sources: int, n_objects: int, per_source: int, seed: int):
    """Claims of a Zipf(0.7) world: object popularity falls with rank."""
    rng = random.Random(seed)
    objects = [f"o{i:05d}" for i in range(n_objects)]
    weights = list(accumulate(1.0 / (rank + 1) ** 0.7 for rank in range(n_objects)))
    claims = []
    for i in range(n_sources):
        accuracy = rng.uniform(0.5, 0.95)
        for obj in set(rng.choices(objects, cum_weights=weights, k=per_source)):
            value = "t" if rng.random() < accuracy else f"f{rng.randrange(5)}"
            claims.append(Claim(f"s{i:04d}", obj, value))
    return claims, objects, rng


def test_truth_layout_sync_vs_rebuild(benchmark, bench_record):
    """DEPEN's truth layout: a sync through the mutation log vs a cold build.

    A 1,000-source Zipf(0.7) world over 20,000 objects (~25k claims).
    After a mixed batch mutating ~0.5% of the claims (retractions,
    corrections and adds, new objects included),
    :meth:`~repro.truth.columnar.TruthLayout.sync` from the previous
    layout rebuilds only the dirty objects' and sources' segments; the
    cold build walks every claim. The two layouts must be bit-for-bit
    identical; the acceptance floor is 4x (3x on CI).
    """
    claims, objects, rng = _zipf_world(1_000, 20_000, 25, seed=21)
    n_mutations = round(0.005 * len(claims))
    dataset = ClaimDataset(claims)

    def batch():
        live = sorted((c.source, c.object) for c in dataset)
        picked = rng.sample(live, n_mutations)
        third = n_mutations // 3
        retractions = tuple(picked[:third])
        corrections = tuple(
            Claim(s, o, f"f{rng.randrange(5)}'") for s, o in picked[third : 2 * third]
        )
        taken = set(live)
        adds = []
        while len(adds) < n_mutations - 2 * third:
            key = (f"s{rng.randrange(1_000):04d}", rng.choice(objects))
            if key not in taken:
                taken.add(key)
                adds.append(Claim(key[0], key[1], "t"))
        return MutationBatch(
            adds=tuple(adds), retractions=retractions, corrections=corrections
        )

    layout = TruthLayout.sync(dataset)
    benchmark.pedantic(lambda: TruthLayout.sync(dataset), rounds=1, iterations=1)
    sync_times, cold_times = [], []
    for _ in range(3):  # best-of-3: noisy-neighbour insurance
        dataset.apply(batch())
        started = time.perf_counter()
        synced = TruthLayout.sync(dataset, layout)
        sync_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        cold = TruthLayout.sync(dataset)
        cold_times.append(time.perf_counter() - started)
        for name in ("bounds", "counts", "claim_src", "acc_slot", "acc_src"):
            assert getattr(synced, name).tobytes() == getattr(cold, name).tobytes()
        assert synced.slot_values == cold.slot_values
        assert synced.value_offsets == cold.value_offsets
        layout = synced
    sync_seconds, rebuild_seconds = min(sync_times), min(cold_times)
    speedup = rebuild_seconds / sync_seconds
    print()
    print("S1: truth layout after a 0.5% mutation batch, sync vs cold build")
    print(
        render_table(
            ["path", "mutations", "seconds"],
            [
                ["sync", n_mutations, sync_seconds],
                ["cold build", n_mutations, rebuild_seconds],
                ["speedup", "", speedup],
            ],
        )
    )
    bench_record(
        "truth_layout_sync_vs_rebuild",
        {
            "workload": "1,000 sources x 20,000 Zipf(0.7) objects, 0.5% batch",
            "claims": len(dataset),
            "mutations": n_mutations,
            "sync_seconds": sync_seconds,
            "rebuild_seconds": rebuild_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= (3.0 if _ON_CI else 4.0)


def test_sweep_serial_vs_sharded(benchmark, bench_record):
    """The sharded parallel structural sweep vs the serial pass.

    The 50-source workload scaled to 600 objects (~1225 candidate pairs,
    ~735k pair records): the full structural pass — candidate-pair
    generation plus the evidence sweep — under the serial backend, the
    in-process vectorised ``numpy`` backend, and the ``process`` backend
    at 1, 2 and 4 workers. Results must be bit-for-bit identical in
    every configuration; the speedup assertions adapt to the host: the
    vectorised sweep must always win clearly, and with >= 4 CPUs the
    4-worker pool must clear the 2x acceptance floor.
    """
    dataset, _ = simple_copier_world(
        n_objects=600, n_independent=46, n_copiers=4, accuracy=0.8, seed=11
    )
    probs = uniform_value_probabilities(dataset)
    benchmark.pedantic(
        lambda: EvidenceCache(dataset, params=DependenceParams()),
        rounds=1,
        iterations=1,
    )

    def build_seconds(params) -> tuple[float, EvidenceCache]:
        best, cache = float("inf"), None
        for _ in range(2):  # best-of-2: noisy-neighbour insurance
            started = time.perf_counter()
            cache = EvidenceCache(dataset, params=params)
            best = min(best, time.perf_counter() - started)
        return best, cache

    serial_seconds, serial_cache = build_seconds(DependenceParams())
    reference = serial_cache.collect_all(probs)

    timings: dict[str, float] = {}
    configs = [("numpy", DependenceParams(parallel_backend="numpy"))]
    configs += [
        (
            f"process_{workers}",
            DependenceParams(parallel_backend="process", num_workers=workers),
        )
        for workers in (1, 2, 4)
    ]
    for label, params in configs:
        seconds, cache = build_seconds(params)
        timings[label] = seconds
        # The sharded sweep is a pure execution change: identical output.
        assert cache.collect_all(probs) == reference, label

    rows = [["serial", 1, serial_seconds, 1.0]]
    speedups = {}
    for label, seconds in timings.items():
        workers = int(label.rsplit("_", 1)[1]) if "_" in label else 1
        speedups[label] = serial_seconds / seconds
        rows.append([label, workers, seconds, speedups[label]])
    print()
    print(
        "S1: structural evidence sweep, serial vs sharded "
        "(50 sources, 600 objects)"
    )
    print(render_table(["backend", "workers", "seconds", "speedup"], rows))

    cpus = os.cpu_count() or 1
    bench_record(
        "serial_vs_sharded",
        {
            "workload": "50 sources x 600 objects, structural sweep",
            "serial_seconds": serial_seconds,
            "seconds": timings,
            "speedups": speedups,
            "cpu_count": cpus,
        },
    )
    # The vectorised sweep path must beat serial decisively; as with
    # the other wall-clock gates, shared CI runners get a looser floor
    # so the bit-for-bit equality asserts stay the real gate.
    assert speedups["numpy"] >= (1.1 if _ON_CI else 1.25)
    # The acceptance floor — 2x at 4 workers — needs 4 CPUs to mean
    # anything; on smaller hosts the numbers are recorded, not gated.
    if cpus >= 4:
        assert max(speedups["process_4"], speedups["numpy"]) >= 2.0


def test_streaming_rescore_restriction(benchmark, bench_record):
    """Restricted re-scoring: discover() after a small ingest re-scores
    only the affected pairs, and matches a full re-score bit for bit.

    Sparse coverage matters here: a dirty object re-scores every pair
    agreeing on it (its value probabilities move), so on a world where
    every source covers every object a handful of dirty objects touches
    every pair — correctly. The workload below covers 30% of objects
    per source, the realistic shape for the restriction to pay off.
    """
    import random

    rng = random.Random(11)
    objects = [f"o{i:03d}" for i in range(300)]
    claims = [
        Claim(
            source=f"S{i:02d}",
            object=obj,
            value=f"v{rng.randrange(4)}",
        )
        for i in range(50)
        for obj in rng.sample(objects, 90)
    ]
    dirty = set(objects[:3])  # 1% of the object universe arrives late
    late_sources = {f"S{i:02d}" for i in range(5)}
    holdout = [
        c for c in claims if c.object in dirty and c.source in late_sources
    ]
    held = set(holdout)
    base = [c for c in claims if c not in held]
    benchmark.pedantic(
        lambda: StreamingDependenceEngine(), rounds=1, iterations=1
    )

    engine = StreamingDependenceEngine()
    engine.ingest(base)
    engine.discover()  # full first pass establishes the reuse baseline
    engine.ingest(holdout)
    started = time.perf_counter()
    restricted_graph = engine.discover()
    restricted_seconds = time.perf_counter() - started
    stats = engine.last_discover_stats

    cold = StreamingDependenceEngine(
        dataset=ClaimDataset(list(engine.dataset))
    )
    started = time.perf_counter()
    full_graph = cold.discover()
    full_seconds = time.perf_counter() - started

    assert stats["restricted"] is True
    assert stats["rescored"] < stats["pairs"]
    assert len(restricted_graph) == len(full_graph)
    for pair in full_graph:
        assert restricted_graph.get(pair.s1, pair.s2) == pair

    speedup = full_seconds / restricted_seconds
    print()
    print("S1: streaming discover, restricted re-scoring vs full re-score")
    print(
        render_table(
            ["path", "pairs", "rescored", "seconds"],
            [
                ["full", stats["pairs"], stats["pairs"], full_seconds],
                [
                    "restricted",
                    stats["pairs"],
                    stats["rescored"],
                    restricted_seconds,
                ],
                ["speedup", "", "", speedup],
            ],
        )
    )
    bench_record(
        "streaming_rescore",
        {
            "workload": "50 sources x 300 objects, 30% coverage, 1% dirty",
            "pairs": stats["pairs"],
            "rescored": stats["rescored"],
            "reused": stats["reused"],
            "restricted_seconds": restricted_seconds,
            "full_seconds": full_seconds,
            "speedup": speedup,
        },
    )
    # The restriction must drop most of the posterior work on a small
    # dirty fraction; wall-clock is recorded but the pair counter is the
    # stable gate (posterior math is cheap enough to be noisy).
    assert stats["rescored"] <= stats["pairs"] * 0.7


def test_sync_delta_bytes(benchmark, bench_record):
    """Resident-pool delta shipping: bytes serialized per ``sync()``.

    The ``resident`` backend ships each shard's packed records to its
    pinned worker once; afterwards a sync sends only the dirty objects'
    row deltas through :meth:`ShardPlan.route`. This measures exactly
    the bytes crossing the pipes (counted at ``send_bytes`` time, not
    estimated): a ≤10% dirty ingest must serialize at least 5x fewer
    bytes than the cold full-state ship — a byte count, so it cannot
    flake with CPU noise and gates at the same floor everywhere.
    """
    dataset_full, _ = simple_copier_world(
        n_objects=300, n_independent=46, n_copiers=4, accuracy=0.8, seed=11
    )
    claims = list(dataset_full)
    objects = sorted({c.object for c in claims})
    late_sources = set(sorted({c.source for c in claims})[:5])
    dirty = set(objects[: int(len(objects) * 0.10)])
    holdout = [
        c for c in claims if c.object in dirty and c.source in late_sources
    ]
    base = [
        c
        for c in claims
        if not (c.object in dirty and c.source in late_sources)
    ]
    params = DependenceParams(parallel_backend="resident", num_workers=2)
    benchmark.pedantic(
        lambda: EvidenceCache(ClaimDataset(base), params=params).close(),
        rounds=1,
        iterations=1,
    )

    dataset = ClaimDataset(base)
    cache = EvidenceCache(dataset, params=params)
    try:
        full_bytes = cache.last_build_shipped_bytes
        dataset.add_claims(holdout)
        cache.sync()
        delta_bytes = cache.last_sync_shipped_bytes
        probs = uniform_value_probabilities(dataset)
        incremental = cache.collect_all(probs)
        cold = EvidenceCache(dataset, params=DependenceParams())
        assert incremental == cold.collect_all(probs)  # bit-for-bit
    finally:
        cache.close()

    ratio = full_bytes / max(1, delta_bytes)
    dirty_fraction = len(dirty) / len(objects)
    print()
    print("S1: resident sync payloads, full state ship vs dirty-row deltas")
    print(
        render_table(
            ["payload", "dirty", "bytes"],
            [
                ["cold build (full state)", "100%", full_bytes],
                ["sync (row deltas)", f"{dirty_fraction:.0%}", delta_bytes],
                ["ratio", "", ratio],
            ],
        )
    )
    bench_record(
        "sync_delta",
        {
            "workload": "50 sources x 300 objects, resident backend",
            "objects": len(objects),
            "dirty_fraction": dirty_fraction,
            "full_payload_bytes": full_bytes,
            "delta_bytes": delta_bytes,
            "shipped_bytes_ratio": ratio,
        },
    )
    assert delta_bytes > 0
    assert ratio >= 5.0, (full_bytes, delta_bytes)


def test_recovery_overhead(benchmark, bench_record):
    """Supervised recovery: a sync through one injected worker loss.

    SIGKILL one pinned resident worker, then sync: the supervisor
    detects the loss, respawns the worker, re-ships its shards' state
    from the parent's source of truth and retries the batch — the
    caller sees nothing but latency. Both arms time the same sync (the
    last quarter of a hold-out landing on a fresh resident cache) with
    the same statistic, best of three independent trials; a recovery
    trial kills one worker of its own fresh cache first. Each repaired
    cache must be bit-for-bit a cold rebuild. Gated in
    ``check_regression.py``: recovery overhead ≤ 3x a clean sync.
    """
    import signal

    dataset_full, _ = simple_copier_world(
        n_objects=600, n_independent=46, n_copiers=4, accuracy=0.8, seed=11
    )
    claims = list(dataset_full)
    objects = sorted({c.object for c in claims})
    late_sources = set(sorted({c.source for c in claims})[:5])
    dirty = set(objects[: int(len(objects) * 0.40)])
    holdout = [
        c for c in claims if c.object in dirty and c.source in late_sources
    ]
    base = [
        c
        for c in claims
        if not (c.object in dirty and c.source in late_sources)
    ]
    last_quarter = holdout[3 * len(holdout) // 4 :]
    base += holdout[: 3 * len(holdout) // 4]
    params = DependenceParams(parallel_backend="resident", num_workers=2)
    benchmark.pedantic(
        lambda: EvidenceCache(ClaimDataset(base), params=params).close(),
        rounds=1,
        iterations=1,
    )

    def timed_sync(kill: bool):
        dataset = ClaimDataset(base)
        cache = EvidenceCache(dataset, params=params)
        try:
            if kill:
                os.kill(cache.executor.worker_pids()[0], signal.SIGKILL)
                time.sleep(0.05)
            dataset.add_claims(last_quarter)
            start = time.perf_counter()
            cache.sync()
            elapsed = time.perf_counter() - start
            health = cache.execution_health()
            probs = uniform_value_probabilities(dataset)
            incremental = cache.collect_all(probs)
        finally:
            cache.close()
        cold = EvidenceCache(dataset, params=DependenceParams())
        assert incremental == cold.collect_all(probs)  # bit-for-bit
        assert health["supervised"]
        assert health["degrades"] == 0  # recovered on the resident rung
        # The kill was actually absorbed, and only where one was made.
        assert (health["worker_losses"] >= 1) == kill
        return elapsed, health

    clean_times, recovery_times = [], []
    for _ in range(3):
        clean_times.append(timed_sync(kill=False)[0])
        elapsed, health = timed_sync(kill=True)
        recovery_times.append(elapsed)
    clean = min(clean_times)
    recovery = min(recovery_times)
    overhead_ratio = recovery / clean
    print()
    print("S1: resident sync, clean vs through one injected worker loss")
    print(
        render_table(
            ["sync", "seconds"],
            [
                ["clean (best of 3)", f"{clean:.4f}"],
                ["one worker SIGKILLed (best of 3)", f"{recovery:.4f}"],
                ["overhead ratio", f"{overhead_ratio:.2f}"],
            ],
        )
    )
    bench_record(
        "recovery",
        {
            "workload": "50 sources x 600 objects, resident backend",
            "clean_sync_s": clean,
            "recovery_sync_s": recovery,
            "worker_losses": health["worker_losses"],
            "overhead_ratio": overhead_ratio,
        },
    )
    assert overhead_ratio <= 3.0, (clean, recovery)
