"""DEPEN — the paper's core contribution, instantiated.

Section 3.2: *"A solution strategy can be devised using Bayesian analysis
by iteratively determining true values, computing accuracy of sources,
and discovering dependence between sources."*

Each round runs, in order:

1. **dependence** — pairwise copy posteriors from the *current* soft
   truth (:mod:`repro.dependence.bayes`); the first round uses the
   truth-agnostic uniform distribution over observed values, so naive
   voting's copier-boosted majorities never get baked in;
2. **voting** — dependence-discounted vote counts
   (:func:`repro.truth.vote_counting.discounted_vote_counts`): a copied
   vote is counted approximately once;
3. **truth** — per-object softmax distributions and decisions;
4. **accuracy** — soft accuracy re-estimation per source.

The loop stops when decisions are stable and accuracies have settled, or
at the round cap. On the paper's Table 1, the first round already flips
Halevy and Dalvi to the correct values and the second round recovers
Dong's AT&T — reproducing Example 3.1's "ignore the values provided by
S4 and S5 during the voting process".
"""

from __future__ import annotations

from repro.core.dataset import ClaimDataset
from repro.core.params import DependenceParams, IterationParams
from repro.dependence.bayes import (
    pair_posterior,
    uniform_value_probabilities,
)
from repro.dependence.bayes_batch import resolve_posterior_backend
from repro.dependence.evidence import EvidenceCache
from repro.dependence.graph import (
    DependenceGraph,
    PairPosteriorArrays,
    discover_dependence,
)
from repro.exceptions import ConvergenceError
from repro.truth.base import (
    ColumnarTruth,
    RoundTrace,
    TruthDiscovery,
    TruthResult,
)
from repro.truth.columnar import (
    TruthLayout,
    TruthRoundEngine,
    ValueProbTable,
    dependence_matrix,
    resolve_truth_backend,
)
from repro.truth.vote_counting import (
    VoteOrderCache,
    accuracy_score,
    all_discounted_vote_counts,
    decisions_and_distributions,
    soft_accuracies,
)


def select_affected(posterior, base_p, base_a, drift_p, drift_a, tol):
    """Per-position mask of the pairs a restricted DEPEN round re-scores.

    ``posterior`` is the round's
    :class:`~repro.dependence.bayes_batch.BatchedPosteriorEngine`;
    ``base_p``/``base_a`` map a round stamp to the cumulative entry and
    accuracy drift snapshotted when that round scored its pairs. A pair
    is affected when its stamp has no baseline (0 = never scored, or a
    stamp from before this run), when an endpoint's accuracy drift since
    its baseline exceeds ``tol``, or when one of its agreement entries'
    drift does. One selection pass per round:

    1. stamps map to baseline rows through a stamp-to-row lookup array;
    2. the endpoint test runs for every position at once, against the
       stacked accuracy baselines;
    3. only the pairs the endpoint test left unaffected have their
       agreement cells scanned, one baseline group at a time (a group
       whose entries drifted nowhere is skipped outright);
    4. baselines that no unaffected pair still carries are dropped from
       ``base_p``/``base_a`` in place — once the affected pairs are
       re-stamped this round, nothing refers to them.
    """
    import numpy as np

    stamps = posterior.stamp_array()
    known = sorted(base_p)
    if not known or not stamps.size:
        base_p.clear()
        base_a.clear()
        return np.ones(stamps.size, dtype=bool)
    lookup = np.full(
        max(known[-1], int(stamps.max())) + 1, -1, dtype=np.int64
    )
    lookup[known] = np.arange(len(known), dtype=np.int64)
    rows = lookup[stamps]
    s1c, s2c = posterior.endpoint_codes()
    moved_src = drift_a - np.stack([base_a[stamp] for stamp in known]) > tol
    safe = np.maximum(rows, 0)
    affected = (rows < 0) | moved_src[safe, s1c] | moved_src[safe, s2c]
    rest = np.flatnonzero(~affected)
    if rest.size:
        rest_rows = rows[rest]
        groups = np.bincount(rest_rows, minlength=len(known))
        for row in np.flatnonzero(groups).tolist():
            moved = drift_p - base_p[known[row]] > tol
            if not moved.any():
                continue
            group = rest[rest_rows == row]
            affected[group[posterior.moved_positions(moved, group)]] = True
    live = np.zeros(len(known), dtype=bool)
    live[rows[~affected]] = True
    for stamp, keep in zip(known, live.tolist()):
        if not keep:
            del base_p[stamp]
            del base_a[stamp]
    return affected


class Depen(TruthDiscovery):
    """Copy-aware iterative truth discovery.

    Parameters
    ----------
    params:
        The dependence model (prior ``alpha``, copy rate ``c``, ``n``
        false values). ``n`` is shared with the accuracy-score formula.
    iteration:
        Convergence controls.
    min_overlap:
        Source pairs sharing fewer objects than this are not analysed
        (treated as independent) — Example 4.1 uses 10.
    """

    name = "depen"

    def __init__(
        self,
        params: DependenceParams | None = None,
        iteration: IterationParams | None = None,
        min_overlap: int = 1,
    ) -> None:
        self.params = params or DependenceParams()
        self.iteration = iteration or IterationParams()
        self.min_overlap = min_overlap

    def discover(
        self,
        dataset: ClaimDataset,
        *,
        evidence_cache: EvidenceCache | None = None,
        layout: TruthLayout | None = None,
    ) -> TruthResult:
        """Run the iterative loop; see the module docstring.

        ``evidence_cache`` lets a streaming caller
        (:class:`~repro.dependence.streaming.StreamingDependenceEngine`)
        hand in its incrementally maintained cache, so a re-run after
        ingest pays no structural pass at all. The cache must be bound
        to this dataset and built for the same params and overlap
        prefilter — all three are checked.

        ``layout`` is the same for the truth round's structure: the
        :class:`~repro.truth.columnar.TruthLayout` of an earlier run
        over this dataset, which the run syncs through the mutation log
        (:meth:`~repro.truth.columnar.TruthLayout.sync`) instead of
        building one from every claim. The run's own layout is
        ``result.columnar.table.layout``. Results are bit-for-bit those
        of a cold run either way.
        """
        self._check_dataset(dataset)
        if evidence_cache is not None:
            evidence_cache.check_bound(dataset, self.min_overlap)
        it = self.iteration
        # The overlap structure never changes between rounds, so the
        # candidate pairs and every structural part of the pair evidence
        # are computed once; only the value_probs-dependent soft parts
        # are refreshed each round inside discover_dependence. Provider
        # orderings for the vote discount are likewise reused until the
        # accuracy ranking actually changes.
        owns_cache = evidence_cache is None
        if evidence_cache is None:
            evidence_cache = EvidenceCache(
                dataset, min_overlap=self.min_overlap, params=self.params
            )
        backend = resolve_truth_backend(self.params.truth_backend)
        try:
            if backend == "columnar":
                return self._iterate_columnar(
                    dataset, evidence_cache, it, layout
                )
            order_cache = VoteOrderCache(dataset)
            return self._iterate(
                dataset, evidence_cache, order_cache, it
            )
        finally:
            if owns_cache:
                # An internally built cache must not strand a
                # persistent worker pool (no-op under the ephemeral
                # default); a caller-supplied cache keeps its own
                # lifecycle (the streaming engine reuses it).
                evidence_cache.close()

    def _iterate(
        self,
        dataset: ClaimDataset,
        evidence_cache: EvidenceCache,
        order_cache: VoteOrderCache,
        it: IterationParams,
    ) -> TruthResult:
        accuracies = {s: it.initial_accuracy for s in dataset.sources}
        value_probs = uniform_value_probabilities(dataset)
        decisions: dict = {}
        distributions: dict = {}
        dependence = DependenceGraph()
        trace: list[RoundTrace] = []
        converged = False
        rounds = 0
        for rounds in range(1, it.max_rounds + 1):
            clamped = {s: it.clamp_accuracy(a) for s, a in accuracies.items()}
            dependence = discover_dependence(
                dataset,
                value_probs,
                clamped,
                self.params,
                min_overlap=self.min_overlap,
                evidence_cache=evidence_cache,
            )
            scores = {
                s: accuracy_score(a, self.params.n_false_values)
                for s, a in clamped.items()
            }
            counts = all_discounted_vote_counts(
                dataset,
                scores,
                dependence,
                self.params.copy_rate,
                clamped,
                order_cache=order_cache,
            )
            new_decisions, distributions = decisions_and_distributions(
                dataset, counts
            )
            new_accuracies = soft_accuracies(dataset, distributions)

            changed = sum(
                1
                for obj, value in new_decisions.items()
                if decisions.get(obj) != value
            )
            movement = max(
                abs(new_accuracies[s] - accuracies[s]) for s in new_accuracies
            )
            trace.append(
                RoundTrace(
                    round_index=rounds,
                    accuracy_change=movement,
                    decisions_changed=changed,
                )
            )
            decisions, accuracies = new_decisions, new_accuracies
            value_probs = distributions
            if movement < it.accuracy_tolerance and changed == 0 and rounds > 1:
                converged = True
                break

        if not converged and it.fail_on_max_rounds:
            raise ConvergenceError(
                f"{self.name}: no convergence in {it.max_rounds} rounds"
            )
        return TruthResult(
            decisions=decisions,
            distributions=distributions,
            accuracies=accuracies,
            dependence=dependence,
            rounds=rounds,
            converged=converged,
            trace=trace,
            dataset_version=dataset.version,
        )

    def _iterate_columnar(
        self,
        dataset: ClaimDataset,
        evidence_cache: EvidenceCache,
        it: IterationParams,
        layout: TruthLayout | None,
    ) -> TruthResult:
        """The same loop as :meth:`_iterate`, as array kernels.

        Value probabilities live in a
        :class:`~repro.truth.columnar.ValueProbTable` that the evidence
        cache consumes positionally (no per-entry dict probes) and the
        :class:`~repro.truth.columnar.TruthRoundEngine` kernels produce
        directly; results are bit-for-bit identical to the dict path
        (the kernels preserve its accumulation orders and scalar
        transcendentals — see :mod:`repro.truth.columnar`).

        Rounds after the first restrict the dependence re-scoring: a
        pair's posterior is recomputed only when some input of it moved
        — an endpoint's clamped accuracy or an agreement entry's truth
        probability drifted beyond ``it.rescore_tolerance`` since the
        round *that pair* was last scored. Drift accumulates
        monotonically; each pair's baseline is the cumulative drift
        snapshot taken the round it was stamped (per-slot round stamps
        in the columnar entry store), so a pair's baseline resets
        exactly when it is re-scored. With a list entry store there are
        no stamps and the coarser shared baseline applies: it resets
        only on rounds where every pair was re-scored, so it reuses a
        subset of what the per-pair baseline reuses. With the 0.0
        default only bitwise-unchanged inputs are reused, which is
        exact either way; the per-round counters land in the trace
        (``pairs_rescored`` / ``pairs_reused``).

        With the batched posterior backend
        (:mod:`repro.dependence.bayes_batch`, the default on a columnar
        entry store) the whole dependence step is fused. The affected
        set is a boolean mask over pair positions built in one pass per
        round (:func:`select_affected`): the cheap endpoint test runs
        first, for every pair at once against the stacked accuracy
        baselines, and agreement cells are scanned only for the pairs
        it left unaffected — on a round where every source's accuracy
        moved, no cell is read at all. The posteriors for the selected
        positions come from one
        :meth:`~repro.dependence.bayes_batch.BatchedPosteriorEngine.posterior_arrays`
        call and are written straight into the persistent dependence
        matrix — a steady-state round does no per-pair Python work at
        all. The scalar backend (``posterior_backend="scalar"``) keeps
        the per-pair :func:`~repro.dependence.bayes.pair_posterior`
        loop and the per-stamp-group selection as the bit-for-bit
        reference.
        """
        import numpy as np

        table = ValueProbTable(
            dataset, layout=TruthLayout.sync(dataset, layout)
        )
        engine = TruthRoundEngine(dataset, table)
        params = self.params
        sources = engine.sources
        src_code = table.layout.src_code
        tol = it.rescore_tolerance
        accuracies = np.full(
            engine.n_sources, it.initial_accuracy, dtype=np.float64
        )
        # Cumulative input drift. On the per-pair path (columnar entry
        # store) these grow monotonically and each stamp round keeps a
        # snapshot as its baseline; on the list path they reset whenever
        # every pair was re-scored (the shared baseline).
        drift_p = np.zeros(len(table), dtype=np.float64)
        drift_a = np.zeros(engine.n_sources, dtype=np.float64)
        per_pair = evidence_cache.entry_store == "columnar"
        batched = (
            resolve_posterior_backend(params.posterior_backend, evidence_cache)
            == "batch"
        )
        base_p: dict[int, object] = {}
        base_a: dict[int, object] = {}
        prev_clamped = None
        graph = DependenceGraph()
        winners = None
        trace: list[RoundTrace] = []
        converged = False
        rounds = 0
        # Batched-posterior state: the engine, the current per-position
        # posterior arrays and the persistent dependence matrix (only
        # re-scored positions are rewritten each round; the arrays go to
        # the result as they are, and the graph object is built only if
        # a caller reads it).
        posterior = None
        post_ind = post_12 = post_21 = None
        pair_s1c = pair_s2c = None
        dep = None
        # Endpoint-code arrays for the scalar path's vectorised
        # "pairs touching a moved source" selection; built lazily once
        # per run (the pair set is fixed across rounds).
        pair_keys: list | None = None
        key1_codes = None
        key2_codes = None
        for rounds in range(1, it.max_rounds + 1):
            clamped = engine.clamp(
                accuracies, it.accuracy_floor, it.accuracy_ceiling
            )
            if prev_clamped is not None:
                drift_a += np.abs(clamped - prev_clamped)
            if batched:
                # Fused DEPEN round: posteriors for every affected pair
                # come from one batched kernel pass and land straight in
                # the dependence matrix — zero per-pair Python work in
                # the steady state. The accuracy vector is already in
                # engine-source order, so no dict round-trip either.
                evidence_cache.refresh(table)
                if posterior is None:
                    posterior = evidence_cache.posterior_engine(params)
                    pair_s1c, pair_s2c = posterior.endpoint_codes()
                    dep = np.zeros(
                        (engine.n_sources, engine.n_sources),
                        dtype=np.float64,
                    )
                if rounds == 1:
                    post_ind, post_12, post_21 = posterior.posterior_arrays(
                        clamped
                    )
                    rescored = int(post_ind.size)
                    reused = 0
                    p_dep = post_12 + post_21
                    dep[pair_s1c, pair_s2c] = p_dep
                    dep[pair_s2c, pair_s1c] = p_dep
                    evidence_cache.stamp_all_pairs(rounds)
                    base_p[rounds] = drift_p.copy()
                    base_a[rounds] = drift_a.copy()
                else:
                    affected_mask = select_affected(
                        posterior, base_p, base_a, drift_p, drift_a, tol
                    )
                    sel = np.flatnonzero(affected_mask)
                    rescored = int(sel.size)
                    reused = int(post_ind.size) - rescored
                    if sel.size:
                        pi, p12, p21 = posterior.posterior_arrays(
                            clamped, sel
                        )
                        post_ind[sel] = pi
                        post_12[sel] = p12
                        post_21[sel] = p21
                        p_dep = p12 + p21
                        dep[pair_s1c[sel], pair_s2c[sel]] = p_dep
                        dep[pair_s2c[sel], pair_s1c[sel]] = p_dep
                        posterior.stamp_positions(sel, rounds)
                        base_p[rounds] = drift_p.copy()
                        base_a[rounds] = drift_a.copy()
            else:
                acc_map = dict(zip(sources, clamped.tolist()))
                if rounds == 1:
                    graph = discover_dependence(
                        dataset,
                        table,
                        acc_map,
                        params,
                        min_overlap=self.min_overlap,
                        evidence_cache=evidence_cache,
                    )
                    rescored = len(evidence_cache)
                    reused = 0
                    if per_pair:
                        evidence_cache.stamp_all_pairs(rounds)
                        base_p[rounds] = drift_p.copy()
                        base_a[rounds] = drift_a.copy()
                    else:
                        drift_p[:] = 0.0
                        drift_a[:] = 0.0
                else:
                    evidence_cache.refresh(table)
                    if pair_keys is None:
                        pair_keys = list(evidence_cache)
                        key1_codes = np.fromiter(
                            (src_code[k1] for k1, _ in pair_keys),
                            dtype=np.int64,
                            count=len(pair_keys),
                        )
                        key2_codes = np.fromiter(
                            (src_code[k2] for _, k2 in pair_keys),
                            dtype=np.int64,
                            count=len(pair_keys),
                        )
                    if per_pair:
                        affected = set()
                        stamps_of = evidence_cache.pair_round_stamps()
                        groups: dict[int, list[int]] = {}
                        for idx, key in enumerate(pair_keys):
                            groups.setdefault(stamps_of[key], []).append(idx)
                        for stamp, indices in groups.items():
                            if stamp not in base_p:
                                # Never scored (stamp 0) or the baseline
                                # predates this call: no basis for reuse.
                                affected.update(
                                    pair_keys[i] for i in indices
                                )
                                continue
                            moved = evidence_cache.pairs_with_moved_entries(
                                drift_p - base_p[stamp] > tol
                            )
                            if moved:
                                affected.update(
                                    moved.intersection(
                                        pair_keys[i] for i in indices
                                    )
                                )
                            moved_src = drift_a - base_a[stamp] > tol
                            if moved_src.any():
                                idx_arr = np.asarray(
                                    indices, dtype=np.int64
                                )
                                hit = (
                                    moved_src[key1_codes[idx_arr]]
                                    | moved_src[key2_codes[idx_arr]]
                                )
                                affected.update(
                                    pair_keys[i]
                                    for i in idx_arr[hit].tolist()
                                )
                    else:
                        affected = evidence_cache.pairs_with_moved_entries(
                            drift_p > tol
                        )
                        moved_src = drift_a > tol
                        if moved_src.any():
                            hit = (
                                moved_src[key1_codes]
                                | moved_src[key2_codes]
                            )
                            affected.update(
                                key
                                for key, h in zip(pair_keys, hit.tolist())
                                if h
                            )
                    previous = graph
                    graph = DependenceGraph()
                    rescored = 0
                    rescored_keys: list = []
                    for key in evidence_cache:
                        pair = None if key in affected else previous.get(*key)
                        if pair is None:
                            pair = pair_posterior(
                                evidence_cache.evidence(*key),
                                acc_map[key[0]],
                                acc_map[key[1]],
                                params,
                            )
                            rescored += 1
                            if per_pair:
                                rescored_keys.append(key)
                        graph.add(pair)
                    reused = len(evidence_cache) - rescored
                    if per_pair:
                        if rescored_keys:
                            evidence_cache.stamp_pairs(rescored_keys, rounds)
                            base_p[rounds] = drift_p.copy()
                            base_a[rounds] = drift_a.copy()
                        live = set(evidence_cache.pair_round_stamps().values())
                        for stamp in list(base_p):
                            if stamp not in live:
                                del base_p[stamp]
                                del base_a[stamp]
                    elif reused == 0:
                        # Everything was re-scored against the current
                        # inputs: they are the new shared drift baseline.
                        drift_p[:] = 0.0
                        drift_a[:] = 0.0
                dep = dependence_matrix(graph, sources, src_code)
            scores = engine.scores(clamped, params.n_false_values)
            counts = engine.depen_counts(
                scores, dep, params.copy_rate, clamped
            )
            new_winners, probs = engine.decide_and_distributions(counts)
            new_accuracies = engine.soft_accuracies(probs)
            changed = (
                engine.n_objects
                if winners is None
                else int(np.count_nonzero(new_winners != winners))
            )
            movement = float(np.max(np.abs(new_accuracies - accuracies)))
            trace.append(
                RoundTrace(
                    round_index=rounds,
                    accuracy_change=movement,
                    decisions_changed=changed,
                    pairs_rescored=rescored,
                    pairs_reused=reused,
                )
            )
            winners = new_winners
            accuracies = new_accuracies
            drift_p += np.abs(probs - table.probs)
            table.set_probs(probs, tolerance=tol)
            prev_clamped = clamped
            if movement < it.accuracy_tolerance and changed == 0 and rounds > 1:
                converged = True
                break

        pairs = None
        if batched and posterior is not None:
            pairs = PairPosteriorArrays(
                posterior.pair_keys(),
                pair_s1c,
                pair_s2c,
                post_ind,
                post_12,
                post_21,
            )
            graph = None
        if not converged and it.fail_on_max_rounds:
            raise ConvergenceError(
                f"{self.name}: no convergence in {it.max_rounds} rounds"
            )
        return TruthResult(
            accuracies=engine.accuracies_dict(accuracies),
            dependence=graph,
            rounds=rounds,
            converged=converged,
            trace=trace,
            dataset_version=dataset.version,
            columnar=ColumnarTruth(table, winners, accuracies, pairs),
        )
