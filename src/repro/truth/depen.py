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
from repro.dependence.evidence import EvidenceCache
from repro.dependence.graph import PairPosteriorArrays
from repro.exceptions import ConvergenceError
from repro.truth.base import (
    ColumnarTruth,
    RoundTrace,
    TruthDiscovery,
    TruthResult,
)
from repro.truth.columnar import TruthLayout, TruthRoundEngine, ValueProbTable


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
        # are refreshed each round. Provider orderings for the vote
        # discount are likewise reused until the accuracy ranking
        # actually changes.
        owns_cache = evidence_cache is None
        if evidence_cache is None:
            evidence_cache = EvidenceCache(
                dataset, min_overlap=self.min_overlap, params=self.params
            )
        try:
            return self._iterate(dataset, evidence_cache, it, layout)
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
        it: IterationParams,
        layout: TruthLayout | None,
    ) -> TruthResult:
        """The module docstring's loop, as array kernels.

        Value probabilities live in a
        :class:`~repro.truth.columnar.ValueProbTable` that the evidence
        cache consumes positionally (no per-entry dict probes) and the
        :class:`~repro.truth.columnar.TruthRoundEngine` kernels produce
        directly; results are bit-for-bit identical to the dict
        reference loop kept in ``tests/truth_oracle.py`` (the kernels
        preserve its accumulation orders and scalar transcendentals —
        see :mod:`repro.truth.columnar`).

        Rounds after the first restrict the dependence re-scoring: a
        pair's posterior is recomputed only when some input of it moved
        — an endpoint's clamped accuracy or an agreement entry's truth
        probability drifted beyond ``it.rescore_tolerance`` since the
        round *that pair* was last scored. Drift accumulates
        monotonically; each pair's baseline is the cumulative drift
        snapshot taken the round it was stamped (per-slot round stamps
        in the entry store), so a pair's baseline resets exactly when
        it is re-scored. With the 0.0 default only bitwise-unchanged
        inputs are reused, which is exact; the per-round counters land
        in the trace (``pairs_rescored`` / ``pairs_reused``).

        The whole dependence step is fused. The affected set is a
        boolean mask over pair positions built in one pass per round
        (:func:`select_affected`): the cheap endpoint test runs first,
        for every pair at once against the stacked accuracy baselines,
        and agreement cells are scanned only for the pairs it left
        unaffected — on a round where every source's accuracy moved, no
        cell is read at all. The posteriors for the selected positions
        come from one
        :meth:`~repro.dependence.bayes_batch.BatchedPosteriorEngine.posterior_arrays`
        call and are written straight into the persistent dependence
        matrix — a steady-state round does no per-pair Python work at
        all.
        """
        import numpy as np

        table = ValueProbTable(
            dataset, layout=TruthLayout.sync(dataset, layout)
        )
        engine = TruthRoundEngine(dataset, table)
        params = self.params
        tol = it.rescore_tolerance
        accuracies = np.full(
            engine.n_sources, it.initial_accuracy, dtype=np.float64
        )
        # Cumulative input drift: grows monotonically, and each stamp
        # round keeps a snapshot as its baseline.
        drift_p = np.zeros(len(table), dtype=np.float64)
        drift_a = np.zeros(engine.n_sources, dtype=np.float64)
        base_p: dict[int, object] = {}
        base_a: dict[int, object] = {}
        prev_clamped = None
        winners = None
        trace: list[RoundTrace] = []
        converged = False
        rounds = 0
        # The posterior engine, the current per-position posterior
        # arrays and the persistent dependence matrix: only re-scored
        # positions are rewritten each round; the arrays go to the
        # result as they are, and the graph object is built only if a
        # caller reads it.
        posterior = None
        post_ind = post_12 = post_21 = None
        pair_s1c = pair_s2c = None
        dep = np.zeros((engine.n_sources, engine.n_sources), dtype=np.float64)
        for rounds in range(1, it.max_rounds + 1):
            clamped = engine.clamp(
                accuracies, it.accuracy_floor, it.accuracy_ceiling
            )
            if prev_clamped is not None:
                drift_a += np.abs(clamped - prev_clamped)
            evidence_cache.refresh(table)
            if rounds == 1:
                posterior = evidence_cache.posterior_engine(params)
                pair_s1c, pair_s2c = posterior.endpoint_codes()
                post_ind, post_12, post_21 = posterior.posterior_arrays(clamped)
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
                    pi, p12, p21 = posterior.posterior_arrays(clamped, sel)
                    post_ind[sel] = pi
                    post_12[sel] = p12
                    post_21[sel] = p21
                    p_dep = p12 + p21
                    dep[pair_s1c[sel], pair_s2c[sel]] = p_dep
                    dep[pair_s2c[sel], pair_s1c[sel]] = p_dep
                    posterior.stamp_positions(sel, rounds)
                    base_p[rounds] = drift_p.copy()
                    base_a[rounds] = drift_a.copy()
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

        pairs = PairPosteriorArrays(
            posterior.pair_keys(),
            pair_s1c,
            pair_s2c,
            post_ind,
            post_12,
            post_21,
        )
        if not converged and it.fail_on_max_rounds:
            raise ConvergenceError(
                f"{self.name}: no convergence in {it.max_rounds} rounds"
            )
        return TruthResult(
            accuracies=engine.accuracies_dict(accuracies),
            rounds=rounds,
            converged=converged,
            trace=trace,
            dataset_version=dataset.version,
            columnar=ColumnarTruth(table, winners, accuracies, pairs),
        )
