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
   (:meth:`~repro.truth.columnar.TruthRoundEngine.depen_counts`): a
   copied vote is counted approximately once;
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

        Every round re-scores every candidate pair from the new truth,
        as section 3.2's loop does: one
        :meth:`~repro.dependence.bayes_batch.BatchedPosteriorEngine.posterior_arrays`
        call over all pairs, written straight into the dependence matrix
        the vote discount reads — a round does no per-pair Python work
        at all.
        """
        import numpy as np

        table = ValueProbTable(
            dataset, layout=TruthLayout.sync(dataset, layout)
        )
        engine = TruthRoundEngine(dataset, table)
        params = self.params
        accuracies = np.full(
            engine.n_sources, it.initial_accuracy, dtype=np.float64
        )
        winners = None
        trace: list[RoundTrace] = []
        converged = False
        rounds = 0
        # The per-position posterior arrays go to the result as they
        # are; the graph object is built only if a caller reads it.
        # A caller-supplied cache may lag the dataset: sync it before
        # reading the pair set, or the endpoint codes would describe
        # the pairs of an older version.
        evidence_cache.sync()
        posterior = evidence_cache.posterior_engine(params)
        pair_s1c, pair_s2c = posterior.endpoint_codes()
        dep = np.zeros((engine.n_sources, engine.n_sources), dtype=np.float64)
        for rounds in range(1, it.max_rounds + 1):
            clamped = engine.clamp(
                accuracies, it.accuracy_floor, it.accuracy_ceiling
            )
            evidence_cache.refresh(table)
            post_ind, post_12, post_21 = posterior.posterior_arrays(clamped)
            p_dep = post_12 + post_21
            dep[pair_s1c, pair_s2c] = p_dep
            dep[pair_s2c, pair_s1c] = p_dep
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
                    pairs_rescored=int(post_ind.size),
                    pairs_reused=0,
                )
            )
            winners = new_winners
            accuracies = new_accuracies
            table.set_probs(probs)
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
