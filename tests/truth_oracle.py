"""Test-only oracles for the truth rounds and the pair posteriors.

The production DEPEN and ACCU loops (:class:`repro.truth.depen.Depen`,
:class:`repro.truth.accu.Accu`) run as array kernels over a
:class:`~repro.truth.columnar.ValueProbTable`, and DEPEN scores its
pairs with the batched posterior kernel
(:class:`~repro.dependence.bayes_batch.BatchedPosteriorEngine`). The
loops here are the pure-Python references those paths must match bit
for bit:

* :func:`posterior_graph` scores every candidate pair of an
  :class:`~repro.dependence.evidence.EvidenceCache` with the scalar
  :func:`~repro.dependence.bayes.pair_posterior`, one pair at a time;
* :func:`depen_oracle` is DEPEN's round loop over nested dicts: the
  :func:`posterior_graph` of :meth:`EvidenceCache.collect_all`, the
  dict vote counting of :mod:`repro.truth.vote_counting`, softmax
  decisions and soft accuracies, re-scoring every pair every round;
* :func:`accu_oracle` is the same loop without the dependence step.
"""

from __future__ import annotations

from repro.core.dataset import ClaimDataset
from repro.core.params import DependenceParams, IterationParams
from repro.dependence.bayes import pair_posterior, uniform_value_probabilities
from repro.dependence.evidence import EvidenceCache
from repro.dependence.graph import DependenceGraph
from repro.exceptions import ConvergenceError
from repro.truth.base import RoundTrace, TruthResult
from repro.truth.vote_counting import (
    accuracy_score,
    all_discounted_vote_counts,
    all_independent_vote_counts,
    decisions_and_distributions,
    soft_accuracies,
)


def posterior_graph(cache, value_probs, accuracies, params) -> DependenceGraph:
    """Every candidate pair scored by the scalar ``pair_posterior``."""
    return DependenceGraph(
        pair_posterior(evidence, accuracies[s1], accuracies[s2], params)
        for (s1, s2), evidence in cache.collect_all(value_probs).items()
    )


def _run(dataset, it, name, step) -> TruthResult:
    """The shared round loop; ``step(clamped, value_probs)`` returns
    ``(vote counts, dependence graph or None)`` for one round."""
    accuracies = {s: it.initial_accuracy for s in dataset.sources}
    value_probs = uniform_value_probabilities(dataset)
    decisions: dict = {}
    distributions: dict = {}
    dependence = None
    trace: list[RoundTrace] = []
    converged = False
    rounds = 0
    for rounds in range(1, it.max_rounds + 1):
        clamped = {s: it.clamp_accuracy(a) for s, a in accuracies.items()}
        counts, dependence = step(clamped, value_probs)
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
        raise ConvergenceError(f"{name}: no convergence in {it.max_rounds} rounds")
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


def depen_oracle(
    dataset: ClaimDataset,
    params: DependenceParams | None = None,
    iteration: IterationParams | None = None,
    min_overlap: int = 1,
) -> TruthResult:
    """DEPEN's dict round loop; bit-for-bit what ``Depen`` must return."""
    params = params or DependenceParams()
    it = iteration or IterationParams()
    cache = EvidenceCache(dataset, min_overlap=min_overlap, params=params)

    def step(clamped, value_probs):
        dependence = posterior_graph(cache, value_probs, clamped, params)
        scores = {
            s: accuracy_score(a, params.n_false_values)
            for s, a in clamped.items()
        }
        counts = all_discounted_vote_counts(
            dataset, scores, dependence, params.copy_rate, clamped
        )
        return counts, dependence

    try:
        return _run(dataset, it, "depen", step)
    finally:
        cache.close()


def accu_oracle(
    dataset: ClaimDataset,
    n_false_values: int = 100,
    iteration: IterationParams | None = None,
) -> TruthResult:
    """ACCU's dict round loop; bit-for-bit what ``Accu`` must return."""
    it = iteration or IterationParams()

    def step(clamped, value_probs):
        scores = {
            s: accuracy_score(a, n_false_values) for s, a in clamped.items()
        }
        return all_independent_vote_counts(dataset, scores), None

    return _run(dataset, it, "accu", step)
