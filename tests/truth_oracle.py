"""Test-only oracles for the truth rounds and the pair posteriors.

The production DEPEN and ACCU loops (:class:`repro.truth.depen.Depen`,
:class:`repro.truth.accu.Accu`) run as array kernels over a
:class:`~repro.truth.columnar.ValueProbTable`, and DEPEN scores its
pairs with the batched posterior kernel
(:class:`~repro.dependence.bayes_batch.BatchedPosteriorEngine`). The
code here is the pure-Python reference those paths must match bit for
bit:

* the dict vote counting, in section 3.2's terms: the *accuracy score*
  of a source with accuracy ``A`` in a domain with ``n`` uniform false
  values per object is ``A'(S) = ln(n·A / (1-A))``
  (:func:`accuracy_score`); a value's *vote count* sums its providers'
  scores (:func:`independent_vote_counts`), optionally *discounted* for
  dependence (:func:`discounted_vote_counts`); value probabilities are
  the softmax of the counts over the object's observed values
  (:func:`softmax_distribution`), and a source's accuracy is the mean
  probability of its values (:func:`soft_accuracies`);
* :func:`dependence_matrix` lays a dependence graph out as the
  per-source-pair matrix the DEPEN discount kernel reads;
* :func:`posterior_graph` scores every candidate pair of an
  :class:`~repro.dependence.evidence.EvidenceCache` with the scalar
  :func:`~repro.dependence.bayes.pair_posterior`, one pair at a time;
* :func:`depen_oracle` is DEPEN's round loop over nested dicts: the
  :func:`posterior_graph` of :meth:`EvidenceCache.collect_all`, the
  dict vote counting, softmax decisions and soft accuracies, re-scoring
  every pair every round;
* :func:`accu_oracle` is the same loop without the dependence step.
"""

from __future__ import annotations

import numpy as np

from repro.core import fmath
from repro.core.dataset import ClaimDataset
from repro.core.params import DependenceParams, IterationParams
from repro.core.types import ObjectId, SourceId, Value
from repro.dependence.bayes import pair_posterior, uniform_value_probabilities
from repro.dependence.evidence import EvidenceCache
from repro.dependence.graph import DependenceGraph
from repro.exceptions import ConvergenceError, ParameterError
from repro.truth.base import RoundTrace, TruthResult
from repro.truth.voting import decide


def accuracy_score(accuracy: float, n_false_values: int) -> float:
    """``A'(S) = ln(n·A / (1-A))`` — one vote's weight.

    ``accuracy`` must be strictly inside (0, 1); iterative callers clamp
    their estimates before calling. The ``log`` is
    :func:`repro.core.fmath.log`, bit for bit the columnar truth
    kernel's.
    """
    if not 0.0 < accuracy < 1.0:
        raise ParameterError(f"accuracy must be in (0, 1), got {accuracy}")
    if n_false_values < 1:
        raise ParameterError(f"n_false_values must be >= 1, got {n_false_values}")
    return fmath.log(n_false_values * accuracy / (1.0 - accuracy))


def softmax_distribution(vote_counts: dict[Value, float]) -> dict[Value, float]:
    """Turn vote counts into a probability distribution over the values.

    Numerically stable (scores are shifted by their max before
    exponentiation). An empty input yields an empty distribution. The
    ``exp`` is :func:`repro.core.fmath.exp`, bit for bit the columnar
    truth kernel's.
    """
    if not vote_counts:
        return {}
    peak = max(vote_counts.values())
    weights = {
        value: fmath.exp(count - peak) for value, count in vote_counts.items()
    }
    total = sum(weights.values())
    return {value: weight / total for value, weight in weights.items()}


def independent_vote_counts(
    dataset: ClaimDataset,
    obj: ObjectId,
    scores: dict[SourceId, float],
) -> dict[Value, float]:
    """ACCU vote counts: each provider contributes its full score."""
    counts: dict[Value, float] = {}
    for value, providers in dataset.values_for_view(obj).items():
        counts[value] = sum(scores[source] for source in providers)
    return counts


def all_independent_vote_counts(
    dataset: ClaimDataset,
    scores: dict[SourceId, float],
) -> dict[ObjectId, dict[Value, float]]:
    """ACCU vote counts for every object in one pass (zero-copy views)."""
    _require_entries(dataset, scores, "scores")
    return {
        obj: independent_vote_counts(dataset, obj, scores)
        for obj in dataset.objects
    }


def discounted_vote_counts(
    dataset: ClaimDataset,
    obj: ObjectId,
    scores: dict[SourceId, float],
    dependence: DependenceGraph,
    copy_rate: float,
    accuracies: dict[SourceId, float],
) -> dict[Value, float]:
    """DEPEN vote counts: copied votes are counted (approximately) once.

    Providers of each value are walked in decreasing accuracy order (ties
    broken lexicographically for determinism). The first provider counts
    in full; each later provider's score is multiplied by the probability
    that it provided the value independently of every provider already
    counted — ``Π (1 - c·P(dep))`` over the counted set. Ordering by
    accuracy puts the most credible provider first, so suspected copiers
    are the ones discounted.

    Every provider of ``obj`` must have an entry in both ``accuracies``
    and ``scores``; a missing source raises
    :class:`~repro.exceptions.ParameterError` naming it (previously a
    missing accuracy silently sorted the source last and then surfaced
    as an opaque ``KeyError``).
    """
    for value, providers in dataset.values_for_view(obj).items():
        for source in providers:
            if source not in accuracies:
                raise ParameterError(
                    f"no accuracy estimate for source {source!r} "
                    f"(provider of object {obj!r})"
                )
            if source not in scores:
                raise ParameterError(
                    f"no accuracy score for source {source!r} "
                    f"(provider of object {obj!r})"
                )
    return _discounted_counts(
        dataset, obj, scores, dependence, copy_rate, accuracies
    )


def _discounted_counts(
    dataset: ClaimDataset,
    obj: ObjectId,
    scores: dict[SourceId, float],
    dependence: DependenceGraph,
    copy_rate: float,
    accuracies: dict[SourceId, float],
) -> dict[Value, float]:
    """Unchecked kernel of :func:`discounted_vote_counts`."""
    counts: dict[Value, float] = {}
    for value, unordered in dataset.values_for_view(obj).items():
        providers = sorted(unordered, key=lambda s: (-accuracies[s], s))
        counted: list[SourceId] = []
        total = 0.0
        for source in providers:
            weight = dependence.independence_weight(source, counted, copy_rate)
            total += scores[source] * weight
            counted.append(source)
        counts[value] = total
    return counts


def all_discounted_vote_counts(
    dataset: ClaimDataset,
    scores: dict[SourceId, float],
    dependence: DependenceGraph,
    copy_rate: float,
    accuracies: dict[SourceId, float],
) -> dict[ObjectId, dict[Value, float]]:
    """DEPEN vote counts for every object in one pass (zero-copy views).

    Validates the accuracy maps against the whole dataset once, then
    runs the unchecked kernel per object, which sorts each value's
    providers itself — the reference walk the truth-round engine's
    DEPEN discount matches bit for bit.
    """
    _require_entries(dataset, scores, "scores")
    _require_entries(dataset, accuracies, "accuracies")
    return {
        obj: _discounted_counts(
            dataset, obj, scores, dependence, copy_rate, accuracies
        )
        for obj in dataset.objects
    }


def _require_entries(
    dataset: ClaimDataset, mapping: dict[SourceId, float], name: str
) -> None:
    """Fail fast, naming the first dataset source missing from ``mapping``."""
    for source in dataset.sources:
        if source not in mapping:
            raise ParameterError(
                f"no entry in {name!r} for source {source!r}; every source "
                "of the dataset needs one"
            )


def decisions_and_distributions(
    dataset: ClaimDataset,
    vote_counts_by_object: dict[ObjectId, dict[Value, float]],
) -> tuple[dict[ObjectId, Value], dict[ObjectId, dict[Value, float]]]:
    """Apply :func:`decide` and :func:`softmax_distribution` per object."""
    decisions: dict[ObjectId, Value] = {}
    distributions: dict[ObjectId, dict[Value, float]] = {}
    for obj in dataset.objects:
        counts = vote_counts_by_object[obj]
        decisions[obj] = decide(counts)
        distributions[obj] = softmax_distribution(counts)
    return decisions, distributions


def soft_accuracies(
    dataset: ClaimDataset,
    distributions: dict[ObjectId, dict[Value, float]],
) -> dict[SourceId, float]:
    """Re-estimate source accuracies from value probabilities.

    ``A(S)`` = mean probability that S's value is true, over the objects
    S covers — the update step of the iterative scheme.
    """
    accuracies: dict[SourceId, float] = {}
    for source in dataset.sources:
        claims = dataset.claims_by_view(source)
        mass = sum(
            distributions.get(obj, {}).get(claim.value, 0.0)
            for obj, claim in claims.items()
        )
        accuracies[source] = mass / len(claims) if claims else 0.0
    return accuracies


def dependence_matrix(graph, sources: list[SourceId], src_code=None):
    """The symmetric dependence-posterior matrix of a graph.

    ``dep[i, j]`` is ``graph.probability(sources[i], sources[j])``;
    unanalysed pairs are 0.0 (treated as independent — their discount
    factor is exactly 1.0, so multiplying by it is a bitwise no-op,
    matching the dict reference's behaviour of multiplying anyway).
    """
    if src_code is None:
        src_code = {source: i for i, source in enumerate(sources)}
    dep = np.zeros((len(sources), len(sources)), dtype=np.float64)
    for pair in graph:
        i = src_code.get(pair.s1)
        j = src_code.get(pair.s2)
        if i is None or j is None:
            continue
        dep[i, j] = pair.p_dependent
        dep[j, i] = pair.p_dependent
    return dep


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
