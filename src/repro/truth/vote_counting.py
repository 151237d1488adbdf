"""Vote-count machinery shared by ACCU and DEPEN.

Terminology follows section 3.2's Bayesian sketch:

* the *accuracy score* of a source with accuracy ``A`` in a domain with
  ``n`` uniform false values per object is ``A'(S) = ln(n·A / (1-A))`` —
  the log-likelihood-ratio contribution of one vote;
* the *vote count* of a value is the sum of its providers' scores,
  optionally *discounted* for dependence: a provider's score is scaled by
  the probability its value was provided independently of providers
  already counted;
* value probabilities are the softmax of vote counts over the observed
  values of the object (the truth is assumed to be among the observed
  values, as in the paper's examples).
"""

from __future__ import annotations

from repro.core import fmath
from repro.core.dataset import ClaimDataset
from repro.core.types import ObjectId, SourceId, Value
from repro.dependence.graph import DependenceGraph
from repro.exceptions import ParameterError

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


def decide(vote_counts: dict[Value, float]) -> Value:
    """The winning value: highest count, ties broken by value repr.

    Deterministic tie-breaking keeps experiments reproducible; the paper's
    Example 2.1 relies on recognising a three-way tie as "unsure", which
    callers can detect by comparing the top two counts.
    """
    return max(vote_counts, key=lambda value: (vote_counts[value], repr(value)))


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
