"""Pairwise Bayesian copy detection for snapshot data (section 3.2).

The model follows the paper's two intuitions for snapshot dependence:

1. *Shared false values are the give-away.* Two independent sources with
   accuracies ``A1, A2`` provide the same **true** value for an object
   with probability ``A1·A2``, but the same **false** value only with
   probability ``(1-A1)(1-A2)/n`` (they must both err *and* pick the same
   one of ``n`` false alternatives). A copier reproduces whatever the
   original said — true or false — with the copy rate ``c``. So shared
   false values shift the likelihood toward the copy hypotheses roughly
   ``n`` times harder than shared true values do. This is the
   multiple-choice-quiz analogy of the paper.

2. Three hypotheses per source pair — ``S1 ⊥ S2`` (independent),
   ``S1 → S2`` (S1 copies from S2) and ``S2 → S1`` — with prior mass
   ``1-α``, ``α/2``, ``α/2``. Evidence is accumulated over the pair's
   *overlap* (objects both cover) and combined with Bayes' rule in log
   space.

Because truth is not known while dependence is being estimated (the
chicken-and-egg the paper resolves iteratively), evidence is computed
*softly*: each shared value contributes with the current probability
``p`` that it is true, i.e. ``p·ln(Pt) + (1-p)·ln(Pf)``. Before any truth
estimate exists, callers should pass uniform value probabilities
(:func:`uniform_value_probabilities`); hard 0/1 probabilities recover the
classic ``kt/kf/kd`` counting.

This module holds the per-pair model (evidence dataclasses, likelihoods,
posterior combination). Batch evidence collection over *all* candidate
pairs — the per-round hot path — lives in
:mod:`repro.dependence.evidence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import fmath
from repro.core.dataset import ClaimDataset
from repro.core.params import DependenceParams
from repro.core.types import ObjectId, SourceId, Value
from repro.exceptions import DataError

#: Type of the soft-truth input: per object, the probability of each value.
ValueProbabilities = dict[ObjectId, dict[Value, float]]

_TINY = 1e-12


def uniform_value_probabilities(dataset: ClaimDataset) -> ValueProbabilities:
    """Truth-agnostic initialisation: observed values equally likely.

    Used for the first round of the iterative algorithm, before any truth
    estimate exists. Starting from naive-vote truth instead would
    pre-commit to exactly the copier-boosted decisions the algorithm is
    meant to overturn (Example 2.1), so the uniform start is load-bearing.
    """
    probs: ValueProbabilities = {}
    for obj in dataset.objects:
        values = dataset.values_for(obj)
        if not values:
            continue
        share = 1.0 / len(values)
        probs[obj] = {value: share for value in values}
    return probs


@dataclass(frozen=True, slots=True)
class PairEvidence:
    """Soft evidence about one source pair, over their coverage overlap.

    ``kt_soft`` / ``kf_soft`` are the expected numbers of shared-true and
    shared-false values (they sum to the number of shared values);
    ``kd`` counts overlap objects where the two sources differ.

    ``shared_values`` optionally keeps per-shared-value detail as
    ``(p_true, popularity)`` pairs, where *popularity* is the fraction of
    the object's *other* providers asserting the same value — the input
    of the empirical false-value model. ``None`` means only the
    aggregate counts were collected (uniform model).

    ``shared_count`` is the exact integer number of shared (equal-valued)
    overlap objects, recorded by evidence collection. Mathematically
    ``kt_soft + kf_soft == shared_count``, but the two soft sums
    accumulate float error independently, so deriving the count by
    rounding their sum can drift; hand-built evidence with genuinely
    fractional soft counts (marginal-style estimates) can even be off by
    ±1. ``None`` means the count was not recorded (hand-built aggregate
    evidence) and :attr:`overlap_size` falls back to rounding.

    ``calibrated`` marks evidence that must be scored with the
    *calibrated* per-value treatment regardless of
    ``params.evidence_form`` — empirical popularity plus proper
    marginalisation of the latent truth. Set by the evidence engine
    under ``overlap_policy="auto"`` for pairs whose overlap reached the
    calibration bound, where the default expected-log form is known to
    over-detect (see
    :class:`~repro.core.params.DependenceParams.overlap_warning_bound`).
    """

    s1: SourceId
    s2: SourceId
    kt_soft: float
    kf_soft: float
    kd: int
    shared_values: tuple[tuple[float, float], ...] | None = None
    shared_count: int | None = None
    calibrated: bool = False

    @property
    def overlap_size(self) -> int:
        """Number of objects both sources cover."""
        if self.shared_count is not None:
            return self.shared_count + self.kd
        return round(self.kt_soft + self.kf_soft) + self.kd

    @property
    def shared(self) -> float:
        """Expected number of shared (equal-valued) overlap objects."""
        return self.kt_soft + self.kf_soft


def collect_evidence(
    dataset: ClaimDataset,
    s1: SourceId,
    s2: SourceId,
    value_probs: ValueProbabilities,
    with_popularity: bool = False,
) -> PairEvidence:
    """Gather soft ``(kt, kf, kd)`` evidence for one pair of sources.

    With ``with_popularity`` the per-shared-value popularity is also
    recorded: ``(m - 1) / (k_false - 1)`` where ``m`` providers assert
    the value and ``k_false`` is the object's expected number of *wrong*
    providers (one minus value probability, summed) — i.e. the chance
    that another *erring* provider repeats this particular mistake. A
    popular mistake approaches 1; a pair-exclusive one approaches 0.

    This is the per-pair *reference* path: it re-walks the pair's
    overlap on every call. Iterative callers analysing many pairs per
    round should use :class:`~repro.dependence.evidence.EvidenceCache`,
    which produces identical evidence from one sweep over the by-object
    index. The overlap is walked in sorted-object order so that the
    batch engine (which sweeps objects in the same order) accumulates
    the soft sums in the identical order, bit for bit.
    """
    kt = 0.0
    kf = 0.0
    kd = 0
    shared: list[tuple[float, float]] = []
    claims1 = dataset.claims_by(s1)
    claims2 = dataset.claims_by(s2)
    if len(claims1) > len(claims2):
        claims1, claims2 = claims2, claims1
    for obj in sorted(obj for obj in claims1 if obj in claims2):
        claim = claims1[obj]
        other = claims2[obj]
        if claim.value != other.value:
            kd += 1
            continue
        p_true = value_probs.get(obj, {}).get(claim.value, 0.0)
        kt += p_true
        kf += 1.0 - p_true
        if with_popularity:
            m = len(dataset.providers_of(obj, claim.value))
            obj_probs = value_probs.get(obj, {})
            k_false = sum(
                len(sources) * (1.0 - obj_probs.get(value, 0.0))
                for value, sources in dataset.values_for(obj).items()
            )
            if k_false > 1.0:
                popularity = min(1.0, (m - 1) / (k_false - 1.0))
            else:
                popularity = 1.0
            shared.append((p_true, popularity))
        else:
            shared.append((p_true, -1.0))  # -1: use the uniform 1/n
    return PairEvidence(
        s1=s1,
        s2=s2,
        kt_soft=kt,
        kf_soft=kf,
        kd=kd,
        shared_values=tuple(shared),
        shared_count=len(shared),
    )


@dataclass(frozen=True, slots=True)
class PairDependence:
    """Posterior over the three hypotheses for one source pair."""

    s1: SourceId
    s2: SourceId
    p_independent: float
    p_s1_copies_s2: float
    p_s2_copies_s1: float

    def __post_init__(self) -> None:
        total = self.p_independent + self.p_s1_copies_s2 + self.p_s2_copies_s1
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise DataError(f"pair posterior must sum to 1, got {total}")

    @property
    def p_dependent(self) -> float:
        """Posterior probability that the pair is dependent (either direction)."""
        return self.p_s1_copies_s2 + self.p_s2_copies_s1

    def copies_probability(self, copier: SourceId) -> float:
        """Posterior that ``copier`` is the one copying in this pair."""
        if copier == self.s1:
            return self.p_s1_copies_s2
        if copier == self.s2:
            return self.p_s2_copies_s1
        raise DataError(f"{copier!r} is not part of pair ({self.s1!r}, {self.s2!r})")

    def likely_copier(self) -> SourceId | None:
        """The more probable copier, or ``None`` if the pair looks independent."""
        if self.p_independent >= self.p_dependent:
            return None
        if self.p_s1_copies_s2 >= self.p_s2_copies_s1:
            return self.s1
        return self.s2


def normalized_posteriors(log_posts: list[float]) -> list[float]:
    """Normalise log-posterior masses into probabilities, peak-shifted.

    The shared tail of every posterior implementation in this package
    (snapshot :func:`pair_posterior`, temporal
    :func:`~repro.dependence.temporal.temporal_pair_posterior`, opinion
    :func:`~repro.dependence.opinions.rater_pair_posterior`): subtract
    the peak before exponentiating so the largest hypothesis maps to
    ``exp(0)`` and nothing under- or overflows, then divide by the sum.
    The ``exp`` is :func:`repro.core.fmath.exp`, the one the batched
    posterior kernel's array pass shares bit for bit.
    """
    peak = max(log_posts)
    weights = [fmath.exp(lp - peak) for lp in log_posts]
    total = sum(weights)
    return [weight / total for weight in weights]


def _per_object_rates(
    a_provider: float,
    a_other: float,
    a_original: float,
    params: DependenceParams,
    copy_rate: float | None = None,
) -> tuple[float, float, float]:
    """(Pt, Pf, Pd) under a copy hypothesis with the given original accuracy."""
    c = params.copy_rate if copy_rate is None else copy_rate
    n = params.n_false_values
    pt_ind = a_provider * a_other
    pf_ind = (1.0 - a_provider) * (1.0 - a_other) / n
    pd_ind = max(_TINY, 1.0 - pt_ind - pf_ind)
    pt = a_original * c + pt_ind * (1.0 - c)
    pf = (1.0 - a_original) * c + pf_ind * (1.0 - c)
    pd = (1.0 - c) * pd_ind
    return pt, pf, pd


def _log_likelihood(
    evidence: PairEvidence, pt: float, pf: float, pd: float
) -> float:
    """Log-likelihood of the evidence under per-object rates (Pt, Pf, Pd)."""
    return (
        evidence.kt_soft * fmath.log(max(pt, _TINY))
        + evidence.kf_soft * fmath.log(max(pf, _TINY))
        + evidence.kd * fmath.log(max(pd, _TINY))
    )


def _log_likelihood_per_value(
    evidence: PairEvidence,
    pt: float,
    pd: float,
    a1: float,
    a2: float,
    a_original: float | None,
    params: DependenceParams,
) -> float:
    """Log-likelihood with per-shared-value detail.

    The truth of each shared value is latent. Under
    ``evidence_form="marginal"`` it is marginalised properly,
    ``ln(p·Pt + (1-p)·Pf_v)``; under the default ``"expected_log"`` the
    true/false log-likelihoods are probability-weighted,
    ``p·ln(Pt) + (1-p)·ln(Pf_v)`` — deliberately more aggressive while
    ``p`` is uncertain (see :class:`~repro.core.params.DependenceParams`
    for the trade-off). The two coincide for hard ``p ∈ {0, 1}``.

    ``Pf_v`` uses the value's observed popularity when recorded
    (``popularity >= 0``, the empirical false-value model) and the
    uniform ``1/n`` otherwise. ``a_original=None`` selects the
    independence hypothesis. Evidence flagged ``calibrated`` (the
    ``overlap_policy="auto"`` escape for large overlaps) is always
    marginalised, whatever ``params.evidence_form`` says.
    """
    floor = 1.0 / params.n_false_values
    c = params.copy_rate
    marginal = evidence.calibrated or params.evidence_form == "marginal"
    total = evidence.kd * fmath.log(max(pd, _TINY))
    for p_true, popularity in evidence.shared_values:
        q_v = floor if popularity < 0.0 else min(0.95, max(floor, popularity))
        pf_ind_v = (1.0 - a1) * (1.0 - a2) * q_v
        if a_original is None:
            pf_v = pf_ind_v
        else:
            pf_v = (1.0 - a_original) * c + (1.0 - c) * pf_ind_v
        if marginal:
            total += fmath.log(max(p_true * pt + (1.0 - p_true) * pf_v, _TINY))
        else:
            total += p_true * fmath.log(max(pt, _TINY))
            total += (1.0 - p_true) * fmath.log(max(pf_v, _TINY))
    return total


def pair_posterior(
    evidence: PairEvidence,
    a1: float,
    a2: float,
    params: DependenceParams,
) -> PairDependence:
    """Bayes-combine the evidence into a posterior over the three hypotheses.

    ``a1`` and ``a2`` are the current accuracy estimates of ``evidence.s1``
    and ``evidence.s2``; they must lie strictly inside (0, 1) — iterative
    callers clamp them (:meth:`repro.core.params.IterationParams.clamp_accuracy`).
    """
    for name, a in (("a1", a1), ("a2", a2)):
        if not 0.0 < a < 1.0:
            raise DataError(f"{name} must be in (0, 1), got {a}")

    n = params.n_false_values
    pt_ind = a1 * a2
    pf_ind = (1.0 - a1) * (1.0 - a2) / n
    pd_ind = max(_TINY, 1.0 - pt_ind - pf_ind)

    if evidence.shared_values is not None:
        log_independent = _log_likelihood_per_value(
            evidence, pt_ind, pd_ind, a1, a2, None, params
        )
        pt_1c2, _, pd_1c2 = _per_object_rates(a1, a2, a_original=a2, params=params)
        log_s1_copies = _log_likelihood_per_value(
            evidence, pt_1c2, pd_1c2, a1, a2, a2, params
        )
        pt_2c1, _, pd_2c1 = _per_object_rates(a1, a2, a_original=a1, params=params)
        log_s2_copies = _log_likelihood_per_value(
            evidence, pt_2c1, pd_2c1, a1, a2, a1, params
        )
    else:
        # Aggregate-count path (hand-built evidence): counts are treated
        # as hard classifications, for which the expected-log form is
        # exact.
        log_independent = _log_likelihood(evidence, pt_ind, pf_ind, pd_ind)
        # S1 copies from S2: the shared value originates at S2 (accuracy a2).
        log_s1_copies = _log_likelihood(
            evidence, *_per_object_rates(a1, a2, a_original=a2, params=params)
        )
        # S2 copies from S1: the shared value originates at S1.
        log_s2_copies = _log_likelihood(
            evidence, *_per_object_rates(a1, a2, a_original=a1, params=params)
        )

    log_posts = [
        fmath.log(params.prior_independent) + log_independent,
        fmath.log(params.prior_direction) + log_s1_copies,
        fmath.log(params.prior_direction) + log_s2_copies,
    ]
    posts = normalized_posteriors(log_posts)
    return PairDependence(
        s1=evidence.s1,
        s2=evidence.s2,
        p_independent=posts[0],
        p_s1_copies_s2=posts[1],
        p_s2_copies_s1=posts[2],
    )


def analyze_pair(
    dataset: ClaimDataset,
    s1: SourceId,
    s2: SourceId,
    value_probs: ValueProbabilities,
    accuracies: dict[SourceId, float],
    params: DependenceParams,
) -> PairDependence:
    """Convenience: collect evidence for one pair and compute its posterior."""
    evidence = collect_evidence(
        dataset,
        s1,
        s2,
        value_probs,
        with_popularity=params.false_value_model == "empirical",
    )
    return pair_posterior(evidence, accuracies[s1], accuracies[s2], params)
