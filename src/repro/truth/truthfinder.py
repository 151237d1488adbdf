"""TruthFinder-style baseline: trust-confidence fixpoint, no copy model.

A second independent-sources baseline (beyond ACCU) for the benchmark
tables. It follows the classic web-fact-finding recipe:

* source trustworthiness ``t(s)`` = mean confidence of the values it
  provides;
* value confidence combines its providers' trust in log space:
  ``σ(v) = -Σ ln(1 - t(s))`` over providers, squashed back through
  ``1 / (1 + e^{-γ σ})``;
* a damping factor keeps ``t`` away from 1 so the fixpoint is finite.

Like ACCU it rewards accurate sources; unlike DEPEN it will happily let a
clique of copiers inflate a false value's confidence, which is exactly
the contrast the benchmarks display.
"""

from __future__ import annotations

import math

from repro.core.dataset import ClaimDataset
from repro.core.params import IterationParams
from repro.core.types import ObjectId, Value
from repro.exceptions import ConvergenceError, ParameterError
from repro.truth.base import RoundTrace, TruthDiscovery, TruthResult


class TruthFinder(TruthDiscovery):
    """Trust/confidence fixpoint truth discovery (independence assumed)."""

    name = "truthfinder"

    def __init__(
        self,
        gamma: float = 0.3,
        damping: float = 0.99,
        iteration: IterationParams | None = None,
    ) -> None:
        if gamma <= 0:
            raise ParameterError(f"gamma must be > 0, got {gamma}")
        if not 0.0 < damping < 1.0:
            raise ParameterError(f"damping must be in (0, 1), got {damping}")
        self.gamma = gamma
        self.damping = damping
        self.iteration = iteration or IterationParams()

    def discover(self, dataset: ClaimDataset) -> TruthResult:
        self._check_dataset(dataset)
        it = self.iteration
        trust = {s: it.initial_accuracy for s in dataset.sources}
        confidences: dict[ObjectId, dict[Value, float]] = {}
        trace: list[RoundTrace] = []
        decisions: dict[ObjectId, Value] = {}
        converged = False
        rounds = 0

        for rounds in range(1, it.max_rounds + 1):
            confidences = {}
            for obj in dataset.objects:
                scores: dict[Value, float] = {}
                for value, providers in dataset.values_for(obj).items():
                    raw = -sum(
                        math.log(max(1e-12, 1.0 - self.damping * trust[s]))
                        for s in providers
                    )
                    scores[value] = 1.0 / (1.0 + math.exp(-self.gamma * raw))
                confidences[obj] = scores

            new_trust = {}
            for source in dataset.sources:
                claims = dataset.claims_by(source)
                new_trust[source] = sum(
                    confidences[obj][claim.value] for obj, claim in claims.items()
                ) / len(claims)

            new_decisions = {
                obj: max(scores, key=lambda v: (scores[v], repr(v)))
                for obj, scores in confidences.items()
            }
            changed = sum(
                1 for obj, v in new_decisions.items() if decisions.get(obj) != v
            )
            movement = max(abs(new_trust[s] - trust[s]) for s in new_trust)
            trace.append(
                RoundTrace(
                    round_index=rounds,
                    accuracy_change=movement,
                    decisions_changed=changed,
                )
            )
            trust, decisions = new_trust, new_decisions
            if movement < it.accuracy_tolerance and changed == 0 and rounds > 1:
                converged = True
                break

        if not converged and it.fail_on_max_rounds:
            raise ConvergenceError(
                f"{self.name}: no convergence in {it.max_rounds} rounds"
            )

        distributions = {
            obj: _normalise(scores) for obj, scores in confidences.items()
        }
        return TruthResult(
            decisions=decisions,
            distributions=distributions,
            accuracies=trust,
            rounds=rounds,
            converged=converged,
            trace=trace,
            dataset_version=dataset.version,
        )


def _normalise(scores: dict[Value, float]) -> dict[Value, float]:
    total = sum(scores.values())
    if total <= 0:
        share = 1.0 / len(scores)
        return {value: share for value in scores}
    return {value: score / total for value, score in scores.items()}
