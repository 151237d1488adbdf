"""ACCU: accuracy-weighted Bayesian truth discovery, no dependence model.

The intermediate baseline between naive voting and the copy-aware DEPEN:
it knows sources differ in accuracy (section 3.1's "different coverage
and expertise") and iterates between truth probabilities and accuracy
estimates, but still assumes all sources are independent — so a copier
clique still out-votes an accurate loner.
"""

from __future__ import annotations

import warnings

from repro.core.dataset import ClaimDataset
from repro.core.params import TRUTH_BACKENDS, IterationParams
from repro.exceptions import ConvergenceError, ParameterError
from repro.truth.base import (
    ColumnarTruth,
    RoundTrace,
    TruthDiscovery,
    TruthResult,
)
from repro.truth.columnar import TruthRoundEngine, resolve_truth_backend
from repro.truth.vote_counting import (
    accuracy_score,
    all_independent_vote_counts,
    decisions_and_distributions,
    soft_accuracies,
)


class Accu(TruthDiscovery):
    """Iterative accuracy-weighted voting (independence assumed).

    Parameters
    ----------
    n_false_values:
        The ``n`` of the Bayesian model — how many uniform false
        alternatives each object has.
    iteration:
        Convergence controls; see :class:`~repro.core.params.IterationParams`.
    truth_backend:
        How the rounds are executed — ``"auto"`` (columnar array
        kernels, honouring the
        ``REPRO_TRUTH_BACKEND`` environment override), ``"columnar"``
        or ``"dict"``. Pure execution policy: both backends produce
        bit-for-bit identical results
        (:mod:`repro.truth.columnar`).
    """

    name = "accu"

    def __init__(
        self,
        n_false_values: int = 100,
        iteration: IterationParams | None = None,
        truth_backend: str = "auto",
        backend: str | None = None,
    ) -> None:
        if backend is not None:
            # Pre-facade spelling; kept as a warning shim one release.
            warnings.warn(
                "Accu(backend=...) is deprecated; spell it "
                "Accu(truth_backend=...) — or set it once on "
                "repro.Session(truth_backend=...)",
                DeprecationWarning,
                stacklevel=2,
            )
            truth_backend = backend
        if truth_backend not in TRUTH_BACKENDS:
            raise ParameterError(
                "truth_backend must be 'auto', 'columnar' or 'dict', got "
                f"{truth_backend!r}"
            )
        self.n_false_values = n_false_values
        self.iteration = iteration or IterationParams()
        self.truth_backend = truth_backend

    def discover(self, dataset: ClaimDataset) -> TruthResult:
        self._check_dataset(dataset)
        backend = resolve_truth_backend(self.truth_backend, consult_env=True)
        if backend == "columnar":
            return self._discover_columnar(dataset)
        it = self.iteration
        accuracies = {s: it.initial_accuracy for s in dataset.sources}
        decisions: dict = {}
        trace: list[RoundTrace] = []
        converged = False
        rounds = 0
        distributions: dict = {}

        for rounds in range(1, it.max_rounds + 1):
            scores = {
                s: accuracy_score(it.clamp_accuracy(a), self.n_false_values)
                for s, a in accuracies.items()
            }
            counts = all_independent_vote_counts(dataset, scores)
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
            rounds=rounds,
            converged=converged,
            trace=trace,
            dataset_version=dataset.version,
        )

    def _discover_columnar(self, dataset: ClaimDataset) -> TruthResult:
        """The same loop as the dict path, as array kernels.

        One vectorised clamp plus a single batched log pass produce the
        accuracy scores, vote counts are one segment sum, decisions and
        distributions per-object segment reductions, and the accuracy
        update a gather plus per-source segment mean — all bit-for-bit
        equal to the dict walk (:mod:`repro.truth.columnar`).
        """
        import numpy as np

        it = self.iteration
        engine = TruthRoundEngine(dataset)
        accuracies = np.full(
            engine.n_sources, it.initial_accuracy, dtype=np.float64
        )
        winners = None
        probs = None
        trace: list[RoundTrace] = []
        converged = False
        rounds = 0
        for rounds in range(1, it.max_rounds + 1):
            clamped = engine.clamp(
                accuracies, it.accuracy_floor, it.accuracy_ceiling
            )
            scores = engine.scores(clamped, self.n_false_values)
            counts = engine.accu_counts(scores)
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
                )
            )
            winners = new_winners
            accuracies = new_accuracies
            if movement < it.accuracy_tolerance and changed == 0 and rounds > 1:
                converged = True
                break

        if not converged and it.fail_on_max_rounds:
            raise ConvergenceError(
                f"{self.name}: no convergence in {it.max_rounds} rounds"
            )
        # The table carries the final distributions into the result.
        engine.table.set_probs(probs)
        return TruthResult(
            accuracies=engine.accuracies_dict(accuracies),
            rounds=rounds,
            converged=converged,
            trace=trace,
            dataset_version=dataset.version,
            columnar=ColumnarTruth(engine.table, winners, accuracies),
        )
