"""ACCU: accuracy-weighted Bayesian truth discovery, no dependence model.

The intermediate baseline between naive voting and the copy-aware DEPEN:
it knows sources differ in accuracy (section 3.1's "different coverage
and expertise") and iterates between truth probabilities and accuracy
estimates, but still assumes all sources are independent — so a copier
clique still out-votes an accurate loner.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import ClaimDataset
from repro.core.params import IterationParams
from repro.exceptions import ConvergenceError
from repro.truth.base import (
    ColumnarTruth,
    RoundTrace,
    TruthDiscovery,
    TruthResult,
)
from repro.truth.columnar import TruthRoundEngine


class Accu(TruthDiscovery):
    """Iterative accuracy-weighted voting (independence assumed).

    Parameters
    ----------
    n_false_values:
        The ``n`` of the Bayesian model — how many uniform false
        alternatives each object has.
    iteration:
        Convergence controls; see :class:`~repro.core.params.IterationParams`.
    """

    name = "accu"

    def __init__(
        self,
        n_false_values: int = 100,
        iteration: IterationParams | None = None,
    ) -> None:
        self.n_false_values = n_false_values
        self.iteration = iteration or IterationParams()

    def discover(self, dataset: ClaimDataset) -> TruthResult:
        """Run the rounds as array kernels.

        One vectorised clamp plus a single batched log pass produce the
        accuracy scores, vote counts are one segment sum, decisions and
        distributions per-object segment reductions, and the accuracy
        update a gather plus per-source segment mean — all bit-for-bit
        equal to the dict reference loop kept in ``tests/truth_oracle.py``
        (:mod:`repro.truth.columnar`).
        """
        self._check_dataset(dataset)
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
