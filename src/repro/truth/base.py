"""Common interface and result types for truth-discovery algorithms.

Every algorithm (naive voting, ACCU, TruthFinder, DEPEN) implements
:class:`TruthDiscovery` and returns a :class:`TruthResult`, so baselines
and the copy-aware method are interchangeable in experiments —
exactly the comparison the paper's Example 2.1 sets up.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dataset import ClaimDataset
from repro.core.types import ObjectId, SourceId, Value
from repro.exceptions import DataError

if TYPE_CHECKING:
    from repro.dependence.graph import PairPosteriorArrays
    from repro.truth.columnar import ValueProbTable


@dataclass(frozen=True, slots=True)
class RoundTrace:
    """Diagnostics for one round of an iterative algorithm.

    ``pairs_rescored`` counts the candidate pairs whose posterior the
    round's dependence step computed; DEPEN re-scores every pair every
    round. ``pairs_reused`` is always 0 on DEPEN, which carries no
    posterior over from an earlier round; the field stays for readers of
    the per-round counters. Both are ``None`` on algorithms without a
    dependence step — the counters are execution diagnostics, never part
    of the result equivalence.
    """

    round_index: int
    accuracy_change: float
    decisions_changed: int
    pairs_rescored: int | None = None
    pairs_reused: int | None = None


@dataclass(frozen=True, slots=True, eq=False)
class ColumnarTruth:
    """A columnar truth run's final state, in the form the run left it.

    ``table``
        The run's :class:`~repro.truth.columnar.ValueProbTable`: the
        slot universe, its structural arrays and slot index, and the
        final per-slot probabilities in ``table.probs``.
    ``winners``
        The winning slot per object row (int64, read-only).
    ``accuracies``
        The final accuracy per source, in the dataset's sorted source
        order (float64, read-only).
    ``pairs``
        The final :class:`~repro.dependence.graph.PairPosteriorArrays`
        of a batched DEPEN run; ``None`` otherwise.

    The serving layer freezes this straight into a snapshot
    (:meth:`~repro.serve.snapshot.Snapshot.from_result`). It holds the
    arrays and nothing else: no round engine and no posterior engine,
    whose indexes are large and only matter while the run iterates.
    """

    table: ValueProbTable
    winners: np.ndarray
    accuracies: np.ndarray
    pairs: PairPosteriorArrays | None = None

    def __post_init__(self) -> None:
        for arr in (self.winners, self.accuracies):
            arr.flags.writeable = False

    def check_sums(self) -> None:
        """Raise :class:`DataError` unless every distribution sums to 1.

        One segment ``np.bincount`` over the slot probabilities; the
        same 1e-3 band, and the same exemption of empty distributions,
        as the dict form's check.
        """
        table = self.table
        totals = np.bincount(
            table.row_of_slot,
            weights=table.probs,
            minlength=len(table.objects),
        )
        ok = ((totals >= 0.999) & (totals <= 1.001)) | (
            np.diff(table.bounds) == 0
        )
        bad = np.flatnonzero(~ok)
        if bad.size:
            row = int(bad[0])
            raise DataError(
                f"distribution for {table.objects[row]!r} sums to "
                f"{float(totals[row])}, expected 1"
            )


class TruthResult:
    """The output of a truth-discovery run.

    ``decisions``
        The chosen value per object.
    ``distributions``
        The full probability distribution over observed values per object
        (sums to 1 per object) — the probabilistic-database output the
        paper's data-fusion section asks for.
    ``accuracies``
        Final per-source accuracy estimates (empty for naive voting).
    ``dependence``
        The final dependence graph, for algorithms that estimate one.
    ``rounds`` / ``converged`` / ``trace``
        Iteration diagnostics.
    ``dataset_version``
        The :class:`~repro.core.dataset.ClaimDataset` version the run
        saw (``None`` when the producer did not record one). A snapshot
        refuses to freeze a result over any other version.
    ``columnar``
        The run's :class:`ColumnarTruth`, from the columnar producers
        (columnar DEPEN and ACCU); ``None`` for dict-only results.

    A columnar result keeps ``decisions``, ``distributions`` and (for
    batched DEPEN) ``dependence`` in columnar form only: each is built
    from it on first access and cached. Nothing on the publish path
    reads them, so a published round never builds its dict or graph
    forms. Every distribution is checked to sum to 1 at construction,
    on whichever form the result carries.
    """

    def __init__(
        self,
        decisions: dict[ObjectId, Value] | None = None,
        distributions: dict[ObjectId, dict[Value, float]] | None = None,
        accuracies: dict[SourceId, float] | None = None,
        dependence: object | None = None,
        rounds: int = 0,
        converged: bool = True,
        trace: list[RoundTrace] | None = None,
        *,
        dataset_version: int | None = None,
        columnar: ColumnarTruth | None = None,
    ) -> None:
        if columnar is None and (decisions is None or distributions is None):
            raise DataError(
                "a truth result needs decisions and distributions, or "
                "their columnar form"
            )
        self._decisions = decisions
        self._distributions = distributions
        self.accuracies = {} if accuracies is None else accuracies
        self._dependence = dependence
        self.rounds = rounds
        self.converged = converged
        self.trace = [] if trace is None else trace
        self.dataset_version = dataset_version
        self.columnar = columnar
        if distributions is not None:
            for obj, dist in distributions.items():
                total = sum(dist.values())
                if dist and not 0.999 <= total <= 1.001:
                    raise DataError(
                        f"distribution for {obj!r} sums to {total}, expected 1"
                    )
        if columnar is not None:
            columnar.check_sums()

    @property
    def decisions(self) -> dict[ObjectId, Value]:
        """The chosen value per object (built on first access)."""
        if self._decisions is None:
            table = self.columnar.table
            values = table.slot_values
            self._decisions = {
                obj: values[slot]
                for obj, slot in zip(
                    table.objects, self.columnar.winners.tolist()
                )
            }
        return self._decisions

    @property
    def distributions(self) -> dict[ObjectId, dict[Value, float]]:
        """Per-object value distributions (built on first access)."""
        if self._distributions is None:
            self._distributions = self.columnar.table.to_dict()
        return self._distributions

    @property
    def dependence(self):
        """The dependence graph, or ``None`` (built on first access)."""
        if self._dependence is None and self.has_dependence:
            self._dependence = self.columnar.pairs.to_graph()
        return self._dependence

    @property
    def has_dependence(self) -> bool:
        """Whether :attr:`dependence` is set, without building it."""
        return self._dependence is not None or (
            self.columnar is not None and self.columnar.pairs is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        form = "columnar" if self.columnar is not None else "dict"
        return (
            f"TruthResult({form}, {self.rounds} rounds, "
            f"converged={self.converged}, "
            f"dataset v{self.dataset_version})"
        )

    def probability(self, obj: ObjectId, value: Value) -> float:
        """Posterior probability that ``value`` is the truth for ``obj``."""
        return self.distributions.get(obj, {}).get(value, 0.0)

    def confidence(self, obj: ObjectId) -> float:
        """Probability of the chosen value for ``obj``."""
        if obj not in self.decisions:
            raise DataError(f"no decision recorded for object {obj!r}")
        return self.probability(obj, self.decisions[obj])

    def accuracy_against(self, truth: dict[ObjectId, Value]) -> float:
        """Fraction of ``truth``'s objects this result decided correctly.

        Objects without a decision count as wrong (the algorithm saw no
        claims for them).
        """
        if not truth:
            raise DataError("ground truth must not be empty")
        correct = sum(
            1 for obj, value in truth.items() if self.decisions.get(obj) == value
        )
        return correct / len(truth)


class TruthDiscovery(ABC):
    """Interface all truth-discovery algorithms implement."""

    #: Human-readable algorithm name, used in benchmark tables.
    name: str = "base"

    @abstractmethod
    def discover(self, dataset: ClaimDataset) -> TruthResult:
        """Run the algorithm on a snapshot dataset and return its result."""

    def _check_dataset(self, dataset: ClaimDataset) -> None:
        if len(dataset) == 0:
            raise DataError(f"{self.name}: dataset is empty")
