"""Array-native truth rounds: the columnar backend of ACCU and DEPEN.

PRs 1-4 vectorised the *dependence* half of the iterative loop (batch
pair evidence, the sharded sweep, the columnar entry store). This module
closes the other half: section 3.2's round steps — vote counting,
softmax truth decisions, accuracy re-estimation — as numpy kernels over
flat per-object claim segments, plus the exchange format that lets the
evidence engine read truth probabilities positionally instead of probing
``{object: {value: p}}`` dicts per entry.

Two classes:

:class:`ValueProbTable` — the exchange format. Every *(object, observed
value)* pair of the dataset is one **slot** of a flat ``float64``
probability array; slots are grouped into per-object segments (CSR
bounds over the sorted object list), in each object's value-registration
order — the same first-encounter interning discipline the evidence
engine's entry table uses, extended from agreement values to every
observed claim. :meth:`~ValueProbTable.set_probs` swaps in a new
probability array and computes the **moved-slot mask** (entries whose
probability changed beyond a tolerance), which is what lets DEPEN's
iterative rounds re-score only the pairs an update actually touched.

:class:`TruthRoundEngine` — the vectorised kernels for the four round
steps, sharing the table's slot universe:

1. *vote counts* — ACCU is one ``np.bincount`` of per-claim scores into
   slots; DEPEN additionally discounts copied votes: claims are sorted
   by ``(slot, accuracy rank)`` (the argsort reuses
   :class:`~repro.truth.vote_counting.VoteOrderCache`'s insight — every
   per-value provider ordering is a projection of one global ranking,
   so the sort is recomputed only when the ranking changes) and the
   cumulative independence-weight product is applied lag by lag over
   the grouped arrays, in exactly the reference walk's order;
2. *decisions* — per-object segment max with the reference tie-break;
3. *distributions* — segment softmax (max-shift, exponentiate, segment
   sum, divide);
4. *accuracies* — one gather of each claim's probability plus a
   per-source segment mean.

Bitwise discipline
------------------

The dict path stays the equivalence reference, and the kernels are built
so results are **bit-for-bit identical** to it, not merely close:

* every sum runs through ``np.bincount``, which accumulates weights
  sequentially in input order (the PR 4 entry-store fact), with the
  input arrays laid out in the dict path's own iteration order;
* the DEPEN discount multiplies its factors in the reference order
  (earliest counted provider first), one lag per pass;
* ``exp``/``log`` come from :mod:`repro.core.fmath` on both sides: the
  kernels call its array ``log_array``/``exp_array`` (numpy's SIMD
  ``np.log``/``np.exp``), and the dict path's
  :func:`~repro.truth.vote_counting.accuracy_score` and
  :func:`~repro.truth.vote_counting.softmax_distribution` call its
  scalar ``log``/``exp``, which run the same ufunc on one Python float
  and so give the same bits as the matching array element. The
  deterministic tie-breaking the reproduction's experiments rely on
  therefore sees identical counts on both paths.

Parity holds between the two paths on one machine. numpy picks its
SIMD ``log``/``exp`` loop by CPU feature (AVX-512 or not), and those
loops differ from libm, and from each other, by at most 1 ulp on a small
share of inputs; so the last ulps of a probability may differ across
machines, as they already could across libm versions.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Mapping

import numpy as np

from repro.core import fmath
from repro.core.dataset import ClaimDataset
from repro.core.params import TRUTH_BACKENDS
from repro.core.types import ObjectId, SourceId, Value
from repro.exceptions import DataError, ParameterError

#: Environment variable consulted by :func:`resolve_truth_backend` for
#: callers without a :class:`~repro.core.params.DependenceParams` (the
#: params class applies it through its own env-override hook instead).
TRUTH_BACKEND_ENV = "REPRO_TRUTH_BACKEND"

_table_uids = itertools.count()


def resolve_truth_backend(setting: str, *, consult_env: bool = False) -> str:
    """Resolve a ``truth_backend`` setting to ``"columnar"`` or ``"dict"``.

    ``"auto"`` picks columnar; ``"dict"`` keeps the pure-Python
    reference path. With
    ``consult_env=True`` an ``"auto"`` setting first defers to the
    ``REPRO_TRUTH_BACKEND`` environment variable — the hook for callers
    that do not take :class:`~repro.core.params.DependenceParams`
    (:class:`~repro.truth.accu.Accu`), whose params-based peers get the
    same behaviour from the params env-override machinery.
    """
    if consult_env and setting == "auto":
        env = os.environ.get(TRUTH_BACKEND_ENV)
        if env:
            setting = env
    if setting not in TRUTH_BACKENDS:
        raise ParameterError(
            "truth_backend must be 'auto', 'columnar' or 'dict', got "
            f"{setting!r}"
        )
    if setting == "auto":
        return "columnar"
    return setting


class ValueProbTable:
    """Columnar value-probability exchange: one slot per (object, value).

    Parameters
    ----------
    dataset:
        The claim store; the table snapshots its *structure* (objects,
        observed values, provider counts) at construction and records
        ``dataset.version``. Consumers refuse a table whose version no
        longer matches — ingest means rebuilding the table.
    value_probs:
        Initial probabilities as the classic nested dict; ``None``
        initialises the truth-agnostic uniform distribution (each of an
        object's observed values equally likely), bit-for-bit equal to
        :func:`~repro.dependence.bayes.uniform_value_probabilities`.

    Layout: ``probs[slot]`` is the probability of slot ``slot``;
    ``bounds[row] : bounds[row + 1]`` is the slot segment of the
    ``row``-th object of the sorted object list; within a segment slots
    follow the object's value-registration order (the by-object index's
    insertion order — the same order the evidence engine's per-object
    value lists use, which is what keeps the empirical model's
    ``k_false`` accumulation bitwise identical across layouts).
    ``counts[slot]`` is the slot's provider count.
    """

    __slots__ = (
        "dataset",
        "dataset_version",
        "uid",
        "objects",
        "bounds",
        "row_of_slot",
        "slot_values",
        "counts",
        "probs",
        "moved",
        "version",
        "_slot_of",
    )

    def __init__(
        self,
        dataset: ClaimDataset,
        value_probs: Mapping[ObjectId, Mapping[Value, float]] | None = None,
    ) -> None:
        self.dataset = dataset
        self.dataset_version = dataset.version
        self.uid = next(_table_uids)
        self.objects: list[ObjectId] = dataset.objects
        slot_values: list[Value] = []
        counts: list[int] = []
        bounds = [0]
        slot_of: dict[ObjectId, dict[Value, int]] = {}
        probs: list[float] = []
        for obj in self.objects:
            values = dataset.values_for_view(obj)
            local: dict[Value, int] = {}
            if value_probs is None:
                share = 1.0 / len(values)
                for value, providers in values.items():
                    local[value] = len(slot_values)
                    slot_values.append(value)
                    counts.append(len(providers))
                    probs.append(share)
            else:
                obj_probs = value_probs.get(obj, {})
                for value, providers in values.items():
                    local[value] = len(slot_values)
                    slot_values.append(value)
                    counts.append(len(providers))
                    probs.append(obj_probs.get(value, 0.0))
            slot_of[obj] = local
            bounds.append(len(slot_values))
        self.slot_values = slot_values
        self.counts = np.asarray(counts, dtype=np.float64)
        self.bounds = np.asarray(bounds, dtype=np.int64)
        row_of_slot = np.empty(len(slot_values), dtype=np.int64)
        for row in range(len(self.objects)):
            row_of_slot[bounds[row] : bounds[row + 1]] = row
        self.row_of_slot = row_of_slot
        self.probs = np.asarray(probs, dtype=np.float64)
        # Nothing has been exchanged yet: every slot counts as moved, so
        # a first consumer of the mask re-scores everything.
        self.moved = np.ones(len(slot_values), dtype=bool)
        self.version = 0
        self._slot_of = slot_of

    def __len__(self) -> int:
        return len(self.slot_values)

    def slot(self, obj: ObjectId, value: Value) -> int:
        """The slot id of one (object, value); raises if unknown."""
        try:
            return self._slot_of[obj][value]
        except KeyError:
            raise DataError(
                f"({obj!r}, {value!r}) is not an observed claim of the "
                "table's dataset snapshot — rebuild the table after ingest"
            ) from None

    def set_probs(self, probs, tolerance: float = 0.0) -> None:
        """Swap in a new probability array; recompute the moved mask.

        ``probs`` must be slot-aligned with the table. The mask marks
        slots whose probability differs from the previous round's by
        more than ``tolerance`` — with the 0.0 default, any bitwise
        change counts (``!=``), which is what exact consumers need.
        """
        new = np.ascontiguousarray(probs, dtype=np.float64)
        if new.shape != self.probs.shape:
            raise DataError(
                f"probability array has {new.size} slots, table has "
                f"{self.probs.size}"
            )
        if tolerance < 0.0:
            raise ParameterError(
                f"tolerance must be >= 0, got {tolerance}"
            )
        if tolerance == 0.0:
            self.moved = new != self.probs
        else:
            self.moved = np.abs(new - self.probs) > tolerance
        self.probs = new
        self.version += 1

    def freeze(self) -> dict:
        """Copy-on-write freeze of the table's current state for publication.

        Returns the arrays a :class:`~repro.serve.snapshot.Snapshot`
        needs, all marked read-only. The structural arrays (``bounds``,
        ``counts``, ``row_of_slot``) are never written in place after
        construction, so they are shared zero-copy and locked in place —
        an accidental in-place write anywhere would raise from then on.
        ``probs`` *is* replaced each round (:meth:`set_probs` swaps the
        whole array rather than mutating, which is what makes the freeze
        safe), but the incoming array may alias a producer's buffer, so
        the frozen copy is materialised once per publish. The slot index
        (object -> value -> slot) is built once at construction and
        never written again, so it is shared as it is.
        """
        probs = self.probs.copy()
        probs.flags.writeable = False
        for arr in (self.bounds, self.counts, self.row_of_slot):
            arr.flags.writeable = False
        return {
            "objects": tuple(self.objects),
            "slot_values": tuple(self.slot_values),
            "bounds": self.bounds,
            "counts": self.counts,
            "row_of_slot": self.row_of_slot,
            "probs": probs,
            "slot_index": self._slot_of,
            "dataset_version": self.dataset_version,
        }

    def moved_objects(self) -> set[ObjectId]:
        """Objects owning at least one moved slot (diagnostics)."""
        rows = np.unique(self.row_of_slot[self.moved])
        return {self.objects[row] for row in rows.tolist()}

    def to_dict(self) -> dict[ObjectId, dict[Value, float]]:
        """Materialise the classic nested-dict value probabilities."""
        probs = self.probs.tolist()
        bounds = self.bounds.tolist()
        out: dict[ObjectId, dict[Value, float]] = {}
        for row, obj in enumerate(self.objects):
            lo, hi = bounds[row], bounds[row + 1]
            out[obj] = dict(zip(self.slot_values[lo:hi], probs[lo:hi]))
        return out


class TruthRoundEngine:
    """Vectorised kernels for one ACCU/DEPEN truth round.

    Owns the flat claim arrays over a :class:`ValueProbTable`'s slot
    universe, in the two iteration orders the dict path's accumulations
    follow (see each kernel), plus the rank-sorted claim permutation the
    DEPEN discount needs — cached and recomputed only when the global
    accuracy ranking changes, exactly like
    :class:`~repro.truth.vote_counting.VoteOrderCache`.
    """

    def __init__(
        self, dataset: ClaimDataset, table: ValueProbTable | None = None
    ) -> None:
        if table is None:
            table = ValueProbTable(dataset)
        elif table.dataset is not dataset:
            raise DataError(
                "value-probability table is bound to a different dataset"
            )
        self.dataset = dataset
        self.dataset_version = dataset.version
        self.table = table
        self.sources: list[SourceId] = dataset.sources
        src_code = {source: i for i, source in enumerate(self.sources)}
        self.n_sources = len(self.sources)
        self.n_slots = len(table)
        self.n_objects = len(table.objects)

        # Vote-counting order: per slot, providers in the by-object
        # index's set iteration order — the exact order the dict path's
        # `sum(scores[s] for s in providers)` walks, so the ACCU
        # bincount accumulates bitwise identically.
        claim_slot: list[int] = []
        claim_src: list[int] = []
        slot_of = table._slot_of
        for obj in table.objects:
            local = slot_of[obj]
            for value, providers in dataset.values_for_view(obj).items():
                slot = local[value]
                for source in providers:
                    claim_slot.append(slot)
                    claim_src.append(src_code[source])
        self.claim_slot = np.asarray(claim_slot, dtype=np.int64)
        self.claim_src = np.asarray(claim_src, dtype=np.int64)

        # Accuracy order: per source (sorted), that source's claims in
        # its by-source insertion order — the dict path's
        # `soft_accuracies` walk, for the same bitwise reason.
        acc_slot: list[int] = []
        acc_src: list[int] = []
        acc_counts = np.zeros(self.n_sources, dtype=np.float64)
        for code, source in enumerate(self.sources):
            claims = dataset.claims_by_view(source)
            acc_counts[code] = len(claims)
            for obj, claim in claims.items():
                acc_slot.append(slot_of[obj][claim.value])
                acc_src.append(code)
        self._acc_slot = np.asarray(acc_slot, dtype=np.int64)
        self._acc_src = np.asarray(acc_src, dtype=np.int64)
        self._acc_counts = acc_counts

        # Static slot geometry for the DEPEN grouping.
        slot_sizes = np.bincount(self.claim_slot, minlength=self.n_slots)
        starts = np.zeros(self.n_slots + 1, dtype=np.int64)
        np.cumsum(slot_sizes, out=starts[1:])
        self._slot_starts = starts[:-1]
        self._max_group = int(slot_sizes.max()) if slot_sizes.size else 0

        # Rank-order cache (DEPEN): rebuilt only on ranking change.
        self._ranking: list[int] | None = None
        self._sorted_slot = None
        self._sorted_src = None
        self._lags: list[tuple] = []

    # -- guards ----------------------------------------------------------

    def _check_version(self) -> None:
        if self.dataset.version != self.dataset_version:
            raise DataError(
                "dataset has grown since this truth-round engine was "
                "built — rebuild the engine (and its ValueProbTable)"
            )

    # -- step 0: accuracy scores (the hoisted clamp + log) ---------------

    def clamp(self, accuracies, floor: float, ceiling: float):
        """Vectorised :meth:`IterationParams.clamp_accuracy`."""
        return np.minimum(ceiling, np.maximum(floor, accuracies))

    def scores(self, clamped, n_false_values: int):
        """``A'(S) = ln(n·A / (1-A))`` over the whole accuracy array.

        The per-round per-source ``accuracy_score`` calls of the dict
        path, hoisted into one vectorised ratio plus one batched log
        pass (:func:`repro.core.fmath.log_array`, bit for bit the dict
        path's scalar log; see the module docstring).
        """
        if n_false_values < 1:
            raise ParameterError(
                f"n_false_values must be >= 1, got {n_false_values}"
            )
        return fmath.log_array(n_false_values * clamped / (1.0 - clamped))

    # -- step 1: vote counts ---------------------------------------------

    def accu_counts(self, scores):
        """ACCU vote counts per slot: one segment sum of claim scores."""
        self._check_version()
        return np.bincount(
            self.claim_slot,
            weights=scores[self.claim_src],
            minlength=self.n_slots,
        )

    def depen_counts(self, scores, dep_matrix, copy_rate: float, clamped):
        """DEPEN vote counts: rank-ordered, dependence-discounted.

        ``dep_matrix`` is the symmetric per-source-pair dependence
        posterior matrix (:func:`dependence_matrix`); ``clamped`` the
        accuracy array the ranking derives from. Claims are processed in
        each slot's decreasing-accuracy order; claim ``j`` of a slot is
        weighted by ``Π_{i<j} (1 - c·P(dep))`` with the factors
        multiplied in ascending ``i`` — the reference
        ``independence_weight`` walk, one lag per vectorised pass.
        """
        self._check_version()
        if not 0.0 < copy_rate < 1.0:
            raise ParameterError(
                f"copy_rate must be in (0, 1), got {copy_rate}"
            )
        self._rank_order(clamped)
        sorted_slot = self._sorted_slot
        sorted_src = self._sorted_src
        weight = np.ones(sorted_src.size, dtype=np.float64)
        for idx, src, anchor_src in self._lags:
            weight[idx] *= 1.0 - copy_rate * dep_matrix[src, anchor_src]
        return np.bincount(
            sorted_slot,
            weights=scores[sorted_src] * weight,
            minlength=self.n_slots,
        )

    def _rank_order(self, clamped) -> None:
        """(Re)build the rank-sorted claim permutation and lag index.

        The global ranking — sources by ``(-accuracy, source)`` — is the
        only input; while it is unchanged (the common case once the
        iteration starts settling) the cached argsort and per-lag
        gather indexes are reused as-is, the array analogue of
        :class:`~repro.truth.vote_counting.VoteOrderCache`.
        """
        acc = clamped.tolist()
        ranking = sorted(
            range(self.n_sources), key=lambda code: (-acc[code], code)
        )
        if ranking == self._ranking:
            return
        rank_of = np.empty(self.n_sources, dtype=np.int64)
        rank_of[ranking] = np.arange(self.n_sources)
        keys = self.claim_slot * self.n_sources + rank_of[self.claim_src]
        order = np.argsort(keys, kind="stable")
        sorted_slot = self.claim_slot[order]
        sorted_src = self.claim_src[order]
        offsets = (
            np.arange(sorted_slot.size, dtype=np.int64)
            - self._slot_starts[sorted_slot]
        )
        lags = []
        for i in range(self._max_group - 1):
            idx = np.flatnonzero(offsets > i)
            if idx.size == 0:
                break
            anchor_pos = self._slot_starts[sorted_slot[idx]] + i
            lags.append((idx, sorted_src[idx], sorted_src[anchor_pos]))
        self._ranking = ranking
        self._sorted_slot = sorted_slot
        self._sorted_src = sorted_src
        self._lags = lags

    # -- steps 2 + 3: decisions and softmax distributions ----------------

    def decide_and_distributions(self, counts):
        """Per-object argmax decisions and softmax distributions.

        Returns ``(winner_slots, probs)``: the winning slot per object
        row (ties broken by value ``repr``, exactly like
        :func:`~repro.truth.vote_counting.decide`) and the slot-aligned
        probability array (softmax over each object's segment, with the
        dict path's max-shift and accumulation order).
        """
        bounds = self.table.bounds
        row_of_slot = self.table.row_of_slot
        peak = np.maximum.reduceat(counts, bounds[:-1])
        slot_peak = peak[row_of_slot]

        # Decisions: among each object's maximal-count slots, the dict
        # path's max((count, repr)) picks the largest repr, first wins.
        tie_slots = np.flatnonzero(counts == slot_peak)
        tie_rows = row_of_slot[tie_slots]
        _, first = np.unique(tie_rows, return_index=True)
        winners = tie_slots[first]
        n_ties = np.bincount(tie_rows, minlength=self.n_objects)
        for row in np.flatnonzero(n_ties > 1).tolist():
            lo, hi = np.searchsorted(tie_rows, [row, row + 1])
            values = self.table.slot_values
            winners[row] = max(
                tie_slots[lo:hi].tolist(),
                key=lambda slot: repr(values[slot]),
            )

        # Distributions: fmath's exp, bit for bit the dict path's (see
        # the module docstring); the normaliser is a sequential
        # per-object segment sum.
        weights = fmath.exp_array(counts - slot_peak)
        totals = np.bincount(
            row_of_slot, weights=weights, minlength=self.n_objects
        )
        return winners, weights / totals[row_of_slot]

    # -- step 4: accuracy re-estimation ----------------------------------

    def soft_accuracies(self, probs):
        """Per-source mean probability of its claims: gather + segment mean."""
        self._check_version()
        mass = np.bincount(
            self._acc_src,
            weights=probs[self._acc_slot],
            minlength=self.n_sources,
        )
        return mass / self._acc_counts

    # -- materialisation --------------------------------------------------

    def accuracies_dict(self, accuracies) -> dict[SourceId, float]:
        """``{source: accuracy}`` from an accuracy array."""
        return dict(zip(self.sources, accuracies.tolist()))


def dependence_matrix(graph, sources: list[SourceId], src_code=None):
    """The symmetric dependence-posterior matrix of a graph.

    ``dep[i, j]`` is ``graph.probability(sources[i], sources[j])``;
    unanalysed pairs are 0.0 (treated as independent — their discount
    factor is exactly 1.0, so multiplying by it is a bitwise no-op,
    matching the dict path's behaviour of multiplying anyway).
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
