"""Immutable, versioned snapshots of a published truth round.

The serving layer's unit of consistency. Each completed truth round
(DEPEN/ACCU directly, or :meth:`StreamingDependenceEngine.run_truth`
behind a :class:`~repro.session.Session`) is frozen into one
:class:`Snapshot`: per-object slot segments, slot probabilities and
provider counts (CSR arrays), the winning slot per object, per-source
accuracies and coverage, and the dependence posteriors in columnar
form — every array read-only, every list a tuple. A reader holding a
snapshot can answer ``query`` / ``recommend`` / ``explain_dependence``
calls forever without locks, and two readers of the same snapshot
always see bit-for-bit the same answers, no matter how many rounds the
writer publishes meanwhile.

The columnar truth engines hand their round over as it stands
(:class:`~repro.truth.base.ColumnarTruth`): the snapshot shares the
round's :class:`~repro.truth.columnar.ValueProbTable` structure and
slot index, copies its probabilities once, and exports a batched DEPEN
run's pair posteriors straight from their arrays. No dict or graph form
of the round is built on the way. Dict-only results (voting,
TruthFinder) are put into that same columnar form first, so there is
one freeze path.

A snapshot is *stamped* with its serving ``version`` exactly once —
normally by :meth:`~repro.serve.store.SnapshotStore.publish` — and
carries the ``dataset_version`` and ``round_id`` of the truth round it
froze. ``dataset_version`` is the dataset's *mutation-log* version: the
:class:`~repro.core.dataset.ClaimDataset` counter that every add,
retraction and correction advances, so a snapshot states exactly which
prefix of the mutation log it reflects (:attr:`Snapshot.mutation_version`
spells this out). :meth:`fingerprint` digests all array bytes plus the
metadata, so torn reads and persistence corruption are detectable as
inequality of a single hex string.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.dataset import ClaimDataset
from repro.core.types import ObjectId, SourceId, Value
from repro.exceptions import ServeError
from repro.truth.base import ColumnarTruth, TruthResult
from repro.truth.columnar import ValueProbTable

#: The arrays every snapshot carries, in fingerprint/persistence order.
ARRAY_FIELDS = (
    "bounds",
    "counts",
    "probs",
    "winners",
    "accuracies",
    "coverage",
    "pair_s1",
    "pair_s2",
    "p_dependent",
    "p_s1_copies",
    "p_s2_copies",
)


@dataclass(frozen=True, slots=True)
class ServedAnswer:
    """One query's answer, tagged with the snapshot that produced it."""

    object: ObjectId
    value: Value
    probability: float
    version: int | None
    dataset_version: int


class Snapshot:
    """One truth round, frozen for lock-free concurrent reads.

    Build through :meth:`from_result` (the normal path) or hand the
    constructor pre-frozen arrays (the persistence loader does). All
    array arguments must be read-only; the constructor re-checks rather
    than trusting callers, because a writable array would silently void
    the whole layer's consistency guarantee. The row-relative slot
    index — ``row_index`` (object -> row) and ``value_index`` (object ->
    value -> offset within the row's slot segment) — may be handed in by
    a producer that already holds it and never mutates it (a
    :class:`~repro.truth.columnar.TruthLayout`'s); otherwise it is built
    from ``bounds``.
    """

    __slots__ = (
        "objects",
        "sources",
        "slot_values",
        "bounds",
        "counts",
        "probs",
        "winners",
        "accuracies",
        "coverage",
        "pair_s1",
        "pair_s2",
        "p_dependent",
        "p_s1_copies",
        "p_s2_copies",
        "dataset_version",
        "round_id",
        "_version",
        "_row_of",
        "_value_of",
        "_src_code",
        "_adj_ptr",
        "_adj_other",
        "_adj_pair",
        "_pair_index",
        "_fingerprint",
    )

    def __init__(
        self,
        *,
        objects: tuple,
        sources: tuple,
        slot_values: tuple,
        arrays: Mapping[str, "np.ndarray"],
        dataset_version: int,
        round_id: int,
        version: int | None = None,
        row_index: Mapping[ObjectId, int] | None = None,
        value_index: Mapping[ObjectId, Mapping[Value, int]] | None = None,
    ) -> None:
        self.objects = tuple(objects)
        self.sources = tuple(sources)
        self.slot_values = tuple(slot_values)
        missing = [name for name in ARRAY_FIELDS if name not in arrays]
        if missing:
            raise ServeError(f"snapshot arrays missing {missing}")
        for name in ARRAY_FIELDS:
            arr = arrays[name]
            if arr.flags.writeable:
                raise ServeError(
                    f"snapshot array {name!r} is writable — freeze it "
                    "(writeable=False) before publication"
                )
            setattr(self, name, arr)
        if len(self.winners) != len(self.objects):
            raise ServeError(
                f"{len(self.winners)} winners for {len(self.objects)} objects"
            )
        if len(self.accuracies) != len(self.sources):
            raise ServeError(
                f"{len(self.accuracies)} accuracies for "
                f"{len(self.sources)} sources"
            )
        self.dataset_version = dataset_version
        self.round_id = round_id
        self._version = version
        # Read-side indexes: object -> row and object -> value -> offset
        # in the row's slot segment (shared from the producer's layout
        # when it hands them in), source -> code, and the dependence
        # adjacency in CSR form: source code c's entries are
        # _adj_ptr[c] : _adj_ptr[c + 1] of _adj_other (the partner's
        # code) and _adj_pair (the pair index), in pair-index order.
        if row_index is None or value_index is None:
            bounds = self.bounds.tolist()
            row_index = {obj: row for row, obj in enumerate(self.objects)}
            value_index = {
                obj: {
                    self.slot_values[slot]: slot - bounds[row]
                    for slot in range(bounds[row], bounds[row + 1])
                }
                for row, obj in enumerate(self.objects)
            }
        self._row_of = row_index
        self._value_of = value_index
        self._src_code = {source: i for i, source in enumerate(self.sources)}
        # Both endpoints of pair k sit at positions 2k and 2k + 1, so a
        # stable sort by endpoint keeps each source's entries in pair
        # order. Held as lists: reads are scalar, and list.index scans
        # one source's segment in C.
        ends = np.column_stack((self.pair_s1, self.pair_s2)).ravel()
        order = np.argsort(ends, kind="stable")
        partners = np.column_stack((self.pair_s2, self.pair_s1)).ravel()
        counts = np.bincount(ends, minlength=len(self.sources))
        self._adj_ptr = [0, *np.cumsum(counts).tolist()]
        self._adj_other = partners[order].tolist()
        self._adj_pair = (order // 2).tolist()
        # {lo * n_sources + hi: pair index} over each pair's two source
        # codes, built on the first pair lookup (see _pair).
        self._pair_index: dict[int, int] | None = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_result(
        cls,
        dataset: ClaimDataset,
        result: TruthResult,
        *,
        round_id: int | None = None,
        version: int | None = None,
    ) -> "Snapshot":
        """Freeze one truth-discovery result over the dataset it saw.

        The result's :class:`~repro.truth.base.ColumnarTruth` is frozen
        as it stands: the snapshot shares its table's structural arrays
        and slot index, copies the slot probabilities once, and takes
        the winner-slot and accuracy arrays (read-only) as they are. A
        batched DEPEN run's pair posteriors are exported straight from
        their arrays (:meth:`PairPosteriorArrays.export_arrays
        <repro.dependence.graph.PairPosteriorArrays.export_arrays>`);
        any other dependence graph through
        :meth:`~repro.dependence.graph.DependenceGraph.export_arrays`.
        A dict-only result (voting, TruthFinder, the ``dict`` truth
        backend) is first put into columnar form by building a
        :class:`~repro.truth.columnar.ValueProbTable` from its
        distributions; sources without an accuracy estimate (naive
        voting) freeze 0.0.

        Raises :class:`~repro.exceptions.ServeError` when the result was
        computed on another dataset version than ``dataset``'s current
        one, or when its columnar form is bound to another dataset: the
        snapshot would be stamped with a state the round never saw.
        """
        if (
            result.dataset_version is not None
            and result.dataset_version != dataset.version
        ):
            raise ServeError(
                f"truth result was computed on dataset "
                f"v{result.dataset_version}, but the dataset is at "
                f"v{dataset.version} — re-run truth discovery first"
            )
        columnar = result.columnar
        if columnar is None:
            columnar = _columnar_form(dataset, result)
        table = columnar.table
        if (
            table.dataset is not dataset
            or table.dataset_version != dataset.version
        ):
            raise ServeError(
                "truth result's columnar form is bound to another "
                "dataset (or another version of it)"
            )
        frozen = table.freeze()
        sources = tuple(dataset.sources)
        coverage = np.asarray(
            [dataset.coverage(s) for s in sources], dtype=np.int64
        )
        coverage.flags.writeable = False
        if columnar.pairs is not None:
            dep = columnar.pairs.export_arrays()
        elif result.dependence is not None:
            dep = result.dependence.export_arrays(list(sources))
        else:
            dep = _empty_dependence()
        arrays = {
            "bounds": frozen["bounds"],
            "counts": frozen["counts"],
            "probs": frozen["probs"],
            "winners": columnar.winners,
            "accuracies": columnar.accuracies,
            "coverage": coverage,
            **dep,
        }
        return cls(
            objects=frozen["objects"],
            sources=sources,
            slot_values=frozen["slot_values"],
            arrays=arrays,
            dataset_version=frozen["dataset_version"],
            round_id=result.rounds if round_id is None else round_id,
            version=version,
            row_index=frozen["row_index"],
            value_index=frozen["value_index"],
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def version(self) -> int | None:
        """The serving version, once stamped by a store (else ``None``)."""
        return self._version

    @property
    def mutation_version(self) -> int:
        """The mutation-log version of the dataset state this round froze.

        Every mutation — add, retraction, correction — applied at or
        below this version is reflected in the frozen arrays; anything
        logged later is not. The same number as :attr:`dataset_version`
        (a :class:`~repro.core.dataset.ClaimDataset` has exactly one
        version counter, advanced by its mutation log), surfaced under
        its precise name for the serving layer's consistency story.
        """
        return self.dataset_version

    def _stamp(self, version: int) -> None:
        """Assign the serving version; exactly once, by the store."""
        if self._version is not None:
            raise ServeError(
                f"snapshot already published as version {self._version}; "
                "a snapshot is immutable once stamped"
            )
        self._version = version

    def fingerprint(self) -> str:
        """SHA-256 over every array's bytes plus the metadata (hex).

        Two snapshots with equal fingerprints answer every query
        bit-for-bit identically; the digest is cached (the arrays cannot
        change) and is what the persistence layer and the no-torn-reads
        tests compare.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(
                repr(
                    (
                        self.objects,
                        self.sources,
                        self.slot_values,
                        self.dataset_version,
                        self.round_id,
                    )
                ).encode()
            )
            for name in ARRAY_FIELDS:
                arr = getattr(self, name)
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(arr).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __len__(self) -> int:
        return len(self.slot_values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        stamp = "unpublished" if self._version is None else f"v{self._version}"
        return (
            f"Snapshot({stamp}, {len(self.objects)} objects, "
            f"{len(self.sources)} sources, round {self.round_id}, "
            f"dataset v{self.dataset_version})"
        )

    # ------------------------------------------------------------------
    # truth reads
    # ------------------------------------------------------------------

    def _row(self, obj: ObjectId) -> int:
        try:
            return self._row_of[obj]
        except KeyError:
            raise ServeError(
                f"object {obj!r} is not covered by this snapshot "
                f"(dataset v{self.dataset_version})"
            ) from None

    def answer(self, obj: ObjectId) -> ServedAnswer:
        """The served truth for one object: winning value + probability."""
        row = self._row(obj)
        slot = int(self.winners[row])
        return ServedAnswer(
            object=obj,
            value=self.slot_values[slot],
            probability=float(self.probs[slot]),
            version=self._version,
            dataset_version=self.dataset_version,
        )

    def probability(self, obj: ObjectId, value: Value) -> float:
        """Posterior probability of one (object, value); 0.0 if unobserved."""
        row = self._row(obj)
        offset = self._value_of[obj].get(value)
        if offset is None:
            return 0.0
        return float(self.probs[self.bounds[row] + offset])

    def distribution(self, obj: ObjectId) -> dict[Value, float]:
        """The full value distribution of one object (a fresh dict)."""
        row = self._row(obj)
        lo, hi = int(self.bounds[row]), int(self.bounds[row + 1])
        return {
            self.slot_values[slot]: float(self.probs[slot])
            for slot in range(lo, hi)
        }

    def decisions(self) -> dict[ObjectId, Value]:
        """All winning values, as the classic decisions dict."""
        return {
            obj: self.slot_values[slot]
            for obj, slot in zip(self.objects, self.winners.tolist())
        }

    # ------------------------------------------------------------------
    # source reads
    # ------------------------------------------------------------------

    def _code(self, source: SourceId) -> int:
        try:
            return self._src_code[source]
        except KeyError:
            raise ServeError(
                f"source {source!r} is not covered by this snapshot"
            ) from None

    def accuracy(self, source: SourceId) -> float:
        """The frozen accuracy estimate of one source."""
        return float(self.accuracies[self._code(source)])

    def source_coverage(self, source: SourceId) -> int:
        """Objects the source covered at freeze time."""
        return int(self.coverage[self._code(source)])

    def _pair(self, i: int, j: int) -> int | None:
        """The pair index of source codes ``i`` and ``j``, if analysed.

        One dict probe. The index is built on the first lookup, not at
        construction, so a publish never pays for it; concurrent first
        readers may each build one, and each assigns only a finished
        index, so no reader sees a partial one.
        """
        n = len(self.sources)
        index = self._pair_index
        if index is None:
            s1 = self.pair_s1.astype(np.int64)
            s2 = self.pair_s2.astype(np.int64)
            keys = (np.minimum(s1, s2) * n + np.maximum(s1, s2)).tolist()
            # Built back to front, so a repeated pair keeps its first
            # index, as a scan in pair order would find it.
            index = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
            self._pair_index = index
        return index.get(i * n + j if i < j else j * n + i)

    def dependence_probability(self, s1: SourceId, s2: SourceId) -> float:
        """Total dependence posterior of a pair (0.0 if unanalysed)."""
        k = self._pair(self._code(s1), self._code(s2))
        return 0.0 if k is None else float(self.p_dependent[k])

    def directed_probability(
        self, copier: SourceId, original: SourceId
    ) -> float:
        """Posterior that ``copier`` copies ``original`` (0.0 if unanalysed)."""
        i, j = self._code(copier), self._code(original)
        k = self._pair(i, j)
        if k is None:
            return 0.0
        directed = self.p_s1_copies if i < j else self.p_s2_copies
        return float(directed[k])

    def dependence_score(self, source: SourceId) -> float:
        """Max dependence posterior over the source's analysed pairs."""
        code = self._code(source)
        pairs = self._adj_pair[self._adj_ptr[code] : self._adj_ptr[code + 1]]
        if not pairs:
            return 0.0
        return max(float(self.p_dependent[k]) for k in pairs)

    def explain_dependence(
        self, source: SourceId, threshold: float = 0.0
    ) -> list[dict]:
        """The source's dependence neighbourhood, strongest pair first.

        Each entry reports the partner, the total posterior, and the
        directed posterior that *this* source is the copier — the
        "explanation" the recommendation surface shows next to a
        penalised source.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ServeError(
                f"threshold must be in [0, 1], got {threshold}"
            )
        code = self._code(source)
        lo, hi = self._adj_ptr[code], self._adj_ptr[code + 1]
        entries = []
        for other, k in zip(self._adj_other[lo:hi], self._adj_pair[lo:hi]):
            p = float(self.p_dependent[k])
            if p < threshold:
                continue
            directed = (
                self.p_s1_copies
                if code == int(self.pair_s1[k])
                else self.p_s2_copies
            )
            entries.append(
                {
                    "source": source,
                    "other": self.sources[other],
                    "p_dependent": p,
                    "p_copies_other": float(directed[k]),
                }
            )
        entries.sort(key=lambda e: (-e["p_dependent"], repr(e["other"])))
        return entries


def _columnar_form(dataset: ClaimDataset, result: TruthResult) -> ColumnarTruth:
    """The columnar form of a dict-only result, over ``dataset``.

    Builds a :class:`~repro.truth.columnar.ValueProbTable` from the
    result's distributions (so the slot universe and segment order are
    exactly the columnar engines'), looks each decision's slot up, and
    gathers the accuracies per sorted source (0.0 where the result has
    no estimate).
    """
    table = ValueProbTable(dataset, result.distributions)
    decisions = result.decisions
    try:
        winners = table.layout.slots(
            table.objects, [decisions[obj] for obj in table.objects]
        )
    except KeyError as exc:
        raise ServeError(
            f"truth result does not cover the dataset it is frozen over: {exc}"
        ) from None
    accuracies = np.asarray(
        [result.accuracies.get(s, 0.0) for s in dataset.sources],
        dtype=np.float64,
    )
    return ColumnarTruth(table, winners, accuracies)


def _empty_dependence() -> dict:
    """The dependence export of a result without a graph (all independent)."""
    arrays = {
        "pair_s1": np.empty(0, dtype=np.int64),
        "pair_s2": np.empty(0, dtype=np.int64),
        "p_dependent": np.empty(0, dtype=np.float64),
        "p_s1_copies": np.empty(0, dtype=np.float64),
        "p_s2_copies": np.empty(0, dtype=np.float64),
    }
    for arr in arrays.values():
        arr.flags.writeable = False
    return arrays
