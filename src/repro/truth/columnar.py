"""Array-native truth rounds: the truth-round engine of ACCU and DEPEN.

PRs 1-4 vectorised the *dependence* half of the iterative loop (batch
pair evidence, the sharded sweep, the columnar entry store). This module
closes the other half: section 3.2's round steps — vote counting,
softmax truth decisions, accuracy re-estimation — as numpy kernels over
flat per-object claim segments, plus the exchange format that lets the
evidence engine read truth probabilities positionally instead of probing
``{object: {value: p}}`` dicts per entry.

Three classes:

:class:`TruthLayout` — the immutable structure a round runs over, shared
by the two classes below. It holds the slot table (every *(object,
observed value)* pair of the dataset is one **slot**; slots are grouped
into per-object segments, CSR ``bounds`` over the sorted object list, in
each object's value-registration order — the same first-encounter
interning discipline the evidence engine's entry table uses, extended
from agreement values to every observed claim), the claim arrays in
vote order (per slot, its providers in the by-object index's set order)
and in accuracy order (per sorted source, its claims in by-source
insertion order). The slot index is row-relative: ``row_of`` maps an
object to its row and ``value_offsets`` an object to ``{value: offset
within the row's segment}``, so an object whose claims did not change
keeps its inner dict when rows shift around it.

:meth:`TruthLayout.sync` derives a dataset state's layout from the
previous one plus :meth:`~repro.core.dataset.ClaimDataset.mutations_since`,
the way :meth:`~repro.dependence.evidence.EvidenceCache.sync` repairs
evidence. Segments of objects and sources the log did not touch are
copied with array operations (slot ids shifted, source codes remapped
through an old-to-new array, a clean source's slots mapped through an
old-to-new slot array); only dirty objects' segments (in
``values_for_view`` order and provider-set order) and dirty sources'
segments (in ``claims_by_view`` order) are rebuilt from the dataset —
the same views a cold build reads, and a clean segment cannot have
changed, so a synced layout is bit-for-bit the cold build. The cold
build *is* a sync: from the empty layout, with every object and source
dirty; it runs when there is no previous layout or the log was
compacted past it. A sync returns a new layout and never writes the old
one, because published snapshots share its arrays and index dicts.

:class:`ValueProbTable` — the exchange format: a flat ``float64``
probability per slot of a layout, plus the per-run state (``probs``,
``version``). :meth:`~ValueProbTable.set_probs` swaps in each round's
new probability array whole, so a frozen copy never sees a later
round.

:class:`TruthRoundEngine` — the vectorised kernels for the four round
steps, over the table's layout:

1. *vote counts* — ACCU is one ``np.bincount`` of per-claim scores into
   slots; DEPEN additionally discounts copied votes: claims are sorted
   by ``(slot, accuracy rank)`` (every per-value provider ordering is
   a projection of one global ranking, so the sort is recomputed only
   when the ranking changes). Which
   claim positions discount which does not depend on the ranking, so
   that geometry is built once per engine; a round gathers every
   factor from the dependence matrix at once and multiplies each
   claim's run of factors in exactly the reference walk's order;
2. *decisions* — per-object segment max with the reference tie-break;
3. *distributions* — segment softmax (max-shift, exponentiate, segment
   sum, divide);
4. *accuracies* — one gather of each claim's probability plus a
   per-source segment mean.

Bitwise discipline
------------------

The equivalence reference is the dict vote-counting loop kept in the
test suite (``tests/truth_oracle.py``), and the kernels are built so
results are **bit-for-bit identical** to it, not merely close:

* every sum runs through ``np.bincount``, which accumulates weights
  sequentially in input order (the PR 4 entry-store fact), with the
  input arrays laid out in the reference loop's own iteration order;
* the DEPEN discount multiplies its factors in the reference order
  (earliest counted provider first), with ``np.multiply.reduceat``,
  whose per-segment product is sequential (unlike ``np.add``'s
  pairwise sum);
* ``exp``/``log`` come from :mod:`repro.core.fmath` on both sides: the
  kernels call its array ``log_array``/``exp_array`` (numpy's SIMD
  ``np.log``/``np.exp``), and the oracle's ``accuracy_score`` and
  ``softmax_distribution`` call its scalar ``log``/``exp``, which run
  the same ufunc on one Python float and so give the same bits as the
  matching array element. The
  deterministic tie-breaking the reproduction's experiments rely on
  therefore sees identical counts on both sides.

Parity holds between the kernels and the reference on one machine. numpy picks its
SIMD ``log``/``exp`` loop by CPU feature (AVX-512 or not), and those
loops differ from libm, and from each other, by at most 1 ulp on a small
share of inputs; so the last ulps of a probability may differ across
machines, as they already could across libm versions.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections.abc import Mapping
from operator import attrgetter, getitem

import numpy as np

from repro.core import fmath
from repro.core.dataset import ClaimDataset
from repro.core.types import ObjectId, SourceId, Value
from repro.exceptions import DataError, ParameterError

_layout_uids = itertools.count()
_value_of = attrgetter("value")


def _runs(new_idx, old_idx):
    """Maximal runs over which two ascending index arrays both step by one.

    Returns ``(new_starts, old_starts, lengths)``: element ``k`` of run
    ``r`` sits at ``new_starts[r] + k`` on the new side and at
    ``old_starts[r] + k`` on the old one.
    """
    if not new_idx.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    breaks = np.flatnonzero(
        (np.diff(new_idx) != 1) | (np.diff(old_idx) != 1)
    ) + 1
    firsts = np.concatenate(([0], breaks))
    lengths = np.diff(np.append(firsts, new_idx.size))
    return new_idx[firsts], old_idx[firsts], lengths


def _positions(starts, lengths):
    """Every position of the spans ``starts[i] : starts[i] + lengths[i]``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - (ends - lengths), lengths
    )


def _offsets(sizes):
    """``[0, cumsum(sizes)...]``: the CSR start array of segment sizes."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


def _clean(n: int, dirty) -> np.ndarray:
    """The ascending indexes below ``n`` that are not in ``dirty``."""
    keep = np.ones(n, dtype=bool)
    keep[np.asarray(dirty, dtype=np.int64)] = False
    return np.flatnonzero(keep)


def _factor_geometry(slot_starts):
    """The DEPEN discount's claim-position geometry of a vote-order layout.

    Within a slot's group (its claims sorted by accuracy rank), the
    claim at offset ``j > 0`` is discounted by one factor per earlier
    claim ``i < j``. Which positions pair up depends only on the group
    sizes, not on the ranking, so it is built once per run. Returns
    ``(later, pair_j, pair_i, seg)``: the positions with an offset
    above 0; for every within-slot pair, j-major and ascending ``i``,
    the later and the earlier position; and where each ``later``
    position's run of pairs starts.
    """
    sizes = np.diff(slot_starts)
    offset = np.arange(int(slot_starts[-1]), dtype=np.int64) - np.repeat(
        slot_starts[:-1], sizes
    )
    later = np.flatnonzero(offset)
    runs = offset[later]
    return (
        later,
        np.repeat(later, runs),
        _positions(later - runs, runs),
        _offsets(runs)[:-1],
    )


class TruthLayout:
    """The immutable structure a columnar truth round runs over.

    Everything about a dataset state that the round's kernels read but
    never change: the slot table (objects, CSR ``bounds``,
    ``slot_values``, ``counts``, ``row_of_slot`` and the row-relative
    slot index ``row_of`` / ``value_offsets``), the vote-order claim
    arrays (``claim_slot``, ``claim_src``, ``slot_starts``) and the
    accuracy-order ones (``acc_slot``, ``acc_src``, ``acc_counts``,
    ``acc_starts``). See the module docstring for the orders and for
    how :meth:`sync` derives a layout from the previous one.

    ``parent_uid`` and ``slot_map`` record how :meth:`sync` derived it:
    the ``uid`` of the layout it started from and, per slot of that
    layout, the slot the same (object, value) has here (-1 when the
    value is no longer observed). A consumer holding per-slot indexes
    into the parent (the evidence cache's entry gather) moves them with
    one gather. A cold build's parent is the empty layout.

    A layout is never written after construction: its arrays are
    read-only, and published snapshots share them, the objects list and
    the index dicts as they are.
    """

    __slots__ = (
        "dataset",
        "dataset_version",
        "uid",
        "parent_uid",
        "slot_map",
        "sources",
        "src_code",
        "objects",
        "row_of",
        "value_offsets",
        "bounds",
        "row_of_slot",
        "slot_values",
        "counts",
        "slot_starts",
        "claim_slot",
        "claim_src",
        "acc_starts",
        "acc_slot",
        "acc_src",
        "acc_counts",
    )

    def __init__(self, dataset, dataset_version, **fields) -> None:
        self.dataset = dataset
        self.dataset_version = dataset_version
        self.uid = next(_layout_uids)
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            setattr(self, name, value)

    @classmethod
    def sync(
        cls, dataset: ClaimDataset, previous: "TruthLayout | None" = None
    ) -> "TruthLayout":
        """The layout of ``dataset``'s current state.

        With a ``previous`` layout of the same dataset whose version the
        mutation log still reaches, only the objects and sources the log
        touched since are rebuilt; everything else is copied from
        ``previous`` (which is left as it is). Otherwise — no previous
        layout, another dataset, or a log compacted past it — this is a
        sync from the empty layout with every object and source dirty:
        the cold build.
        """
        if previous is not None and previous.dataset is dataset:
            if previous.dataset_version == dataset.version:
                return previous
            try:
                changes = dataset.mutations_since(previous.dataset_version)
            except DataError:
                pass
            else:
                touched: set[SourceId] = set()
                for sources in changes.values():
                    touched.update(sources)
                return previous._patched(dataset, changes, touched)
        return _EMPTY_LAYOUT._patched(dataset, dataset.objects, dataset.sources)

    def _patched(self, dataset, dirty_objects, dirty_sources) -> "TruthLayout":
        """A new layout: this one with the dirty segments rebuilt."""
        old = self
        # -- sources and their codes ------------------------------------
        old_code = old.src_code
        live_src = {}
        for source in dirty_sources:
            claims = dataset.claims_by_view(source)
            if claims:
                live_src[source] = claims
        gone_src = {
            s for s in dirty_sources if s in old_code and s not in live_src
        }
        new_src = [s for s in live_src if s not in old_code]
        code_map = None
        if gone_src or new_src:
            sources = sorted(
                [s for s in old.sources if s not in gone_src] + new_src
            )
            src_code = {s: i for i, s in enumerate(sources)}
            code_map = np.fromiter(
                (src_code.get(s, -1) for s in old.sources),
                dtype=np.int64,
                count=len(old.sources),
            )
        else:
            sources, src_code = old.sources, old_code

        # -- objects and rows -------------------------------------------
        # Dirty objects' segments, in the by-object index's order, walked
        # in object (hence row) order.
        old_row = old.row_of
        values_of = dataset.values_for_view
        offsets = dict(old.value_offsets)
        live: list[ObjectId] = []
        gone = set()
        d_values: list[Value] = []
        d_lengths: list[int] = []
        d_providers: list = []
        for obj in sorted(dirty_objects):
            values = values_of(obj)
            if values:
                live.append(obj)
                offsets[obj] = dict(zip(values, range(len(values))))
                d_values.extend(values)
                d_providers.extend(values.values())
                d_lengths.append(len(values))
            elif obj in old_row:
                gone.add(obj)
                del offsets[obj]
        d_sizes = list(map(len, d_providers))
        added = [o for o in live if o not in old_row]
        if gone or added:
            objects = list(old.objects)
            for row in sorted((old_row[o] for o in gone), reverse=True):
                del objects[row]
            if objects:
                for obj in added:
                    insort(objects, obj)
            else:  # a cold build: ``added`` is sorted, as ``live`` is
                objects = added
            row_of = dict(zip(objects, range(len(objects))))
        else:
            objects, row_of = old.objects, old_row
        dirty_new = list(map(row_of.__getitem__, live))
        dirty_old = [old_row[o] for o in dirty_objects if o in old_row]

        # -- slot table -------------------------------------------------
        n_rows = len(objects)
        new_rows = _clean(n_rows, dirty_new)
        old_rows = _clean(len(old.objects), dirty_old)
        lengths = np.empty(n_rows, dtype=np.int64)
        lengths[new_rows] = np.diff(old.bounds)[old_rows]
        dirty_rows = np.asarray(dirty_new, dtype=np.int64)
        lengths[dirty_rows] = d_lengths
        bounds = _offsets(lengths)
        run_new, run_old, run_rows = _runs(new_rows, old_rows)
        span_new = bounds[run_new]
        span_old = old.bounds[run_old]
        span_len = old.bounds[run_old + run_rows] - span_old
        slot_new = _positions(span_new, span_len)
        slot_old = _positions(span_old, span_len)
        dirty_slots = _positions(bounds[dirty_rows], lengths[dirty_rows])
        n_slots = int(bounds[-1])
        sizes = np.empty(n_slots, dtype=np.int64)
        sizes[slot_new] = np.diff(old.slot_starts)[slot_old]
        sizes[dirty_slots] = d_sizes
        old_values = old.slot_values
        if len(d_values) == n_slots:
            values = d_values  # every segment rebuilt: a cold build
        else:
            values = [None] * n_slots
            for a, b, n in zip(
                span_new.tolist(), span_old.tolist(), span_len.tolist()
            ):
                values[a : a + n] = old_values[b : b + n]
            for pos, value in zip(dirty_slots.tolist(), d_values):
                values[pos] = value

        # Old slot -> new slot (-1: the value is no longer observed):
        # clean rows' slots moved by run, dirty objects' surviving
        # values looked up by value.
        slot_map = np.full(len(old_values), -1, dtype=np.int64)
        slot_map[slot_old] = slot_new
        for obj in dirty_objects if old_row else ():
            row = old_row.get(obj)
            if row is None or obj in gone:
                continue
            old_base = int(old.bounds[row])
            new_base = int(bounds[row_of[obj]])
            local = offsets[obj]
            for value, off in old.value_offsets[obj].items():
                new_off = local.get(value)
                if new_off is not None:
                    slot_map[old_base + off] = new_base + new_off

        # -- vote order: per slot, its providers ------------------------
        slot_starts = _offsets(sizes)
        claim_src = np.empty(int(slot_starts[-1]), dtype=np.int64)
        claim_old = old.slot_starts[span_old]
        claim_len = old.slot_starts[span_old + span_len] - claim_old
        copied = old.claim_src[_positions(claim_old, claim_len)]
        claim_src[_positions(slot_starts[span_new], claim_len)] = (
            copied if code_map is None else code_map[copied]
        )
        first = slot_starts[bounds[dirty_rows]]
        dirty_claims = _positions(first, slot_starts[bounds[dirty_rows + 1]] - first)
        claim_src[dirty_claims] = np.fromiter(
            map(src_code.__getitem__, itertools.chain.from_iterable(d_providers)),
            dtype=np.int64,
            count=dirty_claims.size,
        )

        # -- accuracy order: per source, its claims ---------------------
        n_src = len(sources)
        dirty_codes = np.asarray(
            sorted(src_code[s] for s in live_src), dtype=np.int64
        )
        new_codes = _clean(n_src, dirty_codes)
        old_codes = _clean(
            len(old.sources), [old_code[s] for s in dirty_sources if s in old_code]
        )
        d_claims = [live_src[sources[c]] for c in dirty_codes.tolist()]
        acc_len = np.empty(n_src, dtype=np.int64)
        acc_len[new_codes] = np.diff(old.acc_starts)[old_codes]
        acc_len[dirty_codes] = [len(claims) for claims in d_claims]
        acc_starts = _offsets(acc_len)
        acc_slot = np.empty(int(acc_starts[-1]), dtype=np.int64)
        run_new, run_old, run_codes = _runs(new_codes, old_codes)
        acc_old = old.acc_starts[run_old]
        acc_n = old.acc_starts[run_old + run_codes] - acc_old
        if acc_n.size:
            # A clean source's claims are unchanged, but the slots they
            # point at may have moved: map old slots to new ones.
            acc_slot[_positions(acc_starts[run_new], acc_n)] = slot_map[
                old.acc_slot[_positions(acc_old, acc_n)]
            ]
        # Dirty sources' claims: slot = its row's start + the value's
        # offset in the row, looked up in C-level maps.
        d_objs = list(itertools.chain.from_iterable(d_claims))
        d_vals = map(
            _value_of,
            itertools.chain.from_iterable(claims.values() for claims in d_claims),
        )
        n_claims = len(d_objs)
        rows = np.fromiter(map(row_of.__getitem__, d_objs), np.int64, n_claims)
        offs = np.fromiter(
            map(getitem, map(offsets.__getitem__, d_objs), d_vals),
            np.int64,
            n_claims,
        )
        acc_slot[
            _positions(acc_starts[dirty_codes], acc_len[dirty_codes])
        ] = bounds[rows] + offs

        return TruthLayout(
            dataset,
            dataset.version,
            parent_uid=old.uid,
            slot_map=slot_map,
            sources=sources,
            src_code=src_code,
            objects=objects,
            row_of=row_of,
            value_offsets=offsets,
            bounds=bounds,
            row_of_slot=np.repeat(np.arange(n_rows, dtype=np.int64), lengths),
            slot_values=tuple(values),
            counts=sizes.astype(np.float64),
            slot_starts=slot_starts,
            claim_slot=np.repeat(np.arange(n_slots, dtype=np.int64), sizes),
            claim_src=claim_src,
            acc_starts=acc_starts,
            acc_slot=acc_slot,
            acc_src=np.repeat(np.arange(n_src, dtype=np.int64), acc_len),
            acc_counts=acc_len.astype(np.float64),
        )

    def slot(self, obj: ObjectId, value: Value) -> int:
        """The slot id of one (object, value); ``KeyError`` if unobserved."""
        return int(self.bounds[self.row_of[obj]]) + self.value_offsets[obj][value]

    def slots(self, objects, values) -> np.ndarray:
        """Bulk :meth:`slot` over parallel sequences (``int64`` array).

        A ``None`` object marks a padding position and maps to slot 0.
        """
        row_of = self.row_of
        offsets = self.value_offsets
        rows = [0 if obj is None else row_of[obj] for obj in objects]
        local = [
            0 if obj is None else offsets[obj][value]
            for obj, value in zip(objects, values)
        ]
        return self.bounds[np.asarray(rows, dtype=np.int64)] + np.asarray(
            local, dtype=np.int64
        )


def _empty_layout() -> TruthLayout:
    none = np.empty(0, dtype=np.int64)
    start = np.zeros(1, dtype=np.int64)
    return TruthLayout(
        None,
        -1,
        parent_uid=-1,
        slot_map=none,
        sources=[],
        src_code={},
        objects=[],
        row_of={},
        value_offsets={},
        bounds=start,
        row_of_slot=none,
        slot_values=(),
        counts=np.empty(0, dtype=np.float64),
        slot_starts=start,
        claim_slot=none,
        claim_src=none,
        acc_starts=start,
        acc_slot=none,
        acc_src=none,
        acc_counts=np.empty(0, dtype=np.float64),
    )


#: What a cold build syncs from: no objects, no sources, no claims.
_EMPTY_LAYOUT = _empty_layout()


class ValueProbTable:
    """Columnar value-probability exchange: one slot per (object, value).

    Parameters
    ----------
    dataset:
        The claim store. The table's structure (objects, observed
        values, provider counts) is a :class:`TruthLayout` of
        ``dataset``'s current state, and the table records that
        version. Consumers refuse a table whose version no longer
        matches: ingest means a new table.
    value_probs:
        Initial probabilities as the classic nested dict; ``None``
        initialises the truth-agnostic uniform distribution (each of an
        object's observed values equally likely), bit-for-bit equal to
        :func:`~repro.dependence.bayes.uniform_value_probabilities`.
    layout:
        The structure to use, already synced to ``dataset``'s current
        version (:meth:`TruthLayout.sync`); ``None`` builds it cold.

    Layout: ``probs[slot]`` is the probability of slot ``slot``;
    ``bounds[row] : bounds[row + 1]`` is the slot segment of the
    ``row``-th object of the sorted object list; within a segment slots
    follow the object's value-registration order (the by-object index's
    insertion order — the same order the evidence engine's per-object
    value lists use, which is what keeps the empirical model's
    ``k_false`` accumulation bitwise identical across layouts).
    ``counts[slot]`` is the slot's provider count. The structural
    attributes are the layout's own (shared, read-only) objects; only
    ``probs`` and ``version`` belong to the table.
    """

    __slots__ = (
        "dataset",
        "dataset_version",
        "layout",
        "objects",
        "bounds",
        "row_of_slot",
        "slot_values",
        "counts",
        "probs",
        "version",
    )

    def __init__(
        self,
        dataset: ClaimDataset,
        value_probs: Mapping[ObjectId, Mapping[Value, float]] | None = None,
        *,
        layout: TruthLayout | None = None,
    ) -> None:
        if layout is None:
            layout = TruthLayout.sync(dataset)
        elif (
            layout.dataset is not dataset
            or layout.dataset_version != dataset.version
        ):
            raise DataError(
                "truth layout is bound to another dataset (or another "
                "version of it) — sync it first"
            )
        self.dataset = dataset
        self.dataset_version = layout.dataset_version
        self.layout = layout
        self.objects: list[ObjectId] = layout.objects
        self.bounds = layout.bounds
        self.row_of_slot = layout.row_of_slot
        self.slot_values: tuple = layout.slot_values
        self.counts = layout.counts
        if value_probs is None:
            # 1.0 / len(values) per object, as the dict reference divides.
            probs = (1.0 / np.diff(self.bounds))[self.row_of_slot]
        else:
            # An object's offsets dict iterates its values in slot order.
            offsets = layout.value_offsets
            zeros = itertools.repeat(0.0)  # the default of each get
            flat: list[float] = []
            for obj in self.objects:
                obj_probs = value_probs.get(obj, {})
                flat.extend(map(obj_probs.get, offsets[obj], zeros))
            probs = np.asarray(flat, dtype=np.float64)
        self.probs = probs
        self.version = 0

    def __len__(self) -> int:
        return len(self.slot_values)

    def slot(self, obj: ObjectId, value: Value) -> int:
        """The slot id of one (object, value); raises if unknown."""
        try:
            return self.layout.slot(obj, value)
        except KeyError:
            raise DataError(
                f"({obj!r}, {value!r}) is not an observed claim of the "
                "table's dataset snapshot — rebuild the table after ingest"
            ) from None

    def set_probs(self, probs) -> None:
        """Swap in a new probability array (slot-aligned with the table)."""
        new = np.ascontiguousarray(probs, dtype=np.float64)
        if new.shape != self.probs.shape:
            raise DataError(
                f"probability array has {new.size} slots, table has "
                f"{self.probs.size}"
            )
        self.probs = new
        self.version += 1

    def freeze(self) -> dict:
        """Copy-on-write freeze of the table's current state for publication.

        Returns the arrays a :class:`~repro.serve.snapshot.Snapshot`
        needs, all read-only. The structure is the layout's, which is
        never written after construction, so its arrays, slot values and
        row-relative slot index (object -> row, object -> value -> offset
        within the row's segment) are shared as they are. ``probs`` *is*
        replaced each round (:meth:`set_probs` swaps the whole array
        rather than mutating, which is what makes the freeze safe), but
        the incoming array may alias a producer's buffer, so the frozen
        copy is materialised once per publish.
        """
        probs = self.probs.copy()
        probs.flags.writeable = False
        layout = self.layout
        return {
            "objects": tuple(self.objects),
            "slot_values": self.slot_values,
            "bounds": self.bounds,
            "counts": self.counts,
            "row_of_slot": self.row_of_slot,
            "probs": probs,
            "row_index": layout.row_of,
            "value_index": layout.value_offsets,
            "dataset_version": self.dataset_version,
        }

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

    Reads the flat claim arrays of a :class:`ValueProbTable`'s
    :class:`TruthLayout`, in the two iteration orders the dict reference's
    accumulations follow (see each kernel), and owns what the DEPEN
    discount needs: the claim-pair geometry, built once per engine, and
    the rank-sorted claims — cached and recomputed only when the global
    accuracy ranking changes. An engine lives
    for one run; the geometry stays off the shared layout.
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
        self.dataset_version = table.dataset_version
        self.table = table
        layout = table.layout
        self.sources: list[SourceId] = layout.sources
        self.n_sources = len(self.sources)
        self.n_slots = len(table)
        self.n_objects = len(table.objects)
        # Vote-counting order: per slot, providers in the by-object
        # index's set iteration order — the exact order the dict reference's
        # `sum(scores[s] for s in providers)` walks, so the ACCU
        # bincount accumulates bitwise identically.
        self.claim_slot = layout.claim_slot
        self.claim_src = layout.claim_src
        # Accuracy order: per source (sorted), that source's claims in
        # its by-source insertion order — the dict reference's
        # `soft_accuracies` walk, for the same bitwise reason.
        self._acc_slot = layout.acc_slot
        self._acc_src = layout.acc_src
        self._acc_counts = layout.acc_counts

        # DEPEN discount: the factor geometry is static for the run and
        # built on first use; the rank-order state below is rebuilt
        # only on a ranking change.
        self._geometry = None
        self._ranking = None
        self._sorted_src = None
        self._pair_flat = None

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
        posterior matrix (``tests/truth_oracle.py`` lays a graph out
        this way); ``clamped`` the accuracy array the ranking
        derives from. Claims are processed in each slot's
        decreasing-accuracy order; claim ``j`` of a slot is weighted by
        ``Π_{i<j} (1 - c·P(dep))`` with the factors multiplied in
        ascending ``i`` — the reference ``independence_weight`` walk. All factors of the round come
        from one gather of ``dep_matrix`` at the rank-order pair codes,
        and each later claim's run of factors is multiplied by one
        ``np.multiply.reduceat``, a sequential product.
        """
        self._check_version()
        if not 0.0 < copy_rate < 1.0:
            raise ParameterError(
                f"copy_rate must be in (0, 1), got {copy_rate}"
            )
        self._rank_order(clamped)
        later, _, _, seg = self._geometry
        factors = dep_matrix.take(self._pair_flat)
        factors *= copy_rate
        np.subtract(1.0, factors, out=factors)
        weight = np.ones(self.claim_src.size, dtype=np.float64)
        weight[later] = np.multiply.reduceat(factors, seg)
        return np.bincount(
            self.claim_slot,
            weights=scores[self._sorted_src] * weight,
            minlength=self.n_slots,
        )

    def _rank_order(self, clamped) -> None:
        """(Re)build the rank-order source codes of the claims and pairs.

        The global ranking — sources by ``(-accuracy, source)`` — is the
        only input; while it is unchanged (the common case once the
        iteration starts settling) the cached argsort and pair codes are
        reused as-is. A change
        re-sorts each slot's claims by rank and gathers the sources at
        the factor geometry's positions, which do not depend on the
        ranking (:func:`_factor_geometry`, built once per engine).
        """
        if self._geometry is None:
            self._geometry = _factor_geometry(self.table.layout.slot_starts)
        # Sources by (-accuracy, code): a stable sort keeps ties in
        # code order.
        ranking = np.argsort(-clamped, kind="stable")
        if self._ranking is not None and np.array_equal(ranking, self._ranking):
            return
        rank_of = np.empty(self.n_sources, dtype=np.int64)
        rank_of[ranking] = np.arange(self.n_sources)
        keys = self.claim_slot * self.n_sources + rank_of[self.claim_src]
        sorted_src = self.claim_src[np.argsort(keys, kind="stable")]
        _, pair_j, pair_i, _ = self._geometry
        flat = sorted_src[pair_j]
        flat *= self.n_sources
        flat += sorted_src[pair_i]
        self._ranking = ranking
        self._sorted_src = sorted_src
        self._pair_flat = flat  # each pair's index into the raveled dep

    # -- steps 2 + 3: decisions and softmax distributions ----------------

    def decide_and_distributions(self, counts):
        """Per-object argmax decisions and softmax distributions.

        Returns ``(winner_slots, probs)``: the winning slot per object
        row (ties broken by value ``repr``, exactly like
        :func:`~repro.truth.voting.decide`) and the slot-aligned
        probability array (softmax over each object's segment, with the
        dict reference's max-shift and accumulation order).
        """
        bounds = self.table.bounds
        row_of_slot = self.table.row_of_slot
        peak = np.maximum.reduceat(counts, bounds[:-1])
        slot_peak = peak[row_of_slot]

        # Decisions: among each object's maximal-count slots, the dict
        # path's max((count, repr)) picks the largest repr, first wins.
        # Every row has at least one tie, so with no more ties than rows
        # each row's only tie wins.
        tie_slots = np.flatnonzero(counts == slot_peak)
        winners = tie_slots
        if tie_slots.size > self.n_objects:
            # The ties' rows ascend: a row's ties start where it changes.
            tie_rows = row_of_slot[tie_slots]
            starts = np.empty(tie_rows.size, dtype=bool)
            starts[0] = True
            np.not_equal(tie_rows[1:], tie_rows[:-1], out=starts[1:])
            first = np.flatnonzero(starts)
            winners = tie_slots[first]
            n_ties = np.diff(first, append=tie_slots.size)
            multi = np.flatnonzero(n_ties > 1)
            values = self.table.slot_values
            for row, lo, n in zip(
                multi.tolist(), first[multi].tolist(), n_ties[multi].tolist()
            ):
                winners[row] = max(
                    tie_slots[lo : lo + n].tolist(),
                    key=lambda slot: repr(values[slot]),
                )

        # Distributions: fmath's exp, bit for bit the dict reference's (see
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
