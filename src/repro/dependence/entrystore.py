"""Columnar slot storage shared by the dependence modalities.

Two containers live here:

:class:`ColumnarAgreeStore` — the numpy entry store behind
:class:`~repro.dependence.evidence.EvidenceCache`. Every candidate pair's agreement list (entry ids, in sorted
object order) is one *segment* of a single flat ``int64`` array, with a
parallel array mapping each cell to its pair's *slot id*. The per-round
hot path then collapses to array ops: gather the entries' current truth
probabilities and segment-sum them per slot with one
``np.bincount(slot_ids, weights=...)`` each for ``kt`` and ``kf``.

The one numerical fact the whole design leans on, pinned by
``tests/test_sharded_sweep.py``: **``np.bincount`` accumulates weights
sequentially in input order**, so each slot's sum adds the exact same
float64 values in the exact same left-to-right order as the pure-Python
reference loop — bit-for-bit identical, at every segment length. (This
is *not* true of ``np.sum``/``np.add.reduceat``, which use pairwise
summation above small sizes; do not swap the primitive.)

Incremental maintenance patches the arrays **in place**. Removals shift
within the segment and leave *slack* cells; an insertion into a full
segment relocates it to the array tail and *tombstones* the old region
(slot id ``-1``); dead cells are skipped by a mask at sum time and
reclaimed by :meth:`~ColumnarAgreeStore.compact` once they outnumber
the live ones. Because a segment's live cells are always contiguous and
in object order, the evidence served from any patched layout is
bit-for-bit what a cold rebuild would serve — physical layout is never
observable.

:class:`PackedRecords` — the modality-agnostic *frozen* CSR packing
used by the temporal and opinion collectors
(:class:`~repro.dependence.collector.PairSlotCollector.packed`). Those
modalities' records are heterogeneous tuples and their datasets refuse
growth after the structural pass, so a one-shot flat-list-plus-offsets
pack of Python lists gives the same contiguous-segment read path the
snapshot engine gets from the mutable store.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

#: A compaction never triggers below this many dead cells — tiny stores
#: would otherwise compact on every sync for no measurable gain.
COMPACT_MIN_DEAD = 64


class ColumnarAgreeStore:
    """Flat-array agreement segments with tombstone + compact repair.

    Slots are duck-typed: the store manages their ``sid`` (dense slot
    id, the bin index of the segment sums), ``start``/``length`` (the
    live segment ``eids[start:start+length]``) and ``cap`` (the
    allocated region — cells between ``length`` and ``cap`` are slack).
    The owning cache keeps the slot registry and the entry tables; the
    store owns only the segment geometry.
    """

    __slots__ = ("_eids", "_sids", "_used", "_dead", "_n_sids", "_live")

    def __init__(self) -> None:
        self._eids = np.empty(0, dtype=np.int64)
        self._sids = np.empty(0, dtype=np.int64)
        self._used = 0  # high-water mark; cells past it are untracked
        self._dead = 0  # tombstoned + slack cells below the mark
        self._n_sids = 0
        self._live = None  # live()'s cached (sids, eids); None = stale

    # -- introspection (tests and compaction policy) --------------------

    @property
    def used(self) -> int:
        """Cells below the high-water mark (live + dead)."""
        return self._used

    @property
    def dead(self) -> int:
        """Tombstoned and slack cells below the high-water mark."""
        return self._dead

    @property
    def n_sids(self) -> int:
        """Slot ids handed out since the last pack/compact."""
        return self._n_sids

    # -- bulk construction ----------------------------------------------

    def pack(self, segments: Iterable[tuple[object, Sequence[int]]]) -> None:
        """Cold layout: one contiguous, slack-free segment per slot.

        ``segments`` yields ``(slot, eid_list)`` in canonical slot
        order; slot ids are assigned in that order. Replaces any
        previous contents.
        """
        self._live = None
        items = [(slot, eids) for slot, eids in segments]
        total = sum(len(eids) for _, eids in items)
        self._eids = np.empty(total, dtype=np.int64)
        self._sids = np.empty(total, dtype=np.int64)
        cursor = 0
        for sid, (slot, eids) in enumerate(items):
            n = len(eids)
            slot.sid = sid
            slot.start = cursor
            slot.length = n
            slot.cap = n
            if n:
                self._eids[cursor : cursor + n] = eids
                self._sids[cursor : cursor + n] = sid
            cursor += n
        self._used = total
        self._dead = 0
        self._n_sids = len(items)

    def adopt(self, eids, sids, n_sids: int) -> None:
        """Take ownership of pre-built record arrays (the sharded merge).

        The caller guarantees the arrays are segment-contiguous with
        each segment's cells in object order and has already written the
        slots' ``sid``/``start``/``length``/``cap`` geometry.
        """
        self._live = None
        self._eids = np.ascontiguousarray(eids, dtype=np.int64)
        self._sids = np.ascontiguousarray(sids, dtype=np.int64)
        self._used = int(self._eids.size)
        self._dead = 0
        self._n_sids = n_sids

    def new_sid(self, slot) -> None:
        """Register a slot created after the pack (backfilled pair)."""
        slot.sid = self._n_sids
        slot.start = 0
        slot.length = 0
        slot.cap = 0
        self._n_sids += 1

    # -- reads -----------------------------------------------------------

    def segment(self, slot):
        """The slot's live entry ids, in object order (a view)."""
        return self._eids[slot.start : slot.start + slot.length]

    def live(self):
        """The live cells as parallel, read-only ``(sids, eids)`` arrays.

        Segment-contiguous, each segment's cells in object order — the
        canonical flat view every vectorised consumer (segment sums,
        the batched posterior kernel) reads.

        The pair is cached: views of the cell arrays while no cell below
        the high-water mark is dead, otherwise one compacted copy. Every
        method that writes cells or geometry (:meth:`pack`,
        :meth:`adopt`, :meth:`insert`, :meth:`remove`, :meth:`release`,
        :meth:`append_segment`, :meth:`compact` and the growth inside
        them) drops the cache, so the next call re-masks the cells.
        """
        if self._live is None:
            sids = self._sids[: self._used]
            eids = self._eids[: self._used]
            if self._dead:
                mask = sids >= 0
                sids = sids[mask]
                eids = eids[mask]
            sids.flags.writeable = False
            eids.flags.writeable = False
            self._live = sids, eids
        return self._live

    def sums(self, p):
        """Per-slot ``(Σ p, Σ (1-p))`` over the live segments.

        ``p`` is the entry-id-indexed float64 probability array. The
        returned float64 arrays are indexed by ``sid``. Accumulation is
        ``np.bincount`` — sequential, see the module docstring.
        """
        n = self._n_sids
        if n == 0:
            empty = np.zeros(0, dtype=np.float64)
            return empty, empty.copy()
        sids, eids = self.live()
        gathered = p[eids]
        kt = np.bincount(sids, weights=gathered, minlength=n)
        kf = np.bincount(sids, weights=1.0 - gathered, minlength=n)
        return kt, kf

    # -- in-place repair --------------------------------------------------

    def insert(self, slot, pos: int, eid: int) -> None:
        """Insert ``eid`` at segment position ``pos`` (object order).

        Uses the segment's slack when there is any; otherwise relocates
        the segment to the array tail (with room to grow) and
        tombstones the old region.
        """
        self._live = None
        start, length, cap = slot.start, slot.length, slot.cap
        eids, sids = self._eids, self._sids
        if length < cap:
            eids[start + pos + 1 : start + length + 1] = eids[
                start + pos : start + length
            ]
            eids[start + pos] = eid
            sids[start + length] = slot.sid
            slot.length = length + 1
            self._dead -= 1
            return
        new_cap = max(4, 2 * (length + 1))
        new_start = self._used
        self._ensure(new_start + new_cap)
        eids, sids = self._eids, self._sids
        eids[new_start : new_start + pos] = eids[start : start + pos]
        eids[new_start + pos] = eid
        eids[new_start + pos + 1 : new_start + length + 1] = eids[
            start + pos : start + length
        ]
        sids[new_start : new_start + length + 1] = slot.sid
        eids[new_start + length + 1 : new_start + new_cap] = 0
        sids[new_start + length + 1 : new_start + new_cap] = -1
        eids[start : start + cap] = 0
        sids[start : start + cap] = -1
        self._used = new_start + new_cap
        # Old live cells died; the new region's slack is born dead (the
        # old region's slack was already counted).
        self._dead += length + (new_cap - (length + 1))
        slot.start, slot.length, slot.cap = new_start, length + 1, new_cap

    def remove(self, slot, pos: int) -> None:
        """Remove the cell at segment position ``pos`` (shift left)."""
        self._live = None
        start, length = slot.start, slot.length
        eids, sids = self._eids, self._sids
        eids[start + pos : start + length - 1] = eids[
            start + pos + 1 : start + length
        ]
        eids[start + length - 1] = 0
        sids[start + length - 1] = -1
        slot.length = length - 1
        self._dead += 1

    def release(self, slot) -> None:
        """Tombstone a retired slot's whole region."""
        self._live = None
        start, cap = slot.start, slot.cap
        self._eids[start : start + cap] = 0
        self._sids[start : start + cap] = -1
        self._dead += slot.length  # slack cells were already dead
        slot.length = 0
        slot.cap = 0

    def append_segment(self, slot, eids: Sequence[int]) -> None:
        """Place a freshly collected segment at the tail (backfill)."""
        self._live = None
        n = len(eids)
        start = self._used
        self._ensure(start + n)
        if n:
            self._eids[start : start + n] = eids
            self._sids[start : start + n] = slot.sid
        self._used = start + n
        slot.start, slot.length, slot.cap = start, n, n

    # -- compaction -------------------------------------------------------

    def maybe_compact(self, slots: Iterable) -> np.ndarray | None:
        """Compact when dead cells outnumber live ones (hysteresis).

        Returns :meth:`compact`'s old-sid array, or ``None`` when the
        store was left as it is.
        """
        if self._dead < COMPACT_MIN_DEAD or 2 * self._dead <= self._used:
            return None
        return self.compact(slots)

    def compact(self, slots: Iterable) -> np.ndarray:
        """Rebuild the cold layout from the live segments.

        ``slots`` must be every live slot, in canonical registry order;
        slot ids are renumbered (any cached per-sid aggregates are
        stale afterwards — the owning cache re-derives them on the next
        refresh, which the mutation that made compaction worthwhile
        already forces). Returns the renumbering as an array: element
        ``i`` is the old sid of the slot that now has sid ``i``.
        """
        self._live = None
        live = list(slots)
        old = self._eids
        old_sids = np.empty(len(live), dtype=np.int64)
        total = sum(slot.length for slot in live)
        eids = np.empty(total, dtype=np.int64)
        sids = np.empty(total, dtype=np.int64)
        cursor = 0
        for sid, slot in enumerate(live):
            n = slot.length
            if n:
                eids[cursor : cursor + n] = old[
                    slot.start : slot.start + n
                ]
                sids[cursor : cursor + n] = sid
            old_sids[sid] = slot.sid
            slot.sid = sid
            slot.start = cursor
            slot.cap = n
            cursor += n
        self._eids = eids
        self._sids = sids
        self._used = total
        self._dead = 0
        self._n_sids = len(live)
        return old_sids

    def _ensure(self, n: int) -> None:
        self._live = None
        if self._eids.size >= n:
            return
        size = max(n, 2 * self._eids.size, 256)
        eids = np.empty(size, dtype=np.int64)
        sids = np.empty(size, dtype=np.int64)
        eids[: self._used] = self._eids[: self._used]
        sids[: self._used] = self._sids[: self._used]
        self._eids = eids
        self._sids = sids


class PackedRecords:
    """Frozen CSR packing of a collector's per-pair record lists.

    One flat record list plus per-pair ``(start, end)`` bounds — the
    same contiguous-segment shape the snapshot engine's columnar store
    uses, for modalities whose records are heterogeneous tuples and
    whose datasets are frozen after the structural pass.
    """

    __slots__ = ("_records", "_bounds")

    def __init__(self, slots: Mapping[tuple, Sequence]) -> None:
        records: list = []
        bounds: dict[tuple, tuple[int, int]] = {}
        for key, slot in slots.items():
            start = len(records)
            records.extend(slot)
            bounds[key] = (start, len(records))
        self._records = records
        self._bounds = bounds

    def segment(self, key: tuple) -> list:
        """The pair's records, in collection order ([] if uncollected)."""
        span = self._bounds.get(key)
        if span is None:
            return []
        start, end = span
        return self._records[start:end]

    def count(self, key: tuple) -> int:
        """Number of records collected for the pair (0 if uncollected)."""
        span = self._bounds.get(key)
        return 0 if span is None else span[1] - span[0]

    def __contains__(self, key: tuple) -> bool:
        return key in self._bounds

    def __len__(self) -> int:
        return len(self._bounds)

    @property
    def total_records(self) -> int:
        """Records across all pairs (the flat array's length)."""
        return len(self._records)
