"""Batch pair-evidence engine with round-to-round and ingest-to-ingest caching.

The iterative algorithms (DEPEN and friends) re-estimate pairwise
dependence every round. Done naively — :func:`~repro.dependence.bayes.collect_evidence`
once per candidate pair — each round re-walks the dataset O(pairs)
times, re-copying both sources' claim dicts per pair and, under the
empirical false-value model, recomputing each object's expected wrong
count once per pair per shared value. :class:`EvidenceCache` replaces
all of that with one structural pass at construction plus one cheap
soft refresh per round.

Cached vs refreshed split
-------------------------

The pair evidence ``(kt_soft, kf_soft, kd, shared_values)`` factors into
a part that depends only on *which claims exist* (static across rounds)
and a part that depends on the current ``value_probs``:

**Cached structurally** (one sweep over the by-object index at
construction, then maintained incrementally under ingest):

* the candidate pair set and, per pair, its *agreement list* — the
  shared ``(object, value)`` entries where both sources assert the same
  value, in sorted-object order — and its integer ``kd`` (overlap
  objects where they differ);
* agreement entries are deduplicated across pairs: every pair agreeing
  on ``(obj, v)`` references the same entry slot, so a value shared by
  a whole copier clique is refreshed once, not once per pair;
* per entry, the provider count ``m`` (for the empirical popularity);
* per object, the ordered ``(value, provider_count)`` list feeding the
  expected-wrong-provider count ``k_false``.

**Refreshed each round** (:meth:`EvidenceCache.refresh`, one sweep over
the deduplicated entries): the truth probability ``p_true`` of every
entry, and — empirical model only — each object's ``k_false`` and the
resulting per-entry popularity.

Columnar entry store
--------------------

Every pair's agreement list is a *segment* of one flat ``int64`` array
managed by :class:`~repro.dependence.entrystore.ColumnarAgreeStore`,
and the per-round path runs as array ops: :meth:`refresh` gathers the
entries' probabilities and computes every pair's ``kt``/``kf`` with two
sequential ``bincount`` segment sums, and :meth:`collect_all` reads the
evidence straight off the arrays. ``np.bincount`` accumulates weights
in input order, so the sums are **bit-for-bit identical** to the
per-pair reference walk (:func:`~repro.dependence.bayes.collect_evidence`,
which the equivalence tests compare against pair by pair). Incremental
repair (:meth:`sync`) patches the arrays in place: within-segment
shifts while a segment has slack, relocation-plus-tombstone when it
must grow, and a compaction pass once dead cells outnumber live ones.
The sharded build backends emit the store directly — shard record
blocks concatenate into the arrays without ever materialising per-pair
Python lists.

Incremental maintenance under mutation
--------------------------------------

The cache subscribes to its dataset's mutation log
(:meth:`~repro.core.dataset.ClaimDataset.mutations_since`), which
covers the full mutation algebra — adds, retractions and corrections —
and :meth:`EvidenceCache.sync` repairs exactly the structure the dirty
objects touch:

* for add-only deltas the pair slots gain the dirty objects' new
  agreement/``kd`` contributions (agreement segments keep sorted-object
  order via bisection, so the soft sums still accumulate in
  cold-rebuild order);
* for retractions and corrections the delta carries each touched
  source's *old* value, so the sync applies the **inverse delta**: the
  object's previously collected contributions are retired — agreement
  entries removed (tombstoned in the store), ``kd`` counts
  decremented, entry refs released — and the current state is
  re-collected from scratch for that object;
* per-pair overlap counts are maintained both ways: a pair crossing the
  ``min_overlap`` threshold is *backfilled* (its full structure is
  collected from the two sources' coverage), one dropping below it is
  retired — so the candidate set stays exactly what a cold rebuild
  would derive;
* dirty objects' provider counts (``m``, ``k_false`` inputs) are
  recomputed; clean objects are untouched;
* with a hot-object cap (``params.max_providers_per_object``), a dirty
  object's capped provider prefix may change — its old contributions
  are removed and the new prefix's re-collected;
* under the ``resident`` backend the dirty rows are re-shipped to the
  pinned workers, with objects that fell below two providers shipped as
  tombstone rows so worker state never drifts.

The invariant, asserted by the equivalence tests: after *any* sequence
of mutation batches, the evidence served for every pair is bit-for-bit
identical to a cold ``EvidenceCache`` built on the final dataset.
:meth:`refresh`/:meth:`collect_all` sync automatically, so iterating
callers never observe a stale structural state.

Fast aggregate path
-------------------

Under the uniform false-value model with ``evidence_form="expected_log"``
the per-shared-value log-likelihood loop collapses: every shared value
uses the same ``Pf`` (``q_v`` is the uniform ``1/n`` floor for all of
them), so ``Σ [pᵢ·ln Pt + (1-pᵢ)·ln Pf] = kt·ln Pt + kf·ln Pf`` — exactly
the aggregate :func:`~repro.dependence.bayes._log_likelihood`. In that
mode the engine skips materialising ``shared_values`` entirely and emits
aggregate-count evidence, which
:func:`~repro.dependence.bayes.pair_posterior` scores with the closed
form. Pass ``exact=True`` to force per-value evidence anyway; the exact
mode reproduces :func:`~repro.dependence.bayes.collect_evidence` bit for
bit (same accumulation order — both walk objects sorted).
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

import numpy as np

from repro.core.dataset import ABSENT, ClaimDataset
from repro.core.params import DependenceParams
from repro.core.types import ObjectId, SourceId, Value
from repro.dependence.bayes import PairEvidence, ValueProbabilities
from repro.dependence.collector import PairKey, ProviderCap, pair_key
from repro.dependence.entrystore import ColumnarAgreeStore
from repro.exceptions import DataError, OverlapCalibrationWarning

_EMPTY_PROBS: dict[Value, float] = {}


class _PairSlot:
    """Static structure of one candidate pair: agreement segment + kd.

    The agreement entry ids live in the shared
    :class:`~repro.dependence.entrystore.ColumnarAgreeStore`; the slot
    carries its segment geometry (``sid``/``start``/``length``/``cap``,
    managed by the store).
    """

    __slots__ = ("s1", "s2", "kd", "sid", "start", "length", "cap")

    def __init__(self, s1: SourceId, s2: SourceId) -> None:
        self.s1 = s1
        self.s2 = s2
        self.kd = 0
        self.sid = -1
        self.start = 0
        self.length = 0
        self.cap = 0


class _PairLog:
    """Registry changes since a posterior engine last read every pair.

    :class:`~repro.dependence.bayes_batch.BatchedPosteriorEngine` starts
    one (:meth:`EvidenceCache._start_pair_log`) each time its per-pair
    arrays match the registry, and patches the arrays from it at the
    next structural change instead of re-reading every slot. The
    registry only loses pairs (``_drop_slot``) and appends them
    (``_backfill_pair``), so the pairs registered at the start that
    survive keep their order, ahead of every appended one. A slot's sid
    names it stably until a store compaction renumbers the sids; the
    renumbering is folded into ``base_of_sid``, so ``dropped`` always
    speaks in the start's sids.
    """

    __slots__ = ("n_base_sids", "base_of_sid", "dropped", "changed")

    def __init__(self, n_base_sids: int) -> None:
        self.n_base_sids = n_base_sids
        #: current sid -> sid at the start (-1: slot created since);
        #: ``None`` while no compaction has renumbered (the identity).
        self.base_of_sid: np.ndarray | None = None
        #: start sids of the dropped pairs that were registered then.
        self.dropped: list[int] = []
        #: keys of pairs whose ``kd`` or segment length moved.
        self.changed: set[PairKey] = set()

    def drop(self, sid: int) -> None:
        base = self.base_of_sid
        if base is None:
            if sid < self.n_base_sids:
                self.dropped.append(sid)
        elif sid < base.size and base[sid] >= 0:
            self.dropped.append(int(base[sid]))

    def renumbered(self, old_sids: np.ndarray) -> None:
        """Fold in a compaction (``old_sids[i]``: old sid of new sid i)."""
        base = self.base_of_sid
        if base is None:
            self.base_of_sid = np.where(
                old_sids < self.n_base_sids, old_sids, -1
            )
            return
        inside = old_sids < base.size
        folded = np.full(old_sids.size, -1, dtype=np.int64)
        folded[inside] = base[old_sids[inside]]
        self.base_of_sid = folded


class EvidenceCache:
    """Per-round batch evidence for all candidate pairs of a dataset.

    Parameters
    ----------
    dataset:
        The claim store. It may keep growing (ingest); the cache tracks
        its mutation log and repairs itself on :meth:`sync` (called
        automatically by :meth:`refresh`/:meth:`collect_all`).
    candidate_pairs:
        The pairs to analyse; ``None`` derives them from the per-object
        overlap counts with ``min_overlap`` — and keeps deriving them as
        the dataset grows. An explicit pair set is fixed: ingest updates
        the listed pairs' evidence but never adds pairs. Pairs are
        normalised to ``s1 < s2``; pairs with no overlap are legal and
        yield zero evidence (prior posterior).
    min_overlap:
        Overlap prefilter used only when ``candidate_pairs`` is ``None``.
    params:
        Selects the false-value model (whether popularity is needed),
        the evidence form (whether the fast aggregate path applies) and
        the hot-object provider cap.
    exact:
        Force per-value ``shared_values`` evidence even when the fast
        aggregate path would be valid — bit-for-bit identical to the
        per-pair :func:`~repro.dependence.bayes.collect_evidence`.
    executor:
        An externally owned :class:`repro.exec.ShardExecutor` to run
        sharded builds on. The cache *borrows* it: :meth:`close` leaves
        it alive for its owner (whereas an internally created executor
        is owned and closed). It must match ``params.parallel_backend``
        — a resident cache needs a resident-capable executor.

    Typical use::

        cache = EvidenceCache(dataset, params=params)
        for each round:
            for (s1, s2), ev in cache.collect_all(value_probs).items():
                graph.add(pair_posterior(ev, acc[s1], acc[s2], params))
    """

    def __init__(
        self,
        dataset: ClaimDataset,
        candidate_pairs: Iterable[tuple[SourceId, SourceId]] | None = None,
        *,
        min_overlap: int = 1,
        params: DependenceParams | None = None,
        exact: bool = False,
        executor=None,
    ) -> None:
        if params is None:
            params = DependenceParams()
        if min_overlap < 1:
            raise DataError(f"min_overlap must be >= 1, got {min_overlap}")
        self._dataset = dataset
        self._min_overlap = min_overlap
        self._false_value_model = params.false_value_model
        self._evidence_form = params.evidence_form
        self._cap_limit = params.max_providers_per_object
        self._overlap_bound = params.overlap_warning_bound
        self._overlap_policy = params.overlap_policy
        # overlap_policy="auto": under the hazardous expected_log+uniform
        # combination, pairs whose overlap reaches the bound are scored
        # with the empirical per-shared-value evidence form instead, so
        # popularity inputs must be collected even though small pairs
        # stay on the fast aggregate path. Inert in exact mode — exact
        # is the bit-for-bit reference against collect_evidence.
        self._auto_empirical = (
            params.overlap_policy == "auto"
            and self._overlap_bound is not None
            and not exact
            and params.false_value_model == "uniform"
            and params.evidence_form == "expected_log"
        )
        self._with_popularity = (
            params.false_value_model == "empirical" or self._auto_empirical
        )
        self._fast = (
            not exact
            and params.false_value_model == "uniform"
            and params.evidence_form == "expected_log"
        )
        self._fixed = candidate_pairs is not None
        self._candidate_pairs = (
            None
            if candidate_pairs is None
            else [pair_key(s1, s2) for s1, s2 in candidate_pairs]
        )
        self._backend = params.parallel_backend
        self._num_workers = params.num_workers
        self._shard_size = params.shard_size
        # Supervision policy for internally created executors: retries,
        # per-batch deadline and the degradation ladder (see
        # repro.exec.supervisor). Captured as plain fields so the exec
        # package stays a lazy import.
        self._supervision = (
            params.max_retries,
            params.task_deadline,
            params.degrade_on_failure,
        )
        self._persistent_pool = params.pool == "persistent"
        # Executor ownership is explicit: a caller-supplied executor is
        # borrowed (close() leaves it alive); an internally created one
        # (lazily, on the first sharded build) is owned and closed.
        self._executor = executor
        self._owns_executor = executor is None
        self._resident = self._backend == "resident"
        # Resident bookkeeping survives build() calls: the parent keeps
        # the code maps that describe what the workers hold, so a warm
        # rebuild ships nothing and an incremental sync ships only
        # dirty-object row deltas.
        self._resident_fresh = False
        self._resident_sources: list[SourceId] | None = None
        self._resident_src_code: dict[SourceId, int] | None = None
        self._resident_entry_code: (
            dict[tuple[ObjectId, Value], int] | None
        ) = None
        self._last_build_shipped_bytes = 0
        self._last_sync_shipped_bytes = 0
        # The calibration hazard is specific to expected_log+uniform and
        # the warning to overlap_policy="warn" ("auto" acts instead of
        # warning, "ignore" silences); when armed, overlap growth
        # maintains a high-water mark so the warning check is O(1)
        # instead of an O(pairs) scan per sync.
        self._overlap_armed = (
            self._overlap_bound is not None
            and self._overlap_policy == "warn"
            and params.false_value_model == "uniform"
            and self._evidence_form == "expected_log"
        )
        self.build()

    def build(self) -> None:
        """(Re)run the structural pass from the dataset's current state.

        The constructor calls this once; calling it again forces a cold
        rebuild in place, discarding all cached structure (useful after
        a mutation-log compaction strands the incremental path). The
        pass dispatches on ``params.parallel_backend``: ``"serial"``
        sweeps in-process, ``"numpy"``, ``"process"`` and ``"resident"``
        run the sharded sweep of :mod:`repro.dependence.sharding` —
        in-process vectorised, or fanned out through a
        :class:`repro.exec.ShardExecutor` — whose order-canonicalised
        merge is bit-for-bit identical to the serial path for every
        worker count.

        Under the ``"resident"`` backend a rebuild while the workers'
        shard state still matches the dataset (no ingest since the last
        sync) is *warm*: the workers re-sweep their resident rows and
        only the record blocks travel — no payload bytes are shipped.
        """
        warm = (
            self._resident
            and self._resident_fresh
            and self._executor is not None
            and getattr(self, "_plan", None) is not None
            and getattr(self, "_synced_version", -1) == self._dataset.version
        )
        # A warm rebuild re-derives everything from the resident rows —
        # except the cap's truncation record, which only the packing
        # pass produces; replay the previous one (it is a pure function
        # of the dataset, which has not changed).
        prev_plan = self._plan if warm else None
        prev_truncated = dict(self._cap.truncated) if warm else None
        self._refreshed = False
        self._cap = ProviderCap(self._cap_limit)
        # Entry store: parallel arrays indexed by entry id, with freed
        # ids recycled. An entry is one deduplicated (object, value)
        # agreement, referenced by every pair slot that shares it.
        self._entry_obj: list[ObjectId | None] = []
        self._entry_value: list[Value | None] = []
        self._entry_refs: list[int] = []
        self._entry_m: list[int] = []  # provider counts (empirical only)
        self._p: list[float] = []
        self._pop: list[float] | None = [] if self._with_popularity else None
        self._free: list[int] = []
        # Per-object entry registry: obj -> {value: entry id}.
        self._groups: dict[ObjectId, dict[Value, int]] = {}
        # Per-object (value, provider_count) lists for k_false (empirical).
        self._value_counts: dict[ObjectId, list[tuple[Value, int]]] = {}
        self._slots: dict[PairKey, _PairSlot] = {}
        self._co_counts: dict[PairKey, int] | None = (
            None if self._fixed else {}
        )
        self._plan = None
        self._last_sync_routing: dict[int, int] = {}
        self._store = ColumnarAgreeStore()
        # The per-slot soft sums of the last refresh. Batched readers
        # take the arrays; the scalar readers' Python-float lists are
        # built on the first read after a refresh (see _scalar_sums).
        self._sum_lists: tuple[list[float], list[float]] | None = None
        self._kt_arr = None
        self._kf_arr = None
        self._p_arr = None
        self._pop_arr = None
        # Batched posterior engines, memoized per params (they read the
        # columnar layout directly and re-derive their static state when
        # the structural epoch moves, so they survive build()/sync()).
        self._posterior_engines = getattr(self, "_posterior_engines", {})
        # Entry-epoch versioning for the table gather: any change to the
        # entry registry (rebuild, new entry, freed entry) moves the
        # epoch, and the next refresh patches the cached entry-id ->
        # table-slot index (see _table_gather).
        self._entry_epoch = getattr(self, "_entry_epoch", 0) + 1
        self._gather = None
        self._gather_key: tuple | None = None
        # Entry ids created or recycled since the last gather.
        self._gather_fresh: set[int] = set()
        # Registry changes since the posterior engine's last full read;
        # None until an engine starts one (a rebuild forgets it, so the
        # engine re-reads every pair).
        self._pair_log: _PairLog | None = None
        self._warned_overlap = False
        self._overlap_mark: tuple[int, PairKey | None] = (0, None)
        if self._backend == "serial":
            self._build_serial()
        elif warm:
            self._plan = prev_plan
            self._build_resident_warm(prev_truncated)
        else:
            self._build_sharded()
        self._synced_version = self._dataset.version
        # A fresh structure invalidates every previously served pair.
        self._dirty_pairs: set[PairKey] = set(self._slots)
        self._dirty_probs_objects: set[ObjectId] = set()
        if self._overlap_armed:
            for slot in self._slots.values():
                self._note_overlap(slot)
        self._warn_overlap_calibration()

    def _build_serial(self) -> None:
        # --- structural pass: one sweep over the by-object index ------
        # Per object: pair up the (cap-filtered) providers once,
        # splitting each candidate pair's overlap into agreement entries
        # and kd. Objects are visited in sorted order so every pair's
        # agreement list — and therefore every soft sum built from it —
        # follows the same order as the per-pair reference walk.
        dataset = self._dataset
        scan: list[tuple[ObjectId, list[SourceId], Mapping]] = []
        counts = self._co_counts
        for obj in dataset.objects:
            providers = dataset.claims_about_view(obj)
            if len(providers) < 2:
                continue
            kept = list(self._cap.kept(obj, sorted(providers)))
            scan.append((obj, kept, providers))
            if counts is not None:
                for i, s1 in enumerate(kept):
                    for s2 in kept[i + 1 :]:
                        key = (s1, s2)
                        counts[key] = counts.get(key, 0) + 1

        if self._candidate_pairs is not None:
            for key in self._candidate_pairs:
                self._slots[key] = _PairSlot(*key)
        else:
            assert counts is not None
            for key in sorted(
                pair
                for pair, count in counts.items()
                if count >= self._min_overlap
            ):
                self._slots[key] = _PairSlot(*key)

        # The object-major sweep necessarily scatters across slots: it
        # collects per-slot entry lists, packed into the flat store once.
        cells = {key: (slot, []) for key, slot in self._slots.items()}
        for obj, kept, providers in scan:
            for i, s1 in enumerate(kept):
                v1 = providers[s1].value
                for s2 in kept[i + 1 :]:
                    cell = cells.get((s1, s2))
                    if cell is None:
                        continue
                    v2 = providers[s2].value
                    if v2 != v1:
                        cell[0].kd += 1
                        continue
                    eid = self._entry_for(obj, v1)
                    cell[1].append(eid)  # objects swept sorted: in order
                    self._entry_refs[eid] += 1
        self._store.pack(cells.values())

    def _build_sharded(self) -> None:
        """Sharded structural pass (``"numpy"`` / ``"process"`` backends).

        The by-object index is packed into per-shard numpy code arrays
        (cap filtering and ``(object, value)`` entry interning happen
        here, parent-side, so workers are pure functions of their
        payload), the shards are swept under the configured executor,
        and the record blocks are merged canonically: candidate pairs
        are selected from global counts sorted on
        :func:`~repro.dependence.collector.pair_key` order, records are
        re-sorted on ``(pair, object)``, and entries are deduplicated on
        their interning codes — every step independent of shard
        boundaries, worker count and completion order, which is what
        makes the result bit-for-bit identical to :meth:`_build_serial`.
        """
        from repro.dependence.sharding import (
            RecordBlock,
            ShardPayload,
            ShardPlanner,
        )

        dataset = self._dataset
        sources = dataset.sources
        src_code = {source: i for i, source in enumerate(sources)}
        n_sources = len(sources)

        # Pack: one O(claims) pass interning entry codes per (obj, value).
        objs: list[ObjectId] = []
        lengths: list[int] = []
        flat_src: list[int] = []
        flat_entry: list[int] = []
        entry_decode: list[tuple[ObjectId, Value]] = []
        for obj in dataset.objects:
            providers = dataset.claims_about_view(obj)
            if len(providers) < 2:
                continue
            kept = self._cap.kept(obj, sorted(providers))
            local: dict[Value, int] = {}
            for source in kept:
                value = providers[source].value
                code = local.get(value)
                if code is None:
                    code = len(entry_decode)
                    entry_decode.append((obj, value))
                    local[value] = code
                flat_src.append(src_code[source])
                flat_entry.append(code)
            objs.append(obj)
            lengths.append(len(kept))

        planner = ShardPlanner(self._num_workers, self._shard_size)
        plan = planner.plan(objs)
        self._plan = plan
        src_arr = np.asarray(flat_src, dtype=np.int64)
        entry_arr = np.asarray(flat_entry, dtype=np.int64)
        len_arr = np.asarray(lengths, dtype=np.int64)
        claim_bounds = np.zeros(len(objs) + 1, dtype=np.int64)
        np.cumsum(len_arr, out=claim_bounds[1:])
        payloads = []
        for shard_id, (start, end) in enumerate(plan.ranges()):
            lo, hi = int(claim_bounds[start]), int(claim_bounds[end])
            payloads.append(
                ShardPayload(
                    shard_id=shard_id,
                    src=src_arr[lo:hi],
                    entry=entry_arr[lo:hi],
                    lengths=len_arr[start:end],
                    n_sources=n_sources,
                )
            )
        if self._executor is None:
            from repro.exec import SupervisorPolicy, make_executor

            max_retries, task_deadline, degrade = self._supervision
            self._executor = make_executor(
                self._backend,
                self._num_workers,
                persistent=self._persistent_pool,
                supervise=SupervisorPolicy(
                    max_retries=max_retries,
                    task_deadline=task_deadline,
                    degrade_on_failure=degrade,
                ),
                # The cache owns the source of truth, so the supervisor
                # can re-pack any shard a dead worker took down and
                # retry without the cache ever seeing the loss.
                state_provider=(
                    self._resident_pack_shards if self._resident else None
                ),
            )
            self._owns_executor = True
        if self._resident:
            # Cold resident build: ship each shard's packed rows once
            # (the workers retain them), then sweep worker-side. The
            # parent records the code maps describing what was shipped,
            # so later syncs ship only dirty-row deltas and later warm
            # builds ship nothing.
            self._resident_sources = list(sources)
            self._resident_src_code = dict(src_code)
            self._resident_entry_code = {
                key: code for code, key in enumerate(entry_decode)
            }
            self._resident_fresh = False
            shard_states = {}
            bounds = claim_bounds.tolist()
            for shard_id, (start, end) in enumerate(plan.ranges()):
                shard_states[shard_id] = {
                    "objs": objs[start:end],
                    "src": [
                        flat_src[bounds[i] : bounds[i + 1]]
                        for i in range(start, end)
                    ],
                    "entry": [
                        flat_entry[bounds[i] : bounds[i + 1]]
                        for i in range(start, end)
                    ],
                    "n_sources": n_sources,
                }
            before = self._executor.bytes_shipped
            self._resident_call("resident.adopt", shard_states)
            blocks = self._resident_call(
                "resident.sweep", {sid: None for sid in shard_states}
            )
            self._last_build_shipped_bytes = (
                self._executor.bytes_shipped - before
            )
            records = RecordBlock.concatenate(
                [blocks[sid] for sid in sorted(blocks)]
            )
            self._resident_fresh = True
        else:
            records = RecordBlock.concatenate(
                self._executor.run("evidence.sweep_shard", payloads)
            )
        self._merge_records(
            records, sources, src_code, n_sources, entry_decode
        )

    def _merge_records(
        self, records, sources, src_code, n_sources, entry_decode
    ) -> None:
        """Order-canonicalised merge of swept record blocks.

        Candidate selection, record canonicalisation, entry dedup and
        slot fill — everything downstream of the executor — shared by
        the cold sharded build and the warm resident rebuild. Records
        carry no object ids: the stable pair sort relies only on their
        within-shard order, which is what lets resident workers sweep
        their shard without knowing where it starts.
        """
        import numpy as np

        dataset = self._dataset
        pair = records.pair

        # Candidate selection — sorted composite pair ids enumerate the
        # pairs in exactly sorted pair_key order (codes are the sources'
        # sorted ranks), matching the serial slot-creation order.
        if self._candidate_pairs is not None:
            for key in self._candidate_pairs:
                self._slots[key] = _PairSlot(*key)
            wanted = set()
            for s1, s2 in self._slots:
                c1 = src_code.get(s1)
                c2 = src_code.get(s2)
                if c1 is not None and c2 is not None:
                    wanted.add(c1 * n_sources + c2)
            selected_ids = np.asarray(sorted(wanted), dtype=np.int64)
        else:
            # Dense bincount beats sort-based np.unique while the pair-id
            # space is within a small factor of the record count; huge
            # source universes fall back to the sparse path.
            id_space = n_sources * n_sources
            if pair.size and id_space <= 4 * pair.size + 65536:
                full = np.bincount(pair, minlength=id_space)
                uniq = np.nonzero(full)[0]
                counts = full[uniq]
            else:
                uniq, counts = np.unique(pair, return_counts=True)
            self._co_counts = {
                (sources[u // n_sources], sources[u % n_sources]): c
                for u, c in zip(uniq.tolist(), counts.tolist())
            }
            selected_ids = uniq[counts >= self._min_overlap]
            for u in selected_ids.tolist():
                key = (sources[u // n_sources], sources[u % n_sources])
                self._slots[key] = _PairSlot(*key)

        # Canonicalise the records: keep selected pairs, sort (pair, obj).
        if selected_ids.size and pair.size:
            pos = np.minimum(
                np.searchsorted(selected_ids, pair), selected_ids.size - 1
            )
            valid = selected_ids[pos] == pair
            pair_c = pos[valid]
            entry_f = records.entry[valid]
            agree_f = records.agree[valid]
            # Blocks arrive (pair, obj)-sorted per shard and concatenate
            # in ascending-object shard order, so a *stable* sort on the
            # pair alone restores the global (pair, obj) order — and on
            # k pre-sorted runs it is nearly linear. Compact ids fit a
            # small dtype, which lets numpy pick its fastest stable sort.
            if selected_ids.size <= np.iinfo(np.int16).max:
                order = np.argsort(pair_c.astype(np.int16), kind="stable")
            else:
                order = np.argsort(pair_c, kind="stable")
            pair_c = pair_c[order]
            entry_f = entry_f[order]
            agree_f = agree_f[order]
        else:
            pair_c = np.empty(0, dtype=np.int64)
            entry_f = np.empty(0, dtype=np.int64)
            agree_f = np.empty(0, dtype=bool)
        n_selected = int(selected_ids.size)
        kd_counts = np.bincount(pair_c[~agree_f], minlength=n_selected)
        agree_pair = pair_c[agree_f]
        agree_entry = entry_f[agree_f]

        # Entry store, in bulk: unique interning codes become entry ids.
        # Codes were assigned object-major during packing, so code order
        # is first-encounter order — the same registry the serial pass
        # builds one `_entry_for` call at a time. Codes are dense
        # (bounded by the pack), so a bincount + lookup table does the
        # dedup without a sort.
        refs_full = np.bincount(agree_entry, minlength=len(entry_decode))
        uniq_codes = np.nonzero(refs_full)[0]
        eid_of = np.full(max(len(entry_decode), 1), -1, dtype=np.int64)
        eid_of[uniq_codes] = np.arange(uniq_codes.size)
        inverse = eid_of[agree_entry]
        self._entry_refs = refs_full[uniq_codes].tolist()
        for code in uniq_codes.tolist():
            obj, value = entry_decode[code]
            self._entry_obj.append(obj)
            self._entry_value.append(value)
            self._groups.setdefault(obj, {})[value] = len(self._entry_obj) - 1
        self._p = [0.0] * len(self._entry_obj)
        if self._with_popularity:
            self._entry_m = [
                dataset.providers_count(obj, value)
                for obj, value in zip(self._entry_obj, self._entry_value)
            ]
            self._pop = [1.0] * len(self._entry_obj)
            for obj in self._groups:
                self._value_counts[obj] = [
                    (v, len(sources_of))
                    for v, sources_of in dataset.values_for_view(obj).items()
                ]

        # Fill the slots: agreement records are (pair, object)-sorted,
        # so each pair's slice is its agreement list in the sorted-object
        # order every soft sum relies on.
        agree_counts = np.bincount(agree_pair, minlength=n_selected)
        bounds = np.zeros(n_selected + 1, dtype=np.int64)
        np.cumsum(agree_counts, out=bounds[1:])
        # Store adoption: the canonicalised record arrays already
        # *are* the store layout — segment-contiguous, object-sorted
        # — so the merge hands them over wholesale instead of
        # rebuilding per-slot Python lists. Slot ids follow registry
        # order (fixed candidate pairs may include pairs the sweep
        # never saw; they get empty segments).
        for sid, slot in enumerate(self._slots.values()):
            slot.sid = sid
        selected_slots = [
            self._slots[(sources[u // n_sources], sources[u % n_sources])]
            for u in selected_ids.tolist()
        ]
        starts = bounds.tolist()
        lengths = agree_counts.tolist()
        for i, slot in enumerate(selected_slots):
            slot.kd = int(kd_counts[i])
            slot.start = starts[i]
            slot.length = lengths[i]
            slot.cap = lengths[i]
        if selected_slots:
            sid_of_selected = np.asarray(
                [slot.sid for slot in selected_slots], dtype=np.int64
            )
            record_sids = sid_of_selected[agree_pair]
        else:
            record_sids = np.empty(0, dtype=np.int64)
        self._store.adopt(inverse, record_sids, len(self._slots))

    # ------------------------------------------------------------------
    # resident execution (worker-held shard state)
    # ------------------------------------------------------------------

    def _build_resident_warm(self, prev_truncated) -> None:
        """Rebuild from worker-resident rows: zero payload bytes shipped.

        Valid only while the workers' rows still describe the dataset
        (checked by :meth:`build`): the workers re-sweep what they hold
        and only the result blocks travel back. The merge is the cold
        one; the historical entry-code interning order differs from a
        cold pack's object-major order, but entry numbering is never
        observable in served evidence (segments keep object order and
        every soft sum follows segment order).
        """
        from repro.dependence.sharding import RecordBlock

        sources = self._resident_sources
        executor = self._executor
        before = executor.bytes_shipped
        blocks = self._resident_call(
            "resident.sweep",
            {sid: None for sid in range(self._plan.n_shards)},
        )
        self._last_build_shipped_bytes = executor.bytes_shipped - before
        records = RecordBlock.concatenate(
            [blocks[sid] for sid in sorted(blocks)]
        )
        self._merge_records(
            records,
            sources,
            self._resident_src_code,
            len(sources),
            list(self._resident_entry_code),
        )
        if prev_truncated:
            self._cap.absorb(prev_truncated)

    def _resident_call(self, task: str, deltas: dict) -> dict:
        """Run a resident task, surviving worker crashes.

        A crash surfaces as :exc:`~repro.exec.ResidentWorkerLost`
        naming the shards whose worker-held state died. The parent owns
        the source of truth, so recovery is re-ship-and-retry: re-pack
        those shards from the dataset, adopt them onto the respawned
        worker, and re-run the whole batch — safe because every
        resident task is idempotent (``adopt`` and ``delta`` replace,
        ``sweep`` is pure).

        A supervised executor (every internally created one) does all
        of this itself — re-adoption through its state provider,
        bounded retries, backoff, the degradation ladder — so the call
        goes straight through; the legacy re-ship loop below only
        serves caller-supplied raw executors.
        """
        if getattr(self._executor, "handles_worker_loss", False):
            return self._executor.run_shards(task, deltas)

        from repro.exec import ResidentWorkerLost

        pending_reship: set[int] = set()
        for _ in range(5):
            try:
                if pending_reship:
                    self._executor.run_shards(
                        "resident.adopt",
                        self._resident_pack_shards(sorted(pending_reship)),
                    )
                    pending_reship.clear()
                return self._executor.run_shards(task, deltas)
            except ResidentWorkerLost as lost:
                pending_reship.update(lost.shard_ids)
        raise RuntimeError(
            f"resident workers kept dying during {task!r}; giving up "
            f"after repeated state re-ships (shards {sorted(pending_reship)})"
        )

    def _resident_row(
        self, obj: ObjectId, providers: Mapping
    ) -> tuple[list[int], list[int]]:
        """One object's kept providers as resident (src, entry) code rows.

        The same cap prefix and sorted-provider order the packing pass
        uses, expressed in the resident code maps (new ``(obj, value)``
        entries are interned into the persistent registry, so worker
        rows stay mutually consistent across syncs).
        """
        kept = sorted(providers)
        cap = self._cap_limit
        if cap is not None and len(kept) > cap:
            kept = kept[:cap]
        src_code = self._resident_src_code
        entry_code = self._resident_entry_code
        row_src: list[int] = []
        row_entry: list[int] = []
        for source in kept:
            value = providers[source].value
            code = entry_code.get((obj, value))
            if code is None:
                code = len(entry_code)
                entry_code[(obj, value)] = code
            row_src.append(src_code[source])
            row_entry.append(code)
        return row_src, row_entry

    def _resident_pack_shards(self, shard_ids) -> dict[int, dict]:
        """Pack the named shards' states from the dataset.

        Used for crash recovery (re-ship what a dead worker held) and
        for the re-arm path — both replay the packing pass for a subset
        of shards, against the current dataset, in the resident code
        maps.
        """
        wanted = set(shard_ids)
        n_sources = len(self._resident_sources)
        states = {
            sid: {"objs": [], "src": [], "entry": [], "n_sources": n_sources}
            for sid in wanted
        }
        dataset = self._dataset
        plan = self._plan
        for obj in dataset.objects:
            sid = plan.shard_of(obj)
            if sid not in wanted:
                continue
            providers = dataset.claims_about_view(obj)
            if len(providers) < 2:
                continue
            row_src, row_entry = self._resident_row(obj, providers)
            state = states[sid]
            state["objs"].append(obj)
            state["src"].append(row_src)
            state["entry"].append(row_entry)
        return states

    def _resident_rearm(self) -> None:
        """Full re-pack and re-ship after the source universe grew.

        New sources change the pair-id code space every resident row is
        expressed in, so every row is stale at once. Rebuilding the
        code maps (and the plan — the object universe may have grown
        too) and re-adopting all shards keeps residency alive for a
        stream instead of degrading to cold builds forever; the bytes
        shipped are counted against the sync that triggered it.
        """
        from repro.dependence.sharding import ShardPlanner

        dataset = self._dataset
        self._resident_fresh = False
        sources = dataset.sources
        self._resident_sources = list(sources)
        self._resident_src_code = {s: i for i, s in enumerate(sources)}
        self._resident_entry_code = {}
        eligible = [
            obj
            for obj in dataset.objects
            if len(dataset.claims_about_view(obj)) >= 2
        ]
        self._plan = ShardPlanner(self._num_workers, self._shard_size).plan(
            eligible
        )
        self._resident_call(
            "resident.adopt",
            self._resident_pack_shards(range(self._plan.n_shards)),
        )
        self._resident_fresh = True

    def _resident_sync_ship(self, delta: Mapping, dirty_sorted) -> None:
        """Keep worker rows current across a sync: ship row deltas.

        The parent-side repair is already done (and is authoritative);
        this ships each dirty object's *final* row — kept providers and
        entry codes — to its shard's worker, so the next warm build or
        worker-side sweep sees exactly the state a cold pack would. A
        dirty object that fell below two providers (retractions) ships
        an empty tombstone row, which the worker-side ``apply_delta``
        interprets as "delete this object" — without it the worker would
        keep sweeping the stale pre-retraction row forever. Bytes
        shipped are exposed via :attr:`last_sync_shipped_bytes`.
        """
        self._last_sync_shipped_bytes = 0
        if self._executor is None or not self._resident_fresh:
            # No live workers (closed) or already stale: the next build
            # is cold anyway; do not let worker state drift silently.
            self._resident_fresh = False
            return
        executor = self._executor
        before = executor.bytes_shipped
        src_code = self._resident_src_code
        dataset = self._dataset
        if self._plan.n_shards == 0 or any(
            source not in src_code
            for obj in dirty_sorted
            for source in dataset.claims_about_view(obj)
        ):
            # A zero-shard plan (no object had two providers at build
            # time) leaves freshly eligible rows nowhere to route; new
            # sources invalidate the code space of every row. Both are
            # solved the same way: re-plan and re-ship. (The check walks
            # the dirty objects' *current* providers: a mutated claim's
            # source set can gain members through corrections too, not
            # just through the adds the old delta shape carried.)
            self._resident_rearm()
        else:
            rows_by_shard: dict[int, list] = {}
            for obj in dirty_sorted:
                providers = dataset.claims_about_view(obj)
                if len(providers) < 2:
                    # Tombstone: the worker deletes the object's row (a
                    # no-op if it never held one, e.g. an object that
                    # was always below the two-provider floor).
                    rows_by_shard.setdefault(
                        self._plan.shard_of(obj), []
                    ).append((obj, [], []))
                    continue
                row_src, row_entry = self._resident_row(obj, providers)
                rows_by_shard.setdefault(
                    self._plan.shard_of(obj), []
                ).append((obj, row_src, row_entry))
            if rows_by_shard:
                self._resident_call("resident.delta", rows_by_shard)
        self._last_sync_shipped_bytes = executor.bytes_shipped - before

    # ------------------------------------------------------------------
    # entry store
    # ------------------------------------------------------------------

    def _entry_for(self, obj: ObjectId, value: Value) -> int:
        """Get or create the deduplicated entry for one (obj, value)."""
        entries = self._groups.get(obj)
        if entries is None:
            entries = {}
            self._groups[obj] = entries
            if self._with_popularity:
                self._value_counts[obj] = [
                    (v, len(sources_of))
                    for v, sources_of in self._dataset.values_for_view(
                        obj
                    ).items()
                ]
        eid = entries.get(value)
        if eid is not None:
            return eid
        if self._free:
            eid = self._free.pop()
            self._entry_obj[eid] = obj
            self._entry_value[eid] = value
            self._entry_refs[eid] = 0
            self._p[eid] = 0.0
            if self._with_popularity:
                self._entry_m[eid] = self._dataset.providers_count(obj, value)
                self._pop[eid] = 1.0  # type: ignore[index]
        else:
            eid = len(self._entry_obj)
            self._entry_obj.append(obj)
            self._entry_value.append(value)
            self._entry_refs.append(0)
            self._p.append(0.0)
            if self._with_popularity:
                self._entry_m.append(self._dataset.providers_count(obj, value))
                self._pop.append(1.0)  # type: ignore[union-attr]
        entries[value] = eid
        self._entry_epoch += 1
        if self._gather is not None:
            self._gather_fresh.add(eid)
        return eid

    def _release_entry(self, eid: int) -> None:
        """Drop one reference; free the entry when nothing points at it."""
        self._entry_refs[eid] -= 1
        if self._entry_refs[eid] > 0:
            return
        obj = self._entry_obj[eid]
        entries = self._groups[obj]
        del entries[self._entry_value[eid]]
        if not entries:
            del self._groups[obj]
            self._value_counts.pop(obj, None)
        self._entry_obj[eid] = None
        self._entry_value[eid] = None
        self._free.append(eid)
        self._entry_epoch += 1

    # ------------------------------------------------------------------
    # incremental maintenance (dirty-object invalidation)
    # ------------------------------------------------------------------

    def sync(self) -> set[ObjectId]:
        """Apply the dataset's mutations since the last sync.

        Returns the dirty objects repaired (empty when already in sync).
        Called automatically by :meth:`refresh` / :meth:`collect_all`;
        call it directly to pay the structural repair eagerly at ingest
        time instead of at the next refresh.

        With a sharded build the dirty objects are routed through the
        shard plan first (:attr:`last_sync_routing` records the shards
        affected) — only those shards' slot segments are repaired.
        Because shards are ascending object ranges, the routed repair
        order is identical to the flat sorted walk, so the repaired
        state stays bit-for-bit equal to a cold rebuild either way.
        """
        dataset = self._dataset
        self._last_sync_routing = {}
        if dataset.version == self._synced_version:
            return set()
        delta = dataset.mutations_since(self._synced_version)
        self._synced_version = dataset.version
        self._refreshed = False
        backfilled: set[PairKey] = set()
        dirty_sorted = sorted(delta)
        if self._plan is not None:
            routed = self._plan.route(dirty_sorted)
            self._last_sync_routing = {
                shard: len(objs) for shard, objs in sorted(routed.items())
            }
            dirty_sorted = [
                obj for shard in sorted(routed) for obj in routed[shard]
            ]
        for obj in dirty_sorted:
            self._apply_object_delta(obj, delta[obj], backfilled)
        if self._resident:
            self._resident_sync_ship(delta, dirty_sorted)
        # Tombstones from removals/retirements accumulate across syncs;
        # reclaim once they outnumber the live cells. The compaction
        # renumbers slot ids, which is safe exactly here: the delta
        # already invalidated the per-sid sums (refresh is mandatory
        # before the next evidence read).
        renumbering = self._store.maybe_compact(self._slots.values())
        if renumbering is not None and self._pair_log is not None:
            self._pair_log.renumbered(renumbering)
        self._warn_overlap_calibration()
        return set(delta)

    def _apply_object_delta(
        self,
        obj: ObjectId,
        touched: Mapping[SourceId, Any],
        backfilled: set[PairKey],
    ) -> None:
        """Repair one dirty object's pair contributions.

        ``touched`` is the object's slice of
        :meth:`~repro.core.dataset.ClaimDataset.mutations_since`: each
        mutated source mapped to its value at the cache's previous
        synced version (:data:`~repro.core.dataset.ABSENT` when it
        asserted nothing then). Pure adds take the incremental
        only-new-pairs path; any retraction or correction takes the
        inverse-delta path — retire every contribution the old state
        made, then re-collect the current state — which is
        history-independent and therefore bit-for-bit equal to a cold
        rebuild.
        """
        dataset = self._dataset
        providers = dataset.claims_about_view(obj)
        cap = self._cap_limit
        if any(old is not ABSENT for old in touched.values()):
            # Inverse delta: reconstruct the provider→value map the
            # cache collected (untouched sources keep their current
            # value; touched sources their logged old value), retire its
            # capped prefix's contributions, then re-collect the current
            # prefix. Entry dedup plus object-sorted segments make the
            # final structure independent of this retire/re-add detour.
            old_values = {
                s: c.value for s, c in providers.items() if s not in touched
            }
            for source, old in touched.items():
                if old is not ABSENT:
                    old_values[source] = old
            kept_old: list[SourceId] = []
            if len(old_values) >= 2:
                old_sorted = sorted(old_values)
                kept_old = old_sorted[:cap] if cap is not None else old_sorted
            kept_new: list[SourceId] = []
            if len(providers) >= 2:
                kept_new = list(self._cap.kept(obj, sorted(providers)))
            # A source untouched by the delta and kept in both prefixes
            # contributes the same value to the same pairs before and
            # after: pairs with two such endpoints need no retire/re-add
            # (their agreement entries, kd counts and co-counts are all
            # unchanged — only the object's value probabilities moved,
            # which _dirty_probs_objects already covers).
            stable = (set(kept_old) & set(kept_new)) - set(touched)
            if len(kept_old) >= 2:
                self._remove_object_pairs(
                    obj, kept_old, old_values, backfilled, stable=stable
                )
            for i, s1 in enumerate(kept_new):
                in_stable = s1 in stable
                for s2 in kept_new[i + 1 :]:
                    if in_stable and s2 in stable:
                        continue
                    self._add_pair_on_object(
                        obj, s1, s2, providers, backfilled
                    )
            if cap is not None and len(providers) <= cap:
                # A shrunk object is no longer truncated; a cold rebuild
                # would not record it.
                self._cap.clear(obj)
            if obj not in self._groups:
                # Nothing agrees on the object any more (or it fell
                # below two providers): no popularity inputs to refresh.
                self._dirty_probs_objects.add(obj)
                return
        elif len(providers) < 2:
            return
        else:
            # A source can be added *and* retracted between syncs: its
            # first logged old value is ABSENT (nothing to retire) and
            # it is absent now (nothing to collect) — drop it.
            new_sources = {s for s in touched if s in providers}
            all_sorted = sorted(providers)
            if cap is not None and len(all_sorted) > cap:
                # The capped prefix may have changed: retire the old
                # prefix's contributions, collect the new prefix's. When
                # the new sources all sort past the prefix (the common
                # case for a hot object) the prefix — and every
                # contribution — is unchanged, and only the popularity
                # inputs need refreshing.
                old_sorted = [s for s in all_sorted if s not in new_sources]
                kept_old = old_sorted[:cap]
                kept_new = list(self._cap.kept(obj, all_sorted))
                if kept_new != kept_old:
                    self._remove_object_pairs(
                        obj,
                        kept_old,
                        {s: providers[s].value for s in kept_old},
                        backfilled,
                    )
                    for i, s1 in enumerate(kept_new):
                        for s2 in kept_new[i + 1 :]:
                            self._add_pair_on_object(
                                obj, s1, s2, providers, backfilled
                            )
            else:
                # Providers only grew: everything previously collected
                # for this object stands; only pairs with a new endpoint
                # appear.
                new_sorted = sorted(new_sources)
                old_sorted = [s for s in all_sorted if s not in new_sources]
                for s_new in new_sorted:
                    for s_old in old_sorted:
                        key = (
                            (s_new, s_old) if s_new < s_old else (s_old, s_new)
                        )
                        self._add_pair_on_object(
                            obj, key[0], key[1], providers, backfilled
                        )
                for i, s1 in enumerate(new_sorted):
                    for s2 in new_sorted[i + 1 :]:
                        self._add_pair_on_object(
                            obj, s1, s2, providers, backfilled
                        )
        # Provider counts changed: refresh the object's popularity inputs.
        if self._with_popularity and obj in self._groups:
            self._value_counts[obj] = [
                (v, len(sources_of))
                for v, sources_of in dataset.values_for_view(obj).items()
            ]
            for value, eid in self._groups[obj].items():
                self._entry_m[eid] = dataset.providers_count(obj, value)
        # A dirty object's value probabilities (and, empirically, its
        # popularity inputs) shift even for pairs whose *structure* this
        # delta left alone — every pair agreeing on the object must
        # re-score. Enumerating those value-group pairs here would put
        # O(group²) work on every sync whether or not anyone consumes
        # dirty-pair tracking, so only the object is recorded; the
        # expansion happens lazily in :meth:`dirty_pairs`.
        self._dirty_probs_objects.add(obj)

    def _add_pair_on_object(
        self,
        obj: ObjectId,
        s1: SourceId,
        s2: SourceId,
        providers: Mapping,
        backfilled: set[PairKey],
    ) -> None:
        """Record that (s1, s2) now overlap on ``obj``; s1 < s2."""
        key = (s1, s2)
        counts = self._co_counts
        if counts is not None:
            count = counts.get(key, 0) + 1
            counts[key] = count
            slot = self._slots.get(key)
            if slot is None:
                if count >= self._min_overlap:
                    self._backfill_pair(key)
                    backfilled.add(key)
                return
        else:
            slot = self._slots.get(key)
            if slot is None:
                return
        if key in backfilled:
            return  # the backfill already collected the final state
        self._dirty_pairs.add(key)
        if self._pair_log is not None:
            self._pair_log.changed.add(key)
        v1 = providers[s1].value
        v2 = providers[s2].value
        if v1 != v2:
            slot.kd += 1
        else:
            eid = self._entry_for(obj, v1)
            self._store.insert(slot, self._segment_bisect(slot, obj), eid)
            self._entry_refs[eid] += 1
        if self._overlap_armed:
            self._note_overlap(slot)

    def _segment_bisect(self, slot: _PairSlot, obj: ObjectId) -> int:
        """Position of ``obj`` in the slot's object-sorted segment.

        A pair agrees on at most one value per object, so the segment
        holds at most one entry per object: the bisection point is both
        the insertion position for a new object and the exact position
        of an existing one.
        """
        return bisect_left(
            self._store.segment(slot), obj, key=self._entry_obj.__getitem__
        )

    def _remove_object_pairs(
        self,
        obj: ObjectId,
        kept_old: list[SourceId],
        values: Mapping[SourceId, Value],
        backfilled: set[PairKey],
        stable: frozenset[SourceId] | set[SourceId] = frozenset(),
    ) -> None:
        """Retire the contributions the old capped prefix made for ``obj``.

        ``values`` maps each kept source to the value it asserted in the
        state being retired — the *current* claims for a cap-prefix
        retirement, the reconstructed old map for a mutation's inverse
        delta. Pairs with both endpoints in ``stable`` are skipped: the
        caller established their contribution survives the delta
        unchanged, so neither their entries nor their co-counts move.
        """
        counts = self._co_counts
        for i, s1 in enumerate(kept_old):
            v1 = values[s1]
            in_stable = s1 in stable
            for s2 in kept_old[i + 1 :]:
                if in_stable and s2 in stable:
                    continue
                key = (s1, s2)
                if counts is not None:
                    remaining = counts[key] - 1
                    if remaining:
                        counts[key] = remaining
                    else:
                        del counts[key]
                slot = self._slots.get(key)
                if slot is None:
                    continue
                if key not in backfilled:
                    # (A backfilled slot already reflects the final state
                    # of every object, this one included.)
                    self._dirty_pairs.add(key)
                    if self._pair_log is not None:
                        self._pair_log.changed.add(key)
                    if values[s2] != v1:
                        slot.kd -= 1
                    else:
                        eid = self._groups[obj][v1]
                        self._store.remove(
                            slot, self._segment_bisect(slot, obj)
                        )
                        self._release_entry(eid)
                if (
                    counts is not None
                    and counts.get(key, 0) < self._min_overlap
                ):
                    self._drop_slot(key)

    def _drop_slot(self, key: PairKey) -> None:
        """Retire a pair that fell below the overlap threshold."""
        slot = self._slots.pop(key)
        self._dirty_pairs.add(key)
        if self._pair_log is not None:
            self._pair_log.drop(slot.sid)
        for eid in self._store.segment(slot).tolist():
            self._release_entry(eid)
        self._store.release(slot)

    def _backfill_pair(self, key: PairKey) -> None:
        """Collect a newly eligible pair's full structure from scratch.

        Walks the two sources' shared coverage once — the same walk the
        per-pair reference path does — honouring the hot-object cap, so
        the slot matches what a cold rebuild would have produced.
        """
        s1, s2 = key
        dataset = self._dataset
        self._dirty_pairs.add(key)
        slot = _PairSlot(s1, s2)
        agree: list[int] = []
        claims1 = dataset.claims_by_view(s1)
        claims2 = dataset.claims_by_view(s2)
        smaller = claims1 if len(claims1) <= len(claims2) else claims2
        larger = claims2 if smaller is claims1 else claims1
        cap = self._cap_limit
        for obj in sorted(o for o in smaller if o in larger):
            if cap is not None:
                view = dataset.claims_about_view(obj)
                if len(view) > cap:
                    kept = self._cap.kept(obj, sorted(view))
                    if s1 not in kept or s2 not in kept:
                        continue
            v1 = claims1[obj].value
            if claims2[obj].value != v1:
                slot.kd += 1
                continue
            eid = self._entry_for(obj, v1)
            agree.append(eid)  # objects walked sorted: order holds
            self._entry_refs[eid] += 1
        self._store.new_sid(slot)
        self._store.append_segment(slot, agree)
        self._slots[key] = slot
        if self._overlap_armed:
            self._note_overlap(slot)

    # ------------------------------------------------------------------
    # per-round refresh
    # ------------------------------------------------------------------

    def refresh(self, value_probs) -> None:
        """Recompute the ``value_probs``-dependent soft parts.

        Syncs any pending dataset mutations first, then makes one sweep
        over the deduplicated agreement entries; under the empirical
        model each object's ``k_false`` is computed once here instead of
        once per pair per shared value.

        ``value_probs`` is either the classic nested dict or a
        :class:`~repro.truth.columnar.ValueProbTable`. With a table the
        per-entry dict probes disappear entirely: the entries' truth
        probabilities are read **positionally** — one cached
        entry-id-to-table-slot gather — and (empirical model) each
        object's ``k_false`` and the per-entry popularities are derived
        as segment sums over the table's own arrays, in the dict walk's
        accumulation order, so the results stay bit-for-bit identical.

        The dict-input entry sweep only *probes* the new probabilities
        (dict lookups are irreducible while ``value_probs`` is a nested
        dict); everything downstream — the per-slot ``kt``/``kf`` sums
        over every agreement reference — happens here as one gather plus
        two sequential ``bincount`` segment sums, bit-for-bit identical
        to the per-pair :func:`~repro.dependence.bayes.collect_evidence`
        walk.

        Either way the refresh leaves arrays only, which is all the
        batched posterior kernel reads; the scalar readers' Python
        lists are derived on their first read (:meth:`_scalar_sums`).
        """
        self.sync()
        self._refreshed = True
        if not isinstance(value_probs, dict):
            self._refresh_from_table(value_probs)
            return
        p = self._p
        if self._pop is None:
            for obj, entries in self._groups.items():
                obj_probs = value_probs.get(obj, _EMPTY_PROBS)
                for value, eid in entries.items():
                    p[eid] = obj_probs.get(value, 0.0)
            self._refresh_sums()
            return
        pop = self._pop
        entry_m = self._entry_m
        value_counts = self._value_counts
        for obj, entries in self._groups.items():
            obj_probs = value_probs.get(obj, _EMPTY_PROBS)
            k_false = sum(
                count * (1.0 - obj_probs.get(value, 0.0))
                for value, count in value_counts[obj]
            )
            for value, eid in entries.items():
                p[eid] = obj_probs.get(value, 0.0)
                if k_false > 1.0:
                    pop[eid] = min(1.0, (entry_m[eid] - 1) / (k_false - 1.0))
                else:
                    pop[eid] = 1.0
        self._refresh_sums()

    def _refresh_sums(self) -> None:
        """Derive the per-slot soft sums from the refreshed entries."""
        self._p_arr = np.asarray(self._p, dtype=np.float64)
        self._kt_arr, self._kf_arr = self._store.sums(self._p_arr)
        self._sum_lists = None
        if self._pop is not None:
            self._pop_arr = np.asarray(self._pop, dtype=np.float64)

    def _refresh_from_table(self, table) -> None:
        """Table-input refresh: positional gathers, no per-entry probes.

        The entries' probabilities are one gather through the cached
        entry-to-slot index; the empirical model's per-object
        ``k_false`` is a per-object segment sum over the table's slot
        arrays (counts times ``1 - p`` accumulated in slot order — the
        dict walk's order, so the sums are bit-for-bit identical) and
        the per-entry popularity a vectorised clamp of
        ``(m - 1) / (k_false - 1)``.
        """
        if (
            getattr(table, "probs", None) is None
            or not hasattr(table, "layout")
        ):
            raise DataError(
                "value_probs must be a nested {object: {value: p}} dict "
                f"or a ValueProbTable, got {type(table).__name__}"
            )
        if table.dataset is not self._dataset:
            raise DataError(
                "value-probability table is bound to a different "
                "ClaimDataset than this evidence cache"
            )
        if table.dataset_version != self._synced_version:
            raise DataError(
                f"value-probability table snapshots dataset version "
                f"{table.dataset_version}, cache is at "
                f"{self._synced_version} — rebuild the table after ingest"
            )
        gather = self._table_gather(table)
        p_arr = table.probs[gather]
        pop_arr = None
        if self._pop is not None:
            k_false = np.bincount(
                table.row_of_slot,
                weights=table.counts * (1.0 - table.probs),
                minlength=len(table.objects),
            )
            kf_entries = k_false[table.row_of_slot[gather]]
            m = np.asarray(self._entry_m, dtype=np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                pop_arr = np.where(
                    kf_entries > 1.0,
                    np.minimum(1.0, (m - 1.0) / (kf_entries - 1.0)),
                    1.0,
                )
        self._p_arr = p_arr
        self._kt_arr, self._kf_arr = self._store.sums(p_arr)
        self._sum_lists = None
        self._pop_arr = pop_arr

    def _scalar_sums(self) -> tuple[list[float], list[float]]:
        """The last refresh's per-slot sums as Python-float lists.

        Only the scalar readers (:meth:`collect_all`, :meth:`evidence`)
        need them; the batched posterior kernel reads the arrays. Built
        on the first scalar read after a refresh and dropped by the next
        refresh, so a DEPEN round, which reads only the arrays, never
        converts. ``tolist`` gives the floats the arrays hold, bit for
        bit.
        """
        lists = self._sum_lists
        if lists is None:
            lists = self._kt_arr.tolist(), self._kf_arr.tolist()
            self._sum_lists = lists
        return lists

    def _table_gather(self, table):
        """The entry-id -> table-slot index, patched when stale.

        Keyed on the table's :class:`~repro.truth.columnar.TruthLayout`
        (its structure) and the cache's entry epoch: while neither
        side's structure changed, the per-round refresh pays a single
        array gather and zero Python-level lookups. When they did, and
        the layout was synced from the one the index was built for, the
        index moves through the layout's ``slot_map`` in one gather;
        only entries created or recycled since are looked up by
        ``(object, value)``, and retired ones point at slot 0. Anything
        else (the first refresh, a rebuilt cache, an unrelated layout)
        is the same patch from an empty index, which looks every entry
        up.
        """
        layout = table.layout
        key = (layout.uid, self._entry_epoch)
        if self._gather_key == key:
            return self._gather
        old = self._gather
        if (
            old is not None
            and self._gather_key[0] == layout.parent_uid
            and layout.slot_map.size
        ):
            moved = layout.slot_map[old]
        else:
            moved = np.empty(0, dtype=np.int64)
        entry_obj = self._entry_obj
        n_old = moved.size
        fresh = list(range(n_old, len(entry_obj)))
        fresh += [eid for eid in self._gather_fresh if eid < n_old]
        gather = np.empty(len(entry_obj), dtype=np.int64)
        gather[:n_old] = moved
        try:
            # Retired entries (None object) gather slot 0.
            gather[fresh] = layout.slots(
                [entry_obj[eid] for eid in fresh],
                [self._entry_value[eid] for eid in fresh],
            )
            gather[self._free] = 0
            if gather.min(initial=0) < 0:
                raise KeyError  # a kept entry's claim is gone
        except KeyError:
            raise DataError(
                "an agreement entry is not an observed claim of the "
                "table's dataset snapshot — rebuild the table after "
                "ingest"
            ) from None
        self._gather = gather
        self._gather_key = key
        self._gather_fresh = set()
        return gather

    def _start_pair_log(self) -> _PairLog:
        """Begin logging registry changes from the current pair set."""
        self._pair_log = _PairLog(self._store.n_sids)
        return self._pair_log

    def posterior_engine(self, params: DependenceParams):
        """The memoized batched posterior engine for this cache.

        One engine per distinct ``params`` — the
        engine caches position-indexed static arrays keyed on the
        structural epoch, so reuse across rounds (and across
        ``sync()``/``build()`` calls) is safe and cheap.
        """
        engine = self._posterior_engines.get(params)
        if engine is None:
            from repro.dependence.bayes_batch import BatchedPosteriorEngine

            engine = BatchedPosteriorEngine(self, params)
            self._posterior_engines[params] = engine
        return engine

    # ------------------------------------------------------------------
    # evidence accessors
    # ------------------------------------------------------------------

    @property
    def pairs(self) -> list[PairKey]:
        """The candidate pairs, normalised ``s1 < s2``."""
        return list(self._slots)

    @property
    def truncated_objects(self) -> Mapping[ObjectId, int]:
        """Hot objects whose pair enumeration was capped: ``{obj: dropped}``."""
        return self._cap.truncated

    @property
    def synced_version(self) -> int:
        """The dataset version the structural state reflects."""
        return self._synced_version

    @property
    def shard_plan(self):
        """The :class:`~repro.dependence.sharding.ShardPlan` of the last
        sharded build, or ``None`` under the serial backend."""
        return self._plan

    @property
    def last_sync_routing(self) -> Mapping[int, int]:
        """Shards the last :meth:`sync` routed repairs to: ``{shard: objects}``.

        Empty under the serial backend (no plan to route through) and
        after a sync that found nothing dirty.
        """
        return dict(self._last_sync_routing)

    def dirty_pairs(self) -> set[PairKey]:
        """Pairs whose served evidence may differ since the last clear.

        Accumulated by :meth:`build` (everything) and :meth:`sync`:
        pairs whose slots were structurally touched, pairs retired or
        backfilled, and pairs agreeing on a dirty object — whose soft
        evidence shifts through the object's value probabilities even
        when their structure did not change. The value-group expansion
        of dirty objects happens here, not during sync, so callers that
        never consume the tracking never pay for it; expanding against
        the *current* dataset is safe because any pair whose agreement
        set changed — including through retractions, corrections and
        capped-prefix shifts — was structurally touched during sync and
        is already marked; the expansion only needs the pairs whose
        structure stood while the object's probabilities moved, and
        those agree on the object *now*.

        Non-destructive — call :meth:`clear_dirty_pairs` once the pairs
        have actually been re-scored, so a failure in between never
        loses invalidations. Retired pairs appear here but no longer
        serve evidence; the caller filters. This is what lets
        :meth:`~repro.dependence.streaming.StreamingDependenceEngine.discover`
        re-score only the pairs that can have moved.
        """
        expanded = set(self._dirty_pairs)
        slots = self._slots
        dataset = self._dataset
        cap = self._cap_limit
        for obj in self._dirty_probs_objects:
            providers = dataset.claims_about_view(obj)
            if len(providers) < 2:
                continue
            kept = (
                set(sorted(providers)[:cap])
                if cap is not None and len(providers) > cap
                else None
            )
            for sources_of in dataset.values_for_view(obj).values():
                if len(sources_of) < 2:
                    continue
                group = sorted(
                    s for s in sources_of if kept is None or s in kept
                )
                for i, s1 in enumerate(group):
                    for s2 in group[i + 1 :]:
                        if (s1, s2) in slots:
                            expanded.add((s1, s2))
        return expanded

    def clear_dirty_pairs(self) -> None:
        """Reset dirty-pair tracking after the consumer re-scored them."""
        self._dirty_pairs = set()
        self._dirty_probs_objects = set()

    @property
    def dataset(self) -> ClaimDataset:
        """The claim store this cache is bound to."""
        return self._dataset

    @property
    def executor(self):
        """The live :class:`repro.exec.ShardExecutor`, or ``None``."""
        return self._executor

    @property
    def owns_executor(self) -> bool:
        """Whether :meth:`close` closes the executor (vs borrowing it)."""
        return self._owns_executor

    def execution_health(self) -> dict:
        """The supervised executor's health counters, if one is live.

        ``{"supervised": False}`` for in-process execution, borrowed
        raw executors, or before the first sharded build; otherwise the
        supervisor's :meth:`~repro.exec.supervisor.SupervisedExecutor.health`
        dict (current backend, degradation state, retry/deadline/loss
        counters) under ``"supervised": True``.
        """
        health = getattr(self._executor, "health", None)
        if health is None:
            return {"supervised": False}
        return {"supervised": True, **health()}

    @property
    def last_build_shipped_bytes(self) -> int:
        """Payload bytes serialized to workers by the last :meth:`build`.

        Resident backend only (0 otherwise): a cold build ships every
        shard's packed rows; a warm build ships nothing but the sweep
        requests themselves.
        """
        return self._last_build_shipped_bytes

    @property
    def last_sync_shipped_bytes(self) -> int:
        """Payload bytes serialized to workers by the last delta-bearing
        :meth:`sync` (resident backend only; 0 otherwise). Dirty-row
        deltas in the common case; a full re-ship when new sources
        forced a re-arm or a crashed worker's state was rebuilt.
        """
        return self._last_sync_shipped_bytes

    def close(self) -> None:
        """Release the worker executor, if this cache owns one.

        Owned executors (created internally for ``pool="persistent"``
        process pools or the ``"resident"`` backend) are closed and
        dropped — for the resident backend this discards the workers'
        shard state, so the next build is cold. A borrowed executor
        (passed to the constructor) is left alive for its owner.
        Idempotent; the cache stays usable — the next sharded build
        simply starts a fresh executor.
        """
        if self._executor is None:
            return
        if self._owns_executor:
            self._executor.close()
            self._executor = None
            self._resident_fresh = False

    def __enter__(self) -> "EvidenceCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _note_overlap(self, slot: _PairSlot) -> None:
        """Raise the overlap high-water mark after a slot grew.

        Called from every growth site (build, delta repair, backfill),
        so :meth:`_warn_overlap_calibration` stays O(1) per sync instead
        of scanning all pairs. Removals do not lower the mark — a
        high-water semantic is exactly right for a warning that should
        fire once if the hazardous regime was ever entered.
        """
        overlap = slot.length + slot.kd
        if overlap > self._overlap_mark[0]:
            self._overlap_mark = (overlap, (slot.s1, slot.s2))

    def _warn_overlap_calibration(self) -> None:
        """One structured warning when expected_log+uniform leaves its
        calibrated regime (see ``DependenceParams.overlap_warning_bound``
        and :class:`~repro.exceptions.OverlapCalibrationWarning`)."""
        if not self._overlap_armed or self._warned_overlap:
            return
        worst, worst_key = self._overlap_mark
        if worst < self._overlap_bound:
            return
        self._warned_overlap = True
        warnings.warn(
            f"candidate pair {worst_key!r} overlaps on {worst} objects "
            f"(calibration bound: {self._overlap_bound}). The default "
            "evidence model "
            "(evidence_form='expected_log' with false_value_model="
            "'uniform') is known to over-detect dependence on overlaps "
            "this large — 184 false positives at threshold 0.9 on a "
            "200-object, 20-source world where the alternatives found "
            "none. Prefer false_value_model='empirical' or "
            "evidence_form='marginal' at this scale, or set "
            "DependenceParams(overlap_warning_bound=None) after "
            "validating the workload.",
            OverlapCalibrationWarning,
            # No stacklevel: build and sync reach here at different
            # depths, so no fixed value lands on the user's call site —
            # point consistently at the library rather than misattribute.
        )

    def check_bound(self, dataset: ClaimDataset, min_overlap: int) -> None:
        """Raise unless the cache serves this dataset and pair policy.

        An injected cache silently answering for a *different* dataset —
        or for a laxer overlap prefilter than the caller asked for —
        would produce wrong truths with no error, so callers accepting
        external caches (:meth:`~repro.truth.depen.Depen.discover`)
        validate the binding up front. Explicit-pair caches skip the
        ``min_overlap`` comparison: their pair set ignores it by design.
        """
        if dataset is not self._dataset:
            raise DataError(
                "evidence cache is bound to a different ClaimDataset than "
                "the one being analysed — build a cache on this dataset"
            )
        if not self._fixed and min_overlap != self._min_overlap:
            raise DataError(
                f"evidence cache derives candidate pairs with min_overlap="
                f"{self._min_overlap}, but the caller asked for "
                f"min_overlap={min_overlap} — build a matching cache"
            )

    def check_compatible(self, params: DependenceParams) -> None:
        """Raise unless the cache was built for this evidence model.

        The cache bakes the false-value model (popularity collected or
        not), the evidence form (fast aggregate path or not) and the
        hot-object cap (candidate-pair derivation) into its structure;
        scoring its output under different params would be silently
        wrong.
        """
        if (
            params.false_value_model != self._false_value_model
            or params.evidence_form != self._evidence_form
            or params.max_providers_per_object != self._cap_limit
            or params.overlap_policy != self._overlap_policy
            or (
                params.overlap_policy == "auto"
                and params.overlap_warning_bound != self._overlap_bound
            )
        ):
            raise DataError(
                "evidence cache was built for "
                f"false_value_model={self._false_value_model!r}, "
                f"evidence_form={self._evidence_form!r}, "
                f"max_providers_per_object={self._cap_limit!r}, "
                f"overlap_policy={self._overlap_policy!r}; cannot score "
                f"under false_value_model={params.false_value_model!r}, "
                f"evidence_form={params.evidence_form!r}, "
                f"max_providers_per_object={params.max_providers_per_object!r},"
                f" overlap_policy={params.overlap_policy!r}"
                " — build a new cache"
            )

    def evidence(self, s1: SourceId, s2: SourceId) -> PairEvidence:
        """Evidence for one pair, from the *last* :meth:`refresh`."""
        if not self._refreshed:
            raise DataError(
                "evidence cache has not been refreshed yet — call "
                "refresh(value_probs) or collect_all(value_probs) first"
            )
        if self._dataset.version != self._synced_version:
            raise DataError(
                "dataset has grown since the last refresh — call "
                "refresh(value_probs) or collect_all(value_probs) to fold "
                "the new claims in"
            )
        key = pair_key(s1, s2)
        slot = self._slots.get(key)
        if slot is None:
            raise DataError(f"pair ({s1!r}, {s2!r}) is not a candidate pair")
        return self._build(slot, *self._scalar_sums())

    def collect_all(
        self, value_probs: ValueProbabilities
    ) -> dict[PairKey, PairEvidence]:
        """Refresh and return evidence for every candidate pair."""
        self.refresh(value_probs)
        if self._fast and not self._auto_empirical:
            # Fast path: the refresh already produced every
            # pair's sums; assembly is one positional construction per
            # pair (kwargs cost ~25% of the whole round at this width).
            kt, kf = self._scalar_sums()
            evidence = PairEvidence
            return {
                key: evidence(
                    slot.s1,
                    slot.s2,
                    kt[slot.sid],
                    kf[slot.sid],
                    slot.kd,
                    None,
                    slot.length,
                )
                for key, slot in self._slots.items()
            }
        kt, kf = self._scalar_sums()
        return {
            key: self._build(slot, kt, kf) for key, slot in self._slots.items()
        }

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[PairKey]:
        return iter(self._slots)

    def __contains__(self, pair: tuple[SourceId, SourceId]) -> bool:
        s1, s2 = pair
        if s1 == s2:
            return False  # a self-pair is never a candidate, not an error
        return ((s1, s2) if s1 < s2 else (s2, s1)) in self._slots

    def _slot_escaped(self, slot: _PairSlot) -> bool:
        """Does ``overlap_policy="auto"`` switch this pair to empirical?

        Evaluated against the slot's *current* overlap, so pairs that
        grow across the bound under ingest switch exactly when a cold
        rebuild would have switched them.
        """
        if not self._auto_empirical:
            return False
        return slot.length + slot.kd >= self._overlap_bound

    def _build(
        self, slot: _PairSlot, kt: list[float], kf: list[float]
    ) -> PairEvidence:
        """Evidence straight off the arrays: ``kt``/``kf`` are the last
        :meth:`refresh`'s sums (:meth:`_scalar_sums`); per-value detail
        (non-fast modes) is one gather over the slot's segment."""
        sid = slot.sid
        escaped = self._slot_escaped(slot)
        if self._fast and not escaped:
            shared_values = None
        else:
            seg = self._store.segment(slot)
            probs = self._p_arr[seg].tolist()
            if self._pop is None:
                shared_values = tuple((p_true, -1.0) for p_true in probs)
            else:
                shared_values = tuple(
                    zip(probs, self._pop_arr[seg].tolist())
                )
        return PairEvidence(
            s1=slot.s1,
            s2=slot.s2,
            kt_soft=kt[sid],
            kf_soft=kf[sid],
            kd=slot.kd,
            shared_values=shared_values,
            shared_count=slot.length,
            calibrated=escaped,
        )
