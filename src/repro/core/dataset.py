"""Snapshot claim store with the indexes dependence discovery needs.

A :class:`ClaimDataset` holds one :class:`~repro.core.claims.Claim` per
(source, object) pair — the single-snapshot setting of section 3.2 — and
maintains three indexes:

* by source: everything one source says (to compute its accuracy);
* by object: all conflicting values for one object (to run a vote);
* by (object, value): the set of sources asserting a particular value
  (the "vote block" used when discounting copied votes).

It also implements the set algebra the paper's second intuition needs:
the *overlap* of two sources (objects both cover) and each source's
*private remainder* — "if the accuracy of a data source on the subset of
information it shares in common with another data source is significantly
different from its accuracy on the remaining information, the data source
is more likely to be a partial copier" (section 3.2).

Ingest and change tracking
--------------------------

The store is mutable under the full mutation algebra real feeds need:
claims can be *added*, *retracted* (withdrawn entirely) and *corrected*
(same source re-asserts a different value). Blind conflicting
re-assertions still raise — a correction must be explicit
(:meth:`~ClaimDataset.correct`), so an ingest bug cannot silently
rewrite history. Every successful mutation bumps a monotonic
:attr:`~ClaimDataset.version` and appends a typed :class:`Mutation`
record to the mutation log, so consumers that cache derived structure
(the batch evidence engine, vote-order caches) can ask "what changed
since version v?" and repair only the dirty objects:

* :meth:`~ClaimDataset.dirty_objects_since` — objects touched by *any*
  mutation kind, removals included;
* :meth:`~ClaimDataset.mutations_since` — per dirty object, each
  touched source's value *as of* the asked-for version (or
  :data:`ABSENT`), i.e. exactly the old state an inverse delta needs;
* :meth:`~ClaimDataset.new_claims_since` — the coarse per-object
  touched-source sets (kept for add-mostly consumers).

:meth:`~ClaimDataset.apply` is the unified ingest entry point: one
:class:`MutationBatch` of mixed adds/retractions/corrections applied as
a single versioned transaction, returning a :class:`MutationDelta`.
:meth:`~ClaimDataset.add_claims`, :meth:`~ClaimDataset.retract_claims`
and :meth:`~ClaimDataset.correct_claims` are thin wrappers constructing
single-kind batches.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Any, NamedTuple

from repro.core.claims import Claim
from repro.core.types import ObjectId, SourceId, Value
from repro.exceptions import DataError

#: Shared empty read-only mapping, returned by the ``*_view`` accessors for
#: absent keys so callers never trigger an allocation on the miss path.
_EMPTY_VIEW: Mapping = MappingProxyType({})


class _AbsentType:
    """Sentinel type for :data:`ABSENT` (``None`` is a legal claim value)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ABSENT"

    def __bool__(self) -> bool:
        return False


#: "No value": in a :class:`Mutation`, the old value of an add and the
#: new value of a retraction — the claim did not exist on that side.
ABSENT = _AbsentType()


class Mutation(NamedTuple):
    """One typed entry of the mutation log.

    A tuple subclass ordered by ``version`` first, so the log stays
    bisectable by version. ``old_value`` is :data:`ABSENT` for adds;
    ``new_value`` is :data:`ABSENT` for retractions. The pair
    ``(old_value, new_value)`` makes every record invertible — an
    inverse-delta consumer reconstructs the state at any logged version
    from the *first* record per (source, object) after it.
    """

    version: int
    kind: str  # "add" | "retract" | "correct"
    source: SourceId
    object: ObjectId
    old_value: Any
    new_value: Any


@dataclass(frozen=True)
class MutationBatch:
    """One mixed add/retract/correct transaction for :meth:`ClaimDataset.apply`.

    ``adds`` and ``corrections`` are claims; ``retractions`` are
    ``(source, object)`` keys. The batch is applied retractions first,
    then corrections, then adds — a deterministic order that lets one
    batch move a claim's key (retract ``(S, o)`` and re-add it) without
    tripping the conflicting-assertion check.
    """

    adds: tuple[Claim, ...] = ()
    retractions: tuple[tuple[SourceId, ObjectId], ...] = ()
    corrections: tuple[Claim, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "adds", tuple(self.adds))
        object.__setattr__(self, "retractions", tuple(self.retractions))
        object.__setattr__(self, "corrections", tuple(self.corrections))

    def __bool__(self) -> bool:
        return bool(self.adds or self.retractions or self.corrections)

    def __len__(self) -> int:
        return len(self.adds) + len(self.retractions) + len(self.corrections)

    @classmethod
    def from_claims(cls, claims: Iterable[Claim]) -> "MutationBatch":
        """The add-only batch the legacy ingest wrappers construct."""
        return cls(adds=tuple(claims))


@dataclass(frozen=True, slots=True)
class MutationDelta:
    """Summary of one :meth:`ClaimDataset.apply` transaction.

    ``added``/``retracted``/``corrected`` count the mutations applied
    (``duplicates`` re-asserted an identical existing claim and were
    no-ops), touching ``dirty_objects``; ``version`` is the dataset
    version after the batch.
    """

    added: int
    duplicates: int
    dirty_objects: frozenset[ObjectId]
    version: int
    retracted: int = 0
    corrected: int = 0

    def __bool__(self) -> bool:
        return (self.added + self.retracted + self.corrected) > 0


class ClaimDataset:
    """An indexed collection of snapshot claims.

    Claims can be supplied at construction or added incrementally with
    :meth:`add`. Adding a second, different value for the same
    (source, object) raises :class:`~repro.exceptions.DataError`;
    re-adding the identical claim is a harmless no-op (ingest pipelines
    often see duplicates).
    """

    def __init__(self, claims: Iterable[Claim] = ()) -> None:
        self._by_key: dict[tuple[SourceId, ObjectId], Claim] = {}
        self._by_source: dict[SourceId, dict[ObjectId, Claim]] = {}
        self._by_object: dict[ObjectId, dict[SourceId, Claim]] = {}
        self._by_object_value: dict[ObjectId, dict[Value, set[SourceId]]] = {}
        # Monotonic mutation tracking: every successful add/retract/
        # correct bumps the version and appends a typed Mutation record.
        self._version = 0
        self._log: list[Mutation] = []
        self._log_floor = 0
        for claim in claims:
            self.add(claim)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add(self, claim: Claim) -> None:
        """Insert one claim, keeping all indexes consistent."""
        if not isinstance(claim, Claim):
            raise DataError(f"expected a Claim, got {type(claim).__name__}")
        existing = self._by_key.get(claim.key)
        if existing is not None:
            if existing == claim:
                return
            raise DataError(
                f"source {claim.source!r} already claims "
                f"{existing.value!r} for object {claim.object!r}; "
                f"cannot also claim {claim.value!r} in one snapshot"
            )
        self._by_key[claim.key] = claim
        self._by_source.setdefault(claim.source, {})[claim.object] = claim
        self._by_object.setdefault(claim.object, {})[claim.source] = claim
        self._by_object_value.setdefault(claim.object, {}).setdefault(
            claim.value, set()
        ).add(claim.source)
        self._version += 1
        self._log.append(
            Mutation(
                self._version, "add", claim.source, claim.object,
                ABSENT, claim.value,
            )
        )

    def retract(self, source: SourceId, obj: ObjectId) -> None:
        """Withdraw one claim entirely, keeping all indexes consistent.

        Retracting a claim that was never made (or is already gone)
        raises :class:`~repro.exceptions.DataError`. Empty sub-indexes
        are dropped, so :attr:`sources` / :attr:`objects` afterwards
        match a dataset that never saw the claim.
        """
        claim = self._by_key.pop((source, obj), None)
        if claim is None:
            raise DataError(
                f"cannot retract: source {source!r} makes no claim about "
                f"object {obj!r}"
            )
        by_source = self._by_source[source]
        del by_source[obj]
        if not by_source:
            del self._by_source[source]
        by_object = self._by_object[obj]
        del by_object[source]
        if not by_object:
            del self._by_object[obj]
        values = self._by_object_value[obj]
        providers = values[claim.value]
        providers.discard(source)
        if not providers:
            del values[claim.value]
        if not values:
            del self._by_object_value[obj]
        self._version += 1
        self._log.append(
            Mutation(self._version, "retract", source, obj, claim.value, ABSENT)
        )

    def correct(self, claim: Claim) -> None:
        """Replace the value this source already asserts for this object.

        The explicit form of a conflicting re-assertion: where
        :meth:`add` raises, ``correct`` swaps the claim in place.
        Correcting a claim that was never made raises
        :class:`~repro.exceptions.DataError` (a correction with no
        target is an ingest bug, not an add); re-asserting the identical
        claim is a no-op, like duplicate adds.
        """
        if not isinstance(claim, Claim):
            raise DataError(f"expected a Claim, got {type(claim).__name__}")
        existing = self._by_key.get(claim.key)
        if existing is None:
            raise DataError(
                f"cannot correct: source {claim.source!r} makes no claim "
                f"about object {claim.object!r}; use add() for new claims"
            )
        if existing == claim:
            return
        self._by_key[claim.key] = claim
        self._by_source[claim.source][claim.object] = claim
        self._by_object[claim.object][claim.source] = claim
        if existing.value != claim.value:
            values = self._by_object_value[claim.object]
            providers = values[existing.value]
            providers.discard(claim.source)
            if not providers:
                del values[existing.value]
            values.setdefault(claim.value, set()).add(claim.source)
        self._version += 1
        self._log.append(
            Mutation(
                self._version, "correct", claim.source, claim.object,
                existing.value, claim.value,
            )
        )

    def apply(self, batch: MutationBatch | Iterable[Claim]) -> MutationDelta:
        """Apply one mixed mutation batch as an all-or-nothing transaction.

        Accepts a :class:`MutationBatch` or, for convenience, a bare
        iterable of claims (treated as an add-only batch). Mutations are
        applied retractions → corrections → adds; identical duplicate
        adds/corrections are tolerated (ingest pipelines replay), while
        conflicting blind re-assertions, retractions of absent claims
        and corrections without a target raise
        :class:`~repro.exceptions.DataError` — and the whole batch rolls
        back: dataset state, mutation log and version afterwards are
        exactly as if ``apply`` had never been called, so a poison batch
        can be quarantined and every other producer's data keeps
        flowing. The batch mutates copies of the index rows its
        changing mutations touch (copy-on-write, on first touch;
        identical duplicates copy nothing) and rollback puts the
        untouched originals back (not inverse replay), which preserves
        the inner dicts' insertion order and the provider sets'
        iteration order bit-for-bit — downstream float accumulation
        over provider rows is order-sensitive, so this is what keeps a
        rolled-back or duplicate-only batch's dataset, and its evidence
        and truth, identical to a never-applied one.
        """
        if not isinstance(batch, MutationBatch):
            batch = MutationBatch.from_claims(batch)
        start_version = self._version
        start_log = len(self._log)
        # Only retractions delete *top-level* index entries; a deleted
        # key re-inserted during rollback would land at the end of its
        # dict, perturbing iteration order (and with it every
        # order-sensitive downstream accumulation). Capture the key
        # orders up front for such batches so rollback can rebuild the
        # original order exactly — O(n) lists, paid only by batches
        # that retract, and the rebuild only on the failure path.
        key_orders: list[tuple[dict, list]] | None = None
        if batch.retractions:
            key_orders = [
                (index, list(index))
                for index in (
                    self._by_key,
                    self._by_source,
                    self._by_object,
                    self._by_object_value,
                )
            ]
        saved_keys: dict[tuple[SourceId, ObjectId], Claim | None] = {}
        saved_sources: dict[SourceId, dict | None] = {}
        saved_objects: dict[ObjectId, dict | None] = {}
        saved_values: dict[ObjectId, dict | None] = {}

        def snapshot(source: SourceId, obj: ObjectId) -> None:
            # First touch only, copy-on-write: the original row (and, for
            # provider rows, its sets) is kept untouched for rollback and
            # the batch mutates a fresh copy. A set copied after it grew
            # and shrank iterates in another order than the original, so
            # restoring copies would not restore iteration order. Called
            # only for mutations that change something: copying the row
            # of an identical duplicate would reorder its sets at an
            # unchanged version and with no mutation record.
            key = (source, obj)
            if key not in saved_keys:
                saved_keys[key] = self._by_key.get(key)
            if source not in saved_sources:
                row = self._by_source.get(source)
                saved_sources[source] = row
                if row is not None:
                    self._by_source[source] = dict(row)
            if obj not in saved_objects:
                row = self._by_object.get(obj)
                saved_objects[obj] = row
                if row is not None:
                    self._by_object[obj] = dict(row)
            if obj not in saved_values:
                row = self._by_object_value.get(obj)
                saved_values[obj] = row
                if row is not None:
                    self._by_object_value[obj] = {
                        value: set(ps) for value, ps in row.items()
                    }

        duplicates = 0
        added = retracted = corrected = 0
        dirty: set[ObjectId] = set()
        try:
            for source, obj in batch.retractions:
                snapshot(source, obj)
                self.retract(source, obj)
                retracted += 1
                dirty.add(obj)
            for claim in batch.corrections:
                if isinstance(claim, Claim) and self._by_key.get(claim.key) != claim:
                    snapshot(claim.source, claim.object)
                before = self._version
                self.correct(claim)
                if self._version == before:
                    duplicates += 1
                else:
                    corrected += 1
                    dirty.add(claim.object)
            for claim in batch.adds:
                if isinstance(claim, Claim) and self._by_key.get(claim.key) != claim:
                    snapshot(claim.source, claim.object)
                before = self._version
                self.add(claim)
                if self._version == before:
                    duplicates += 1
                else:
                    added += 1
                    dirty.add(claim.object)
        except BaseException:
            for key, old_claim in saved_keys.items():
                if old_claim is None:
                    self._by_key.pop(key, None)
                else:
                    self._by_key[key] = old_claim
            for source, row in saved_sources.items():
                if row is None:
                    self._by_source.pop(source, None)
                else:
                    self._by_source[source] = row
            for obj, row in saved_objects.items():
                if row is None:
                    self._by_object.pop(obj, None)
                else:
                    self._by_object[obj] = row
            for obj, row in saved_values.items():
                if row is None:
                    self._by_object_value.pop(obj, None)
                else:
                    self._by_object_value[obj] = row
            if key_orders is not None:
                # Keys the restore re-inserted sit at the end of their
                # dicts; rebuild each index in its pre-batch order (all
                # batch-added keys are gone by now, so filtering the
                # captured order by membership is exact).
                for index, order in key_orders:
                    restored = {key: index[key] for key in order if key in index}
                    index.clear()
                    index.update(restored)
            del self._log[start_log:]
            self._version = start_version
            raise
        return MutationDelta(
            added=added,
            duplicates=duplicates,
            dirty_objects=frozenset(dirty),
            version=self._version,
            retracted=retracted,
            corrected=corrected,
        )

    def add_claims(self, claims: Iterable[Claim]) -> MutationDelta:
        """Batch ingest of adds only: ``apply(MutationBatch(adds=claims))``."""
        return self.apply(MutationBatch.from_claims(claims))

    def retract_claims(
        self, keys: Iterable[tuple[SourceId, ObjectId]]
    ) -> MutationDelta:
        """Batch retraction: ``apply(MutationBatch(retractions=keys))``."""
        return self.apply(MutationBatch(retractions=tuple(keys)))

    def correct_claims(self, claims: Iterable[Claim]) -> MutationDelta:
        """Batch correction: ``apply(MutationBatch(corrections=claims))``."""
        return self.apply(MutationBatch(corrections=tuple(claims)))

    # ------------------------------------------------------------------
    # change tracking
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter (adds + retractions + corrections)."""
        return self._version

    def _log_start(self, version: int) -> int:
        """Index of the first log entry newer than ``version``."""
        if version > self._version:
            raise DataError(
                f"version {version} is in the future (dataset is at "
                f"{self._version})"
            )
        if version < self._log_floor:
            raise DataError(
                f"mutation log was compacted past version {version} "
                f"(log starts after {self._log_floor}); rebuild derived "
                "state from scratch instead"
            )
        return bisect_right(self._log, version, key=itemgetter(0))

    def dirty_objects_since(self, version: int) -> set[ObjectId]:
        """Objects touched by *any* mutation after ``version``.

        Removals are unioned in: a retracted or corrected claim dirties
        its object exactly like a new one, so caches that invalidate by
        dirty object repair mutated state too.
        """
        return {m.object for m in self._log[self._log_start(version) :]}

    def new_claims_since(self, version: int) -> dict[ObjectId, set[SourceId]]:
        """Per dirty object, the sources whose claims *changed* after ``version``.

        Historically named for the add-only era; since the mutation
        algebra landed the sets also contain sources that retracted or
        corrected their claim — a source in the set may no longer cover
        the object at all. Consumers that need the direction of change
        (what the source said *before*) should use
        :meth:`mutations_since` instead.
        """
        delta: dict[ObjectId, set[SourceId]] = {}
        for m in self._log[self._log_start(version) :]:
            delta.setdefault(m.object, set()).add(m.source)
        return delta

    def mutations_since(
        self, version: int
    ) -> dict[ObjectId, dict[SourceId, Any]]:
        """Per dirty object, each touched source's value *at* ``version``.

        The inverse-delta view of the log: for every (source, object)
        mutated after ``version``, the value that source asserted when
        the consumer last looked — :data:`ABSENT` if it asserted nothing
        then. Combined with the current indexes this reconstructs the
        full old provider→value map of any dirty object, which is
        exactly what a cached structure needs to retire its stale
        contributions before re-collecting.

        Only the *first* logged mutation per key matters (its
        ``old_value`` is the state at ``version``); later mutations of
        the same key describe intermediate states no consumer saw.
        """
        delta: dict[ObjectId, dict[SourceId, Any]] = {}
        for m in self._log[self._log_start(version) :]:
            delta.setdefault(m.object, {}).setdefault(m.source, m.old_value)
        return delta

    def compact_log(self, upto_version: int | None = None) -> int:
        """Drop mutation-log entries at or before ``upto_version``.

        Long-running ingest loops call this once every consumer has
        synced past ``upto_version`` (default: the current version), so
        the log does not grow without bound. Returns the number of
        entries dropped. Mutation kinds are irrelevant to compaction:
        retraction and correction records after the cutoff survive
        verbatim (their ``old_value`` is still needed by un-synced
        consumers); asking for changes older than the compaction point
        afterwards raises.
        """
        cutoff = self._version if upto_version is None else upto_version
        if cutoff > self._version:
            raise DataError(
                f"cannot compact past version {cutoff}: dataset is at "
                f"{self._version} (a future floor would strand every "
                "synced consumer)"
            )
        start = bisect_right(self._log, cutoff, key=itemgetter(0))
        del self._log[:start]
        self._log_floor = max(self._log_floor, cutoff)
        return start

    @classmethod
    def from_table(
        cls, table: dict[ObjectId, dict[SourceId, Value]]
    ) -> "ClaimDataset":
        """Build a dataset from a nested dict ``{object: {source: value}}``.

        This is the natural encoding of the paper's Table 1. Missing
        entries (a source not covering an object) are simply omitted.
        """
        dataset = cls()
        for obj, row in table.items():
            for source, value in row.items():
                dataset.add(Claim(source=source, object=obj, value=value))
        return dataset

    @classmethod
    def from_rows(
        cls, rows: Iterable[tuple[SourceId, ObjectId, Value]]
    ) -> "ClaimDataset":
        """Build a dataset from ``(source, object, value)`` triples."""
        return cls(Claim(source=s, object=o, value=v) for s, o, v in rows)

    def map_values(self, mapping: dict[tuple[ObjectId, Value], Value]) -> "ClaimDataset":
        """Return a new dataset with values rewritten through ``mapping``.

        Used by the record-linkage layer to canonicalise alternative
        representations: keys are ``(object, raw_value)`` and map to the
        canonical value; claims without an entry keep their value.
        """
        rewritten = []
        for claim in self:
            canonical = mapping.get((claim.object, claim.value))
            if canonical is None or canonical == claim.value:
                rewritten.append(claim)
            else:
                rewritten.append(claim.with_value(canonical))
        return ClaimDataset(rewritten)

    def restrict_sources(self, sources: Iterable[SourceId]) -> "ClaimDataset":
        """Return the sub-dataset containing only claims by ``sources``."""
        keep = set(sources)
        return ClaimDataset(c for c in self if c.source in keep)

    def restrict_objects(self, objects: Iterable[ObjectId]) -> "ClaimDataset":
        """Return the sub-dataset containing only claims about ``objects``."""
        keep = set(objects)
        return ClaimDataset(c for c in self if c.object in keep)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[Claim]:
        return iter(self._by_key.values())

    def __contains__(self, key: tuple[SourceId, ObjectId]) -> bool:
        return key in self._by_key

    @property
    def sources(self) -> list[SourceId]:
        """All source ids, sorted for determinism."""
        return sorted(self._by_source)

    @property
    def objects(self) -> list[ObjectId]:
        """All object ids, sorted for determinism."""
        return sorted(self._by_object)

    def claims_by(self, source: SourceId) -> dict[ObjectId, Claim]:
        """Everything ``source`` asserts: ``{object: claim}``."""
        return dict(self._by_source.get(source, {}))

    def claims_about(self, obj: ObjectId) -> dict[SourceId, Claim]:
        """All assertions about ``obj``: ``{source: claim}``."""
        return dict(self._by_object.get(obj, {}))

    def value_of(self, source: SourceId, obj: ObjectId) -> Value | None:
        """The value ``source`` asserts for ``obj``, or ``None``."""
        claim = self._by_key.get((source, obj))
        return None if claim is None else claim.value

    def values_for(self, obj: ObjectId) -> dict[Value, set[SourceId]]:
        """Conflicting values for ``obj`` with their provider sets."""
        return {
            value: set(providers)
            for value, providers in self._by_object_value.get(obj, {}).items()
        }

    def providers_of(self, obj: ObjectId, value: Value) -> set[SourceId]:
        """Sources asserting ``value`` for ``obj``."""
        return set(self._by_object_value.get(obj, {}).get(value, set()))

    def coverage(self, source: SourceId) -> int:
        """Number of objects ``source`` provides a value for."""
        return len(self._by_source.get(source, {}))

    # ------------------------------------------------------------------
    # zero-copy views
    # ------------------------------------------------------------------
    #
    # The plain accessors above (`claims_by`, `values_for`, ...) return
    # defensive copies — safe, but on the hot paths of dependence
    # discovery and vote counting those copies dominate the runtime:
    # every candidate pair used to re-copy both sources' claim dicts and
    # every vote re-copied every provider set, once per round. The
    # ``*_view`` accessors below return read-only views of the internal
    # indexes instead (``MappingProxyType`` — creation is O(1)). Callers
    # MUST NOT mutate the nested containers (e.g. the provider sets
    # inside :meth:`values_for_view`); use the copying accessors when a
    # mutable result is needed.

    def claims_by_view(self, source: SourceId) -> Mapping[ObjectId, Claim]:
        """Read-only view of everything ``source`` asserts (zero-copy)."""
        claims = self._by_source.get(source)
        return _EMPTY_VIEW if claims is None else MappingProxyType(claims)

    def claims_about_view(self, obj: ObjectId) -> Mapping[SourceId, Claim]:
        """Read-only view of all assertions about ``obj`` (zero-copy)."""
        claims = self._by_object.get(obj)
        return _EMPTY_VIEW if claims is None else MappingProxyType(claims)

    def values_for_view(self, obj: ObjectId) -> Mapping[Value, set[SourceId]]:
        """Read-only view of ``obj``'s values and provider sets (zero-copy).

        The provider sets are the live internal ones — treat them as
        frozen.
        """
        values = self._by_object_value.get(obj)
        return _EMPTY_VIEW if values is None else MappingProxyType(values)

    def providers_count(self, obj: ObjectId, value: Value) -> int:
        """``len(providers_of(obj, value))`` without copying the set."""
        values = self._by_object_value.get(obj)
        if values is None:
            return 0
        providers = values.get(value)
        return 0 if providers is None else len(providers)

    # ------------------------------------------------------------------
    # set algebra over source coverage (section 3.2, intuition 2)
    # ------------------------------------------------------------------

    def overlap(self, s1: SourceId, s2: SourceId) -> set[ObjectId]:
        """Objects covered by *both* sources."""
        c1 = self._by_source.get(s1, {})
        c2 = self._by_source.get(s2, {})
        if len(c1) > len(c2):
            c1, c2 = c2, c1
        return {obj for obj in c1 if obj in c2}

    def only_in(self, s1: SourceId, s2: SourceId) -> set[ObjectId]:
        """Objects covered by ``s1`` but not ``s2`` (the private remainder)."""
        c1 = self._by_source.get(s1, {})
        c2 = self._by_source.get(s2, {})
        return {obj for obj in c1 if obj not in c2}

    def co_coverage_counts(
        self, min_overlap: int = 1
    ) -> dict[tuple[SourceId, SourceId], int]:
        """Overlap sizes for every source pair reaching ``min_overlap``.

        Computed via the by-object index (one pass over each object's
        provider list), which is far cheaper than calling
        :meth:`overlap` for all ``O(|sources|^2)`` pairs on sparse data —
        the prefilter Example 4.1 describes ("at least the same 10
        books") applied at scale.
        """
        if min_overlap < 1:
            raise DataError(f"min_overlap must be >= 1, got {min_overlap}")
        counts: dict[tuple[SourceId, SourceId], int] = {}
        for providers in self._by_object.values():
            sources = sorted(providers)
            for i, s1 in enumerate(sources):
                for s2 in sources[i + 1 :]:
                    key = (s1, s2)
                    counts[key] = counts.get(key, 0) + 1
        return {
            pair: count
            for pair, count in counts.items()
            if count >= min_overlap
        }

    def agreement_counts(
        self, s1: SourceId, s2: SourceId
    ) -> tuple[int, int]:
        """Return ``(same, different)`` value counts over the overlap."""
        same = 0
        different = 0
        claims1 = self._by_source.get(s1, {})
        claims2 = self._by_source.get(s2, {})
        if len(claims1) > len(claims2):
            claims1, claims2 = claims2, claims1
        for obj, claim in claims1.items():
            other = claims2.get(obj)
            if other is None:
                continue
            if other.value == claim.value:
                same += 1
            else:
                different += 1
        return same, different

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialise to a JSON array of claim objects.

        Only string/number/bool values survive a JSON round-trip exactly;
        tuple values (e.g. author lists) are stored as arrays and restored
        as tuples by :meth:`from_json`.
        """
        rows = []
        for claim in self:
            value: Any = claim.value
            if isinstance(value, tuple):
                value = {"__tuple__": list(value)}
            rows.append(
                {
                    "source": claim.source,
                    "object": claim.object,
                    "value": value,
                    "probability": claim.probability,
                }
            )
        return json.dumps(rows, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClaimDataset":
        """Inverse of :meth:`to_json`."""
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid dataset JSON: {exc}") from exc
        if not isinstance(rows, list):
            raise DataError("dataset JSON must be an array of claims")
        dataset = cls()
        for row in rows:
            value = row["value"]
            if isinstance(value, dict) and "__tuple__" in value:
                value = tuple(value["__tuple__"])
            elif isinstance(value, list):
                value = tuple(value)
            dataset.add(
                Claim(
                    source=row["source"],
                    object=row["object"],
                    value=value,
                    probability=row.get("probability", 1.0),
                )
            )
        return dataset

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClaimDataset({len(self)} claims, {len(self._by_source)} sources, "
            f"{len(self._by_object)} objects)"
        )
