"""``repro.Session`` — the one-true-entry-point facade.

Before this module, a caller wiring the full pipeline stitched together
``ClaimDataset``, ``EvidenceCache``, ``Depen``,
``StreamingDependenceEngine``, ``repro.query`` and ``repro.recommend``
by hand, and each layer spelled its execution knobs separately. The
session wraps the whole lifecycle behind one object::

    with repro.Session(parallel_backend="serial") as session:
        session.ingest(claims)          # incremental, any number of times
        session.discover()              # dependence posteriors
        session.run_truth()             # copy-aware truth round
        session.publish()               # freeze + version the round
        session.query(obj)              # served from the snapshot
        session.recommend(k=3)          # dependence-penalised top-k

Execution policy is normalised here: ``parallel_backend``,
``num_workers``, ``shard_size``, ``pool``, ``max_retries``,
``task_deadline`` and ``degrade_on_failure`` are accepted once, as
session keywords, and folded into one
:class:`~repro.core.params.DependenceParams` — no more repeating the
spelling at every layer. An explicit session keyword wins over the same
field of a passed ``params``.

Reads (``query`` / ``recommend`` / ``explain_dependence``) are answered
from the session's :class:`~repro.serve.store.SnapshotStore`, so every
answer is consistent with exactly one published truth round;
:meth:`serving` lifts the same store into the asyncio front-end for
concurrent traffic.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, replace

from repro.core.claims import Claim
from repro.core.dataset import ClaimDataset, MutationBatch, MutationDelta
from repro.core.params import DependenceParams, IterationParams
from repro.dependence.streaming import StreamingDependenceEngine
from repro.exceptions import ParameterError, ServeError
from repro.serve.engine import ServingEngine
from repro.serve.snapshot import ServedAnswer, Snapshot
from repro.serve.store import SnapshotStore

#: The execution-policy spellings the session normalises, in the order
#: they are documented on :class:`~repro.core.params.DependenceParams`.
POLICY_FIELDS = (
    "parallel_backend",
    "num_workers",
    "shard_size",
    "pool",
    "max_retries",
    "task_deadline",
    "degrade_on_failure",
)


@dataclass(frozen=True)
class QuarantinedBatch:
    """One fed mutation batch that failed to apply, and why.

    Held in the session's bounded dead-letter queue: the dataset
    rolled the batch back atomically, the serving loop kept going, and
    the producer's poison pill is preserved here for inspection or
    replay instead of stalling everyone else's ingest.
    """

    batch: MutationBatch
    error: str


class Session:
    """Dataset + params + engine lifecycle behind one stable surface.

    Parameters
    ----------
    params / iteration:
        The dependence model and convergence controls; both default.
    min_overlap / default_accuracy:
        Passed to the underlying streaming engine.
    retention:
        Snapshot versions the session's store keeps reachable.
    dead_letter_limit:
        Bound on the quarantine queue for fed batches that fail to
        apply (oldest evicted first; the eviction count survives in
        :meth:`stats`).
    dataset / claims:
        Adopt an existing store, or seed from an iterable of claims.
    **policy:
        Any of :data:`POLICY_FIELDS`, folded into ``params`` (explicit
        keyword beats the passed params' field). Unknown keywords raise
        :class:`~repro.exceptions.ParameterError` eagerly.
    """

    def __init__(
        self,
        *,
        params: DependenceParams | None = None,
        iteration: IterationParams | None = None,
        min_overlap: int = 1,
        default_accuracy: float = 0.8,
        retention: int = 8,
        dead_letter_limit: int = 16,
        dataset: ClaimDataset | None = None,
        claims: Iterable[Claim] | None = None,
        **policy,
    ) -> None:
        unknown = sorted(set(policy) - set(POLICY_FIELDS))
        if unknown:
            raise ParameterError(
                f"unknown Session keyword(s) {unknown}; execution policy "
                f"accepts {list(POLICY_FIELDS)}"
            )
        base = params or DependenceParams()
        overrides = {k: v for k, v in policy.items() if v is not None}
        self.params = replace(base, **overrides) if overrides else base
        self.iteration = iteration or IterationParams()
        if dataset is not None and claims is not None:
            raise ParameterError("pass either dataset or claims, not both")
        if dataset is None:
            dataset = ClaimDataset(claims or ())
        self._engine = StreamingDependenceEngine(
            dataset,
            params=self.params,
            min_overlap=min_overlap,
            default_accuracy=default_accuracy,
            iteration=self.iteration,
        )
        self.min_overlap = min_overlap
        self.store = SnapshotStore(retention=retention)
        # Mutation batches queued by feed() (possibly from other threads
        # / the event loop) and drained in arrival order by the next
        # publish()/refresh().
        self._pending: list[MutationBatch] = []
        self._feed_lock = threading.Lock()
        self._published_dataset_version: int | None = None
        if dead_letter_limit < 1:
            raise ParameterError(
                f"dead_letter_limit must be >= 1, got {dead_letter_limit}"
            )
        # Poison batches drained from the feed: apply() rolled them
        # back atomically, publish() carried on with the rest. Bounded
        # so a misbehaving producer cannot grow memory without limit.
        self._dead_letters: deque[QuarantinedBatch] = deque(
            maxlen=dead_letter_limit
        )
        self._quarantined_total = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def dataset(self) -> ClaimDataset:
        """The live claim store."""
        return self._engine.dataset

    @property
    def engine(self) -> StreamingDependenceEngine:
        """The underlying streaming dependence engine."""
        return self._engine

    @property
    def graph(self):
        """The most recently discovered dependence graph."""
        return self._engine.graph

    @property
    def accuracies(self) -> dict:
        """Current per-source accuracy estimates."""
        return self._engine.accuracies

    @property
    def dirty(self) -> bool:
        """True when the published state lags the dataset (or feed queue)."""
        if self._pending:
            return True
        return self._published_dataset_version != self.dataset.version

    # ------------------------------------------------------------------
    # write lifecycle: ingest -> discover -> run_truth -> publish
    # ------------------------------------------------------------------

    def ingest(self, claims: Iterable[Claim]) -> MutationDelta:
        """Absorb a claim batch now (structural repair, dirty objects only)."""
        return self._engine.ingest(claims)

    def apply(self, batch: MutationBatch | Iterable[Claim]) -> MutationDelta:
        """Apply one mixed add/retract/correct batch now.

        The unified ingest surface: one
        :class:`~repro.core.dataset.MutationBatch` lands as a single
        versioned transaction and the evidence structure is repaired
        incrementally (inverse deltas for retractions/corrections).
        A bare claim iterable is accepted as an add-only batch —
        :meth:`ingest` is exactly that wrapper.
        """
        return self._engine.ingest(batch)

    def feed(self, claims: MutationBatch | Iterable[Claim]) -> int:
        """Queue a mutation batch for the *next* publish; safe from any thread.

        The serving loop's ingest side: producers feed claims — or a
        full :class:`~repro.core.dataset.MutationBatch` with
        retractions and corrections — without touching engine state; the
        next :meth:`publish` (typically the background refresh) drains
        the queue in arrival order. Returns the queued mutation count.
        """
        if not isinstance(claims, MutationBatch):
            claims = MutationBatch.from_claims(claims)
        with self._feed_lock:
            self._pending.append(claims)
        return len(claims)

    def _drain_feed(self) -> list[MutationBatch]:
        with self._feed_lock:
            batches, self._pending = self._pending, []
        return batches

    def discover(self, **kwargs):
        """Dependence posteriors for every candidate pair (restricted rescore)."""
        return self._engine.discover(**kwargs)

    def run_truth(self, algorithm=None):
        """One copy-aware truth run over the current state.

        The default is the same DEPEN run :meth:`publish` refreshes
        with: the session's params, iteration and overlap prefilter.
        """
        return self._engine.run_truth(algorithm)

    def publish(self) -> Snapshot:
        """Drain the feed, refresh truth if needed, publish the round.

        The snapshot lands in the session's store and is returned
        stamped. Publishing an unchanged state is allowed (it re-serves
        the same truth under a new version); :meth:`refresh` is the
        change-detecting variant the background loop uses.

        A fed batch that fails to apply — a retraction of an absent
        claim, a conflicting re-assertion, malformed entries — is
        quarantined to the dead-letter queue and the drain continues:
        :meth:`ClaimDataset.apply <repro.core.dataset.ClaimDataset.apply>`
        is transactional, so the failed batch leaves no trace and the
        batches behind it in the queue still land. Direct :meth:`apply`
        calls keep raising — quarantine is for the fire-and-forget feed
        path, where the producer is long gone by the time the batch is
        drained.
        """
        for batch in self._drain_feed():
            # Applied separately, in arrival order: a retraction queued
            # after the add it withdraws must see the add already
            # applied, exactly as if each producer had called apply().
            try:
                self._engine.ingest(batch)
            except Exception as exc:
                self._dead_letters.append(
                    QuarantinedBatch(
                        batch=batch, error=f"{type(exc).__name__}: {exc}"
                    )
                )
                self._quarantined_total += 1
        snapshot = self._engine.publish(self.store)
        self._published_dataset_version = snapshot.dataset_version
        return snapshot

    def refresh(self) -> Snapshot | None:
        """Publish only if something changed since the last publish."""
        if not self.dirty:
            return None
        return self.publish()

    # ------------------------------------------------------------------
    # read lifecycle: query / recommend / explain (snapshot-backed)
    # ------------------------------------------------------------------

    def _snapshot(self, version: int | None) -> Snapshot:
        try:
            return self.store.get(version)
        except ServeError:
            if version is None:
                raise ServeError(
                    "session has published no snapshot yet; call "
                    "publish() after ingest (or serve() with a running "
                    "refresh loop)"
                ) from None
            raise

    def query(self, obj, *, version: int | None = None) -> ServedAnswer:
        """The served truth for one object (latest or pinned version)."""
        return self._snapshot(version).answer(obj)

    def query_value(self, obj, value, *, version: int | None = None) -> float:
        """Posterior probability of one (object, value)."""
        return self._snapshot(version).probability(obj, value)

    def distribution(self, obj, *, version: int | None = None) -> dict:
        """Full value distribution of one object."""
        return self._snapshot(version).distribution(obj)

    def recommend(self, k: int, *, version: int | None = None, **kwargs) -> list:
        """Dependence-penalised top-``k`` sources from a published round.

        The scorecards are built once per published version and shared
        with the serving engine (:meth:`SnapshotStore.scorecards
        <repro.serve.store.SnapshotStore.scorecards>`).
        """
        from repro.recommend.scoring import (
            recommend_from_snapshot,
            snapshot_scorecards,
        )

        snapshot = self._snapshot(version)
        if "cards" not in kwargs:
            kwargs["cards"] = self.store.scorecards(
                snapshot, snapshot_scorecards
            )
        return recommend_from_snapshot(snapshot, k, **kwargs)

    def explain_dependence(
        self, source, other=None, *, version: int | None = None, **kwargs
    ):
        """A source's dependence neighbourhood (or one pair's posterior)."""
        snapshot = self._snapshot(version)
        if other is not None:
            return {
                "source": source,
                "other": other,
                "p_dependent": snapshot.dependence_probability(source, other),
                "p_copies_other": snapshot.directed_probability(source, other),
            }
        return snapshot.explain_dependence(source, **kwargs)

    @property
    def dead_letters(self) -> tuple[QuarantinedBatch, ...]:
        """Quarantined feed batches, oldest first (bounded; see stats)."""
        return tuple(self._dead_letters)

    @property
    def quarantined_total(self) -> int:
        """Every batch ever quarantined, including evicted ones."""
        return self._quarantined_total

    def execution_health(self) -> dict:
        """The evidence layer's supervised-executor health (see cache)."""
        return self._engine.execution_health()

    def _serving_health(self) -> dict:
        return {
            "quarantine_depth": len(self._dead_letters),
            "quarantined_total": self._quarantined_total,
            "pending_batches": len(self._pending),
            "execution": self.execution_health(),
        }

    def serving(self, *, refresh_interval: float = 0.05) -> ServingEngine:
        """An asyncio front-end over this session's store.

        The engine's background loop drives :meth:`refresh` — drain the
        feed, re-run truth, publish — while readers await ``query`` /
        ``recommend`` / ``explain_dependence`` concurrently. The
        engine's ``health()`` folds in this session's quarantine and
        supervised-execution state.
        """
        return ServingEngine(
            self.store,
            self.refresh,
            refresh_interval=refresh_interval,
            health_hook=self._serving_health,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Store, discover and truth counters in one place."""
        return {
            "store": self.store.stats(),
            "discover": dict(self._engine.last_discover_stats),
            "truth": dict(self._engine.last_truth_stats),
            "claims": len(self.dataset),
            "pending": sum(len(batch) for batch in self._pending),
            "dirty": self.dirty,
            "quarantined": len(self._dead_letters),
            "quarantined_total": self._quarantined_total,
        }

    def close(self) -> None:
        """Release executor workers held by the evidence cache."""
        self._engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        latest = self.store.stats()["latest_version"]
        return (
            f"Session({len(self.dataset)} claims, "
            f"latest snapshot {latest}, "
            f"{'dirty' if self.dirty else 'clean'})"
        )
