"""Streaming dependence: live pair posteriors under continuous claim ingest.

The ROADMAP's target workload is a service absorbing claim traffic
continuously, with dependence posteriors that stay fresh without
re-sweeping the whole dataset on every arrival. The batch
:class:`~repro.dependence.evidence.EvidenceCache` already amortises the
structural pass across *rounds*; its :meth:`~repro.dependence.evidence.EvidenceCache.sync`
amortises it across *ingest batches* (dirty-object invalidation against
the dataset's mutation log). :class:`StreamingDependenceEngine` packages
the two into one object with the obvious lifecycle::

    engine = StreamingDependenceEngine(params=params)
    engine.ingest(first_batch)               # structural repair: dirty objects only
    graph = engine.discover()                # posteriors for every candidate pair
    engine.ingest(next_batch)                # more claims arrive ...
    graph = engine.discover()                # ... refreshed, not rebuilt

``ingest``, ``refresh`` and ``discover`` interleave freely; after any
sequence the served evidence — and therefore the discovered
:class:`~repro.dependence.graph.DependenceGraph` — is bit-for-bit what a
cold rebuild on the final dataset would produce (the equivalence the
incremental tests pin down). Truth discovery re-runs on the dirty state
through :meth:`run_truth`, which hands DEPEN the engine's cache so the
iterative loop pays no structural pass either.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.claims import Claim
from repro.core.dataset import ClaimDataset, MutationBatch, MutationDelta
from repro.core.params import DependenceParams, IterationParams
from repro.core.types import SourceId
from repro.dependence.bayes import (
    PairEvidence,
    ValueProbabilities,
    uniform_value_probabilities,
)
from repro.dependence.evidence import EvidenceCache
from repro.dependence.graph import DependenceGraph, discover_dependence
from repro.exceptions import DataError


class StreamingDependenceEngine:
    """Maintains a live dependence graph over a growing claim store.

    Parameters
    ----------
    dataset:
        An existing store to adopt (the engine keeps ingesting into it);
        ``None`` starts empty.
    params / min_overlap / exact:
        Passed through to the underlying
        :class:`~repro.dependence.evidence.EvidenceCache`; ``params``
        also scores the posteriors.
    default_accuracy:
        The accuracy assumed for sources with no estimate yet. Running
        :meth:`run_truth` replaces the defaults with DEPEN's estimates
        for subsequent :meth:`discover` calls.
    iteration:
        Convergence controls of the default DEPEN run behind
        :meth:`run_truth` and :meth:`snapshot`.
    """

    def __init__(
        self,
        dataset: ClaimDataset | None = None,
        *,
        params: DependenceParams | None = None,
        min_overlap: int = 1,
        exact: bool = False,
        default_accuracy: float = 0.8,
        iteration: IterationParams | None = None,
    ) -> None:
        if not 0.0 < default_accuracy < 1.0:
            raise DataError(
                f"default_accuracy must be in (0, 1), got {default_accuracy}"
            )
        self.params = params or DependenceParams()
        self.iteration = iteration or IterationParams()
        self.min_overlap = min_overlap
        self._dataset = ClaimDataset() if dataset is None else dataset
        self._cache = EvidenceCache(
            self._dataset,
            min_overlap=min_overlap,
            params=self.params,
            exact=exact,
        )
        self._graph = DependenceGraph()
        # A truth result whose dependence graph replaces _graph on the
        # next read of `graph` (built lazily from its columnar form).
        self._graph_result = None
        self._graph_version: int | None = None
        self._accuracies: dict[SourceId, float] = {}
        self._default_accuracy = default_accuracy
        # Restricted-rescoring state: the accuracies the live graph was
        # scored under, whether that graph is a valid reuse baseline
        # (it was produced by discover() over the engine's own uniform
        # value probabilities and covers every candidate pair), and the
        # counters of the last discover.
        self._last_accuracies: dict[SourceId, float] | None = None
        self._restricted_valid = False
        self._last_discover_stats: dict[str, int | bool] = {
            "pairs": 0,
            "rescored": 0,
            "reused": 0,
            "restricted": False,
        }
        self._last_truth_stats: dict[str, int | str] = {}
        # Publish hook state: the last truth result and the dataset
        # version it was computed at, so snapshot() can tell a fresh
        # result from one that pre-dates an ingest.
        self._last_result = None
        self._last_result_version: int | None = None
        self._published_rounds = 0
        # The last columnar run's truth layout: the next DEPEN run syncs
        # it through the mutation log instead of building from scratch.
        self._layout = None

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def dataset(self) -> ClaimDataset:
        """The live claim store (ingest through the engine, not directly)."""
        return self._dataset

    @property
    def cache(self) -> EvidenceCache:
        """The incrementally maintained evidence cache."""
        return self._cache

    def execution_health(self) -> dict:
        """The cache's supervised-executor health counters.

        ``{"supervised": False}`` for in-process execution; otherwise
        the :class:`~repro.exec.supervisor.SupervisedExecutor` health
        dict — current backend (after any degradation), retry/deadline
        counters, worker liveness — so a serving layer can report
        execution state without reaching through the cache.
        """
        return self._cache.execution_health()

    @property
    def graph(self) -> DependenceGraph:
        """The most recently discovered dependence graph.

        After a :meth:`run_truth` whose result carries a dependence
        graph, that graph is built from the result on this first read,
        not by the run: publishing never needs it.
        """
        if self._graph_result is not None:
            self._graph = self._graph_result.dependence
            self._graph_result = None
        return self._graph

    @property
    def is_stale(self) -> bool:
        """True when claims arrived after the last :meth:`discover`."""
        return self._graph_version != self._dataset.version

    @property
    def accuracies(self) -> dict[SourceId, float]:
        """Accuracy estimates used by :meth:`discover` (defaults filled in)."""
        return {
            source: self._accuracies.get(source, self._default_accuracy)
            for source in self._dataset.sources
        }

    # ------------------------------------------------------------------
    # lifecycle: ingest / refresh / discover
    # ------------------------------------------------------------------

    def ingest(
        self, claims: MutationBatch | Iterable[Claim]
    ) -> MutationDelta:
        """Absorb a mutation batch and repair the evidence structure.

        Accepts a :class:`~repro.core.dataset.MutationBatch` (mixed
        adds/retractions/corrections) or, as before, a bare iterable of
        claims (an add-only batch). The structural repair touches only
        the pair slots of the dirty objects (plus any pairs crossing the
        overlap threshold in either direction); everything else is
        reused. Returns the dataset's
        :class:`~repro.core.dataset.MutationDelta`.
        """
        delta = self._dataset.apply(claims)
        if delta:
            self._cache.sync()
        return delta

    def refresh(self, value_probs: ValueProbabilities | None = None) -> None:
        """Refresh the soft evidence parts (truth-agnostic by default)."""
        if value_probs is None:
            value_probs = uniform_value_probabilities(self._dataset)
        self._cache.refresh(value_probs)

    def evidence(self, s1: SourceId, s2: SourceId) -> PairEvidence:
        """Evidence for one candidate pair, from the last refresh."""
        return self._cache.evidence(s1, s2)

    @property
    def last_discover_stats(self) -> Mapping[str, int | bool]:
        """Counters of the last :meth:`discover`.

        ``pairs`` candidate pairs existed, ``rescored`` had their
        posterior recomputed, ``reused`` kept the previous posterior
        unchanged; ``restricted`` says whether the restricted path ran
        at all (the first discover, any discover under caller-supplied
        ``value_probs``, and the one following :meth:`run_truth` are
        necessarily full re-scores).
        """
        return dict(self._last_discover_stats)

    @property
    def last_truth_stats(self) -> Mapping[str, int | str]:
        """Counters of the last :meth:`run_truth`.

        ``pairs_rescored`` / ``pairs_reused`` sum DEPEN's per-round
        counters over the whole run (see
        :class:`~repro.truth.base.RoundTrace`); every round scores every
        pair, so ``pairs_reused`` is 0. Empty before the first
        :meth:`run_truth`.
        """
        return dict(self._last_truth_stats)

    def discover(
        self,
        value_probs: ValueProbabilities | None = None,
        accuracies: Mapping[SourceId, float] | None = None,
    ) -> DependenceGraph:
        """Score the candidate pairs that can have moved; update the graph.

        Without ``value_probs`` the truth-agnostic uniform distribution
        is used; without ``accuracies`` the engine's current estimates
        (DEPEN's, once :meth:`run_truth` has run; the default before).
        Accuracies are clamped into (0, 1) before scoring — DEPEN's
        estimates legitimately reach exactly 0 or 1 on small or fully
        converged inputs, and the Bayes model needs the open interval
        (the same clamp iterative truth discovery applies,
        :meth:`~repro.core.params.IterationParams.clamp_accuracy`).

        Consecutive default-``value_probs`` discovers recompute
        posteriors only for pairs whose evidence slots were touched by
        ingest, pairs agreeing on a dirty object (their soft evidence
        moves through the object's value probabilities), and pairs with
        an endpoint whose accuracy changed — every other pair's
        posterior is carried over unchanged, which is exact, not an
        approximation (same evidence, same accuracies, same params ⇒
        bit-for-bit the same posterior). Caller-supplied ``value_probs``
        force a full re-score: the engine cannot know which entries
        such a distribution moved. :attr:`last_discover_stats` counts
        what happened.
        """
        if len(self._dataset) == 0:
            raise DataError("streaming engine has no claims yet")
        default_probs = value_probs is None
        if default_probs:
            value_probs = uniform_value_probabilities(self._dataset)
        accs = dict(accuracies) if accuracies is not None else self.accuracies
        accs = {s: min(0.99, max(0.01, a)) for s, a in accs.items()}
        self._cache.sync()
        restricted = (
            default_probs
            and self._restricted_valid
            and self._last_accuracies is not None
        )
        if not restricted:
            self._graph = discover_dependence(
                self._dataset,
                value_probs,
                accs,
                self.params,
                evidence_cache=self._cache,
            )
            rescored = len(self._cache)
        else:
            cache = self._cache
            affected = {key for key in cache.dirty_pairs() if key in cache}
            last_accs = self._last_accuracies
            changed = {s for s, a in accs.items() if last_accs.get(s) != a}
            cache.refresh(value_probs)
            graph = DependenceGraph()
            previous = self.graph
            engine = cache.posterior_engine(self.params)
            keys = engine.pair_keys()
            need = np.zeros(len(keys), dtype=bool)
            if changed:
                # Vectorised endpoint selection: pairs touching a
                # changed-accuracy source, via the engine's static
                # endpoint code arrays instead of an O(pairs)
                # membership loop.
                code = {s: i for i, s in enumerate(engine.sources)}
                changed_codes = np.asarray(
                    sorted(code[s] for s in changed if s in code),
                    dtype=np.int64,
                )
                if changed_codes.size:
                    s1c, s2c = engine.endpoint_codes()
                    need |= np.isin(s1c, changed_codes)
                    need |= np.isin(s2c, changed_codes)
            for i, key in enumerate(keys):
                if not need[i] and (
                    key in affected or previous.get(*key) is None
                ):
                    need[i] = True
            positions = np.flatnonzero(need)
            rescored = int(positions.size)
            scored = iter(engine.posterior_pairs(accs, positions))
            for i, key in enumerate(keys):
                graph.add(
                    next(scored) if need[i] else previous.get(*key)
                )
            self._graph = graph
        self._graph_result = None
        # Cleared only after scoring succeeded: a KeyError (bad caller
        # accuracies) mid-score must not lose the invalidation set, or
        # a retried discover would serve pre-ingest posteriors as fresh.
        self._cache.clear_dirty_pairs()
        self._graph_version = self._dataset.version
        self._last_accuracies = accs
        self._restricted_valid = default_probs
        self._last_discover_stats = {
            "pairs": len(self._cache),
            "rescored": rescored,
            "reused": len(self._cache) - rescored,
            "restricted": restricted,
        }
        return self._graph

    def run_truth(self, algorithm=None):
        """Re-run truth discovery on the current (dirty) state.

        With the default DEPEN the engine's evidence cache is reused, so
        the iterative loop pays only soft refreshes — the whole point of
        maintaining the cache across ingest — and the last columnar
        run's :class:`~repro.truth.columnar.TruthLayout` is synced
        rather than rebuilt. Any other
        :class:`~repro.truth.base.TruthDiscovery` runs as-is. The
        result's accuracies and dependence graph become the engine's
        live state.
        """
        # Imported lazily: repro.truth.depen imports this package, so a
        # top-level import would be circular.
        from repro.truth.depen import Depen

        if algorithm is None:
            algorithm = Depen(
                self.params, self.iteration, min_overlap=self.min_overlap
            )
        if isinstance(algorithm, Depen):
            result = algorithm.discover(
                self._dataset, evidence_cache=self._cache, layout=self._layout
            )
        else:
            result = algorithm.discover(self._dataset)
        if result.columnar is not None:
            self._layout = result.columnar.table.layout
        counted = [
            trace
            for trace in result.trace
            if trace.pairs_rescored is not None
        ]
        self._last_truth_stats = {
            "algorithm": getattr(algorithm, "name", type(algorithm).__name__),
            "rounds": result.rounds,
            "pairs_rescored": sum(t.pairs_rescored for t in counted),
            "pairs_reused": sum(t.pairs_reused or 0 for t in counted),
        }
        self._last_result = result
        self._last_result_version = self._dataset.version
        if result.accuracies:
            self._accuracies = dict(result.accuracies)
        if result.has_dependence:
            self._graph_result = result
            self._graph_version = self._dataset.version
            # DEPEN's final graph was scored under its own converged
            # value probabilities, not the engine's uniform ones — it is
            # not a reuse baseline for restricted re-scoring.
            self._restricted_valid = False
        return result

    # ------------------------------------------------------------------
    # serving: snapshot / publish
    # ------------------------------------------------------------------

    @property
    def truth_is_stale(self) -> bool:
        """True when no truth result covers the current dataset version."""
        return (
            self._last_result is None
            or self._last_result_version != self._dataset.version
        )

    def snapshot(self, *, refresh: bool = True):
        """Freeze the current truth round as an immutable serving snapshot.

        With ``refresh=True`` (the default) a stale state — claims
        ingested since the last :meth:`run_truth`, or no run yet — first
        re-runs truth discovery, so the snapshot always reflects the
        dataset it is stamped with; ``refresh=False`` raises on a stale
        state instead (for callers that control the cadence themselves).
        The returned :class:`~repro.serve.snapshot.Snapshot` is
        unpublished (no serving version) until a store stamps it.
        """
        # Imported lazily: repro.serve consumes this module's layer
        # outputs; a top-level import would invert the layering.
        from repro.exceptions import ServeError
        from repro.serve.snapshot import Snapshot

        if self.truth_is_stale:
            if not refresh:
                raise ServeError(
                    "truth state is stale (ingest since the last "
                    "run_truth); call run_truth() or pass refresh=True"
                )
            self.run_truth()
        self._published_rounds += 1
        return Snapshot.from_result(
            self._dataset,
            self._last_result,
            round_id=self._published_rounds,
        )

    def publish(self, store, *, refresh: bool = True):
        """:meth:`snapshot` then ``store.publish`` — returns the snapshot.

        The one-call publish hook the serving loop uses: after any
        sequence of :meth:`ingest` calls, one ``publish`` makes the
        refreshed truth round visible to every reader of ``store``,
        atomically.
        """
        return store.publish(self.snapshot(refresh=refresh))

    def compact(self) -> int:
        """Trim the dataset's mutation log up to the cache's sync point.

        Long-running ingest loops call this periodically so the log does
        not grow without bound. Returns the entries dropped.
        """
        return self._dataset.compact_log(self._cache.synced_version)

    def close(self) -> None:
        """Release the evidence cache's executor, if the cache owns one.

        Relevant under ``DependenceParams(parallel_backend="process",
        pool="persistent")`` and under ``parallel_backend="resident"``
        (whose pinned workers are persistent by construction) — after
        ``close()`` no worker process is left alive. A borrowed
        executor (one handed to the cache at construction) is left
        running for its owner. Idempotent and a no-op otherwise; the
        engine stays usable after closing (the next sharded build
        simply creates a fresh executor).
        """
        self._cache.close()

    def __enter__(self) -> "StreamingDependenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StreamingDependenceEngine({len(self._dataset)} claims, "
            f"{len(self._cache)} candidate pairs, "
            f"{'stale' if self.is_stale else 'live'} graph)"
        )
