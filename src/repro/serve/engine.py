"""Asyncio serving front-end: concurrent reads over published snapshots.

:class:`ServingEngine` is the production shape ROADMAP item 2 asks for:
many readers answering ``query`` / ``recommend`` / ``explain_dependence``
calls concurrently while a background loop keeps ingesting claims,
re-running truth rounds and publishing fresh snapshots. The read path
never blocks on the write path — every answer is computed against one
immutable snapshot resolved at call start (latest-wins, or an explicit
pinned version), so a publish landing mid-call cannot tear an answer.

The refresh loop runs the caller's ``refresh`` callable (typically
:meth:`Session.refresh <repro.session.Session.refresh>` over pending
ingest) in the default executor, keeping the event loop free to serve
queries while a truth round computes. The feed it drains is the full
mutation algebra, not just appends: producers queue
:class:`~repro.core.dataset.MutationBatch` objects carrying adds,
retractions and corrections through
:meth:`Session.feed <repro.session.Session.feed>`, and each refresh
applies them in arrival order before re-running truth — the published
:class:`~repro.serve.snapshot.Snapshot` records the mutation-log
version it reflects (:attr:`Snapshot.mutation_version
<repro.serve.snapshot.Snapshot.mutation_version>`).
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable

from repro.exceptions import ServeError
from repro.recommend.scoring import (
    ScoreWeights,
    recommend_from_snapshot,
    snapshot_scorecards,
)
from repro.serve.snapshot import ServedAnswer, Snapshot
from repro.serve.store import SnapshotStore


class ServingEngine:
    """Async read surface over a :class:`~repro.serve.store.SnapshotStore`.

    Parameters
    ----------
    store:
        The snapshot store readers resolve against (borrowed — its
        lifecycle belongs to the caller, usually a
        :class:`~repro.session.Session`).
    refresh:
        Optional zero-argument callable producing the next
        :class:`~repro.serve.snapshot.Snapshot` to publish (or ``None``
        when there is nothing new). Run in the event loop's default
        executor by the background loop. A refresh that raises does
        *not* stop the loop: the failure is recorded (see
        :meth:`health`), the loop backs off exponentially (capped at
        ``32 ×`` the refresh interval) and keeps going — the last-good
        snapshot keeps answering reads throughout. Only
        :meth:`refresh_once` re-raises, for callers driving refresh
        explicitly.
    refresh_interval:
        Seconds the background loop sleeps between refresh calls.
    health_hook:
        Optional zero-argument callable returning a dict merged into
        :meth:`health` — the :class:`~repro.session.Session` uses it to
        surface its dead-letter-queue depth next to the loop state.
    """

    def __init__(
        self,
        store: SnapshotStore,
        refresh: Callable[[], Snapshot | None] | None = None,
        *,
        refresh_interval: float = 0.05,
        health_hook: Callable[[], dict] | None = None,
    ) -> None:
        if refresh_interval <= 0:
            raise ServeError(
                f"refresh_interval must be > 0, got {refresh_interval}"
            )
        self.store = store
        self._refresh = refresh
        self._refresh_interval = refresh_interval
        self._health_hook = health_hook
        self._task: asyncio.Task | None = None
        self._stats = {"queries": 0, "recommends": 0, "explains": 0,
                       "refreshes": 0}
        self._consecutive_failures = 0
        self._total_failures = 0
        self._last_error: str | None = None
        self._last_success_monotonic: float | None = None

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def _resolve(self, version: int | None) -> Snapshot:
        return self.store.get(version)

    async def query(
        self, obj, *, version: int | None = None
    ) -> ServedAnswer:
        """The served truth for one object, tagged with its snapshot."""
        snapshot = self._resolve(version)
        self._stats["queries"] += 1
        return snapshot.answer(obj)

    async def query_value(
        self, obj, value, *, version: int | None = None
    ) -> float:
        """Posterior probability of one (object, value)."""
        snapshot = self._resolve(version)
        self._stats["queries"] += 1
        return snapshot.probability(obj, value)

    async def distribution(
        self, obj, *, version: int | None = None
    ) -> dict:
        """The full value distribution of one object."""
        snapshot = self._resolve(version)
        self._stats["queries"] += 1
        return snapshot.distribution(obj)

    async def recommend(
        self,
        k: int,
        *,
        goal: str = "truth",
        weights: ScoreWeights | None = None,
        copy_rate: float = 0.8,
        version: int | None = None,
    ) -> list:
        """Top-``k`` sources with marginal dependence penalties."""
        snapshot = self._resolve(version)
        self._stats["recommends"] += 1
        # Scorecards are a pure function of one snapshot: memoised in
        # the store, per version, shared with Session.recommend.
        cards = self.store.scorecards(snapshot, snapshot_scorecards)
        return recommend_from_snapshot(
            snapshot,
            k,
            weights=weights,
            goal=goal,
            copy_rate=copy_rate,
            cards=cards,
        )

    async def explain_dependence(
        self,
        source,
        other=None,
        *,
        threshold: float = 0.0,
        version: int | None = None,
    ):
        """One source's dependence neighbourhood, or one pair's posterior."""
        snapshot = self._resolve(version)
        self._stats["explains"] += 1
        if other is not None:
            return {
                "source": source,
                "other": other,
                "p_dependent": snapshot.dependence_probability(source, other),
                "p_copies_other": snapshot.directed_probability(source, other),
            }
        return snapshot.explain_dependence(source, threshold=threshold)

    # ------------------------------------------------------------------
    # background refresh loop
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the background refresh loop is live."""
        return self._task is not None and not self._task.done()

    def start(self) -> None:
        """Start the ingest/refresh/publish loop (needs ``refresh``)."""
        if self._refresh is None:
            raise ServeError(
                "ServingEngine has no refresh callable; construct it with "
                "refresh=... (e.g. session.publish) to run the loop"
            )
        if self.running:
            raise ServeError("refresh loop is already running")
        self._task = asyncio.get_running_loop().create_task(self._loop())

    def _record_success(self) -> None:
        self._stats["refreshes"] += 1
        self._consecutive_failures = 0
        self._last_success_monotonic = time.monotonic()

    def _record_failure(self, exc: BaseException) -> None:
        self._consecutive_failures += 1
        self._total_failures += 1
        self._last_error = f"{type(exc).__name__}: {exc}"

    async def _loop(self) -> None:
        # The serving loop must survive its refresh: one poison batch or
        # wedged executor stopping publishes silently (nothing noticed
        # until stop()) is exactly the failure mode this engine exists
        # to prevent. Failures are recorded for health(), the sleep
        # backs off exponentially while they persist, and the last-good
        # snapshot keeps serving reads the whole time.
        loop = asyncio.get_running_loop()
        while True:
            delay = self._refresh_interval
            try:
                snapshot = await loop.run_in_executor(None, self._refresh)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self._record_failure(exc)
                delay *= min(32, 2 ** min(self._consecutive_failures, 5))
            else:
                self._record_success()
                if snapshot is not None and snapshot.version is None:
                    self.store.publish(snapshot)
            await asyncio.sleep(delay)

    async def refresh_once(self) -> Snapshot | None:
        """One refresh+publish cycle, awaitable (no loop required).

        Unlike the background loop this re-raises a refresh failure —
        the caller asked for this specific refresh, so they get its
        outcome — but the failure is recorded in :meth:`health` either
        way.
        """
        if self._refresh is None:
            raise ServeError("ServingEngine has no refresh callable")
        loop = asyncio.get_running_loop()
        try:
            snapshot = await loop.run_in_executor(None, self._refresh)
        except Exception as exc:
            self._record_failure(exc)
            raise
        self._record_success()
        if snapshot is not None and snapshot.version is None:
            self.store.publish(snapshot)
        return snapshot

    async def stop(self) -> None:
        """Cancel the background loop (refresh failures never kill it)."""
        task = self._task
        self._task = None
        if task is None:
            return
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    def health(self) -> dict:
        """Loop liveness, failure counters and snapshot staleness.

        ``snapshot_staleness`` is the seconds since the last successful
        refresh (``None`` before the first); ``latest_version`` is the
        served snapshot's version (``None`` when nothing is published
        yet). A ``health_hook`` passed at construction merges its dict
        in — the session reports its quarantine depth this way.
        """
        staleness = None
        if self._last_success_monotonic is not None:
            staleness = time.monotonic() - self._last_success_monotonic
        report = {
            "running": self.running,
            "refreshes": self._stats["refreshes"],
            "consecutive_failures": self._consecutive_failures,
            "total_failures": self._total_failures,
            "last_error": self._last_error,
            "snapshot_staleness": staleness,
            "latest_version": self.store.stats().get("latest_version"),
        }
        if self._health_hook is not None:
            report.update(self._health_hook())
        return report

    def stats(self) -> dict:
        """Per-call counters plus the store's own stats."""
        return {**self._stats, "store": self.store.stats()}
