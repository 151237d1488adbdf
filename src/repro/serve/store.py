"""Versioned snapshot store: latest-wins publication, lock-free reads.

The coordination point between one (or more) publishing writers and any
number of concurrent readers. Publication is an atomic pointer swap:
``publish`` stamps the snapshot with the next monotonic version, builds
a *new* version map, and swaps both references under the writer mutex —
readers never take a lock, they read ``latest`` / ``get`` against
whichever immutable map reference they observe, and either see the old
snapshot or the new one in full, never a mixture (the snapshot itself is
immutable, so there is nothing half-updated to see).

Retention is bounded: the store keeps the most recent ``retention``
versions plus any version a reader has *pinned* (``pin`` hands out a
context manager; a pinned version survives eviction until every pin is
released). Recommend's scorecards, a pure function of one snapshot,
are memoised per version (:meth:`SnapshotStore.scorecards`) and leave
with their version. The read side follows the one-module
fetch/cache/stats/clear idiom — ``get``/``latest`` fetch, ``stats``
reports, ``clear`` drops everything unpinned.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from contextlib import contextmanager
from types import MappingProxyType

from repro.exceptions import ServeError
from repro.serve.snapshot import Snapshot


class SnapshotStore:
    """Bounded, versioned map of published snapshots.

    ``retention`` is the number of most-recent versions kept reachable
    for unpinned readers; it must be >= 1 (the latest snapshot is always
    reachable).
    """

    def __init__(self, retention: int = 8) -> None:
        if retention < 1:
            raise ServeError(f"retention must be >= 1, got {retention}")
        self.retention = retention
        self._write_lock = threading.Lock()
        self._latest: Snapshot | None = None
        # Swapped wholesale under the write lock; read without locks.
        self._by_version: dict[int, Snapshot] = {}
        self._next_version = 1
        self._pins: dict[int, int] = {}
        # version -> that snapshot's scorecards; its keys are always a
        # subset of _by_version's (both change under the write lock).
        self._scorecards: dict[int, dict] = {}
        self._stats = {
            "published": 0,
            "evicted": 0,
            "reads": 0,
            "pinned_reads": 0,
            "misses": 0,
        }

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------

    def publish(self, snapshot: Snapshot) -> Snapshot:
        """Stamp the snapshot with the next version and make it latest.

        Returns the same (now stamped) snapshot. Versions a snapshot
        arrives with are rejected — the store owns the version sequence,
        which is what makes "exactly one published snapshot version per
        answer" checkable.
        """
        if snapshot.version is not None:
            raise ServeError(
                f"snapshot is already published as version "
                f"{snapshot.version}; build a fresh snapshot per round"
            )
        with self._write_lock:
            version = self._next_version
            self._next_version += 1
            snapshot._stamp(version)
            table = dict(self._by_version)
            table[version] = snapshot
            floor = version - self.retention
            for old in [
                v for v in table if v <= floor and not self._pins.get(v)
            ]:
                del table[old]
                self._scorecards.pop(old, None)
                self._stats["evicted"] += 1
            # Swap the map first: a reader observing the new latest must
            # be able to resolve its version through get().
            self._by_version = table
            self._latest = snapshot
            self._stats["published"] += 1
        return snapshot

    # ------------------------------------------------------------------
    # reader side (lock-free)
    # ------------------------------------------------------------------

    @property
    def latest(self) -> Snapshot:
        """The most recently published snapshot."""
        snapshot = self._latest
        if snapshot is None:
            raise ServeError("no snapshot published yet")
        self._stats["reads"] += 1
        return snapshot

    def get(self, version: int | None = None) -> Snapshot:
        """One snapshot by version; latest when ``version`` is ``None``."""
        if version is None:
            return self.latest
        snapshot = self._by_version.get(version)
        if snapshot is None:
            self._stats["misses"] += 1
            raise ServeError(
                f"snapshot version {version} is not in the store "
                f"(retention {self.retention}; "
                f"available: {self.versions()})"
            )
        self._stats["pinned_reads"] += 1
        return snapshot

    def scorecards(
        self, snapshot: Snapshot, build: Callable[[Snapshot], dict]
    ) -> dict:
        """Recommend's scorecards for ``snapshot``, built once per version.

        ``build`` is :func:`~repro.recommend.scoring.snapshot_scorecards`
        (passed in, so the store stays below the recommend layer). The
        entry leaves the memo when its version leaves the store, so the
        memo never holds more than the retained and pinned versions. A
        snapshot that is unpublished, or no longer in the store, is
        built but not kept. The lookup is lock-free; only storing a
        fresh entry takes the write lock.
        """
        version = snapshot.version
        cards = self._scorecards.get(version)
        if cards is not None:
            return cards
        cards = build(snapshot)
        with self._write_lock:
            if self._by_version.get(version) is snapshot:
                self._scorecards[version] = cards
        return cards

    def versions(self) -> list[int]:
        """Currently resolvable versions, ascending."""
        return sorted(self._by_version)

    def __len__(self) -> int:
        return len(self._by_version)

    @contextmanager
    def pin(self, version: int | None = None):
        """Pin one version against eviction for the duration of a read.

        Yields the pinned snapshot. While any pin on a version is held,
        ``publish`` will not evict it even when it falls out of the
        retention window; the last release drops it if it is stale.
        """
        with self._write_lock:
            snapshot = (
                self._latest if version is None else self._by_version.get(version)
            )
            if snapshot is None:
                raise ServeError(
                    "cannot pin: no snapshot published yet"
                    if version is None
                    else f"cannot pin: version {version} is not in the store"
                )
            pinned = snapshot.version
            self._pins[pinned] = self._pins.get(pinned, 0) + 1
        try:
            yield snapshot
        finally:
            with self._write_lock:
                self._pins[pinned] -= 1
                if self._pins[pinned] <= 0:
                    del self._pins[pinned]
                    latest = self._latest
                    floor = (
                        latest.version - self.retention
                        if latest is not None and latest.version is not None
                        else None
                    )
                    if floor is not None and pinned <= floor:
                        table = dict(self._by_version)
                        if table.pop(pinned, None) is not None:
                            self._scorecards.pop(pinned, None)
                            self._stats["evicted"] += 1
                            self._by_version = table

    # ------------------------------------------------------------------
    # stats / clear (the cache-module idiom)
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Publication/read/eviction counters plus the live extent."""
        return {
            **self._stats,
            "resident": len(self._by_version),
            "pinned": len(self._pins),
            "memoised": len(self._scorecards),
            "latest_version": (
                None if self._latest is None else self._latest.version
            ),
        }

    def pins(self) -> MappingProxyType:
        """Read-only view of the live pin counts (diagnostics)."""
        return MappingProxyType(self._pins)

    def clear(self) -> int:
        """Drop every unpinned snapshot (including latest); return count.

        Pinned versions stay resolvable through :meth:`get` until their
        pins release. The version sequence keeps counting — a cleared
        store never reissues a version.
        """
        with self._write_lock:
            table = {
                v: s for v, s in self._by_version.items() if self._pins.get(v)
            }
            dropped = len(self._by_version) - len(table)
            self._stats["evicted"] += dropped
            self._by_version = table
            self._scorecards = {
                v: c for v, c in self._scorecards.items() if v in table
            }
            self._latest = None
        return dropped
