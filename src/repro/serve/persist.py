"""Snapshot persistence: columnar save, memory-mapped load, module cache.

One module owning the whole fetch/cache/stats/clear lifecycle (the
``sscofs_cache`` idiom): :func:`save_snapshot` writes a snapshot
directory — one ``.npy`` file per array plus a JSON manifest carrying
the object/source/value universes, metadata and the integrity
fingerprint — and :func:`load_snapshot` rebuilds a bitwise-identical
:class:`~repro.serve.snapshot.Snapshot`, memory-mapping the arrays by
default so a multi-process serving fleet shares one page-cache copy and
cold starts pay I/O only for the pages a query actually touches.

:func:`fetch_snapshot` adds the process-level cache (one load per
directory, hits after that), :func:`cache_stats` reports it,
:func:`clear_cache` drops it.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

from repro.exceptions import ServeError
from repro.serve.snapshot import ARRAY_FIELDS, Snapshot

#: Manifest schema version; bumped on any layout change.
MANIFEST_SCHEMA = 1

MANIFEST_NAME = "manifest.json"

_CACHE: dict[str, Snapshot] = {}
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _encode(item: Any) -> Any:
    """JSON-encode one object/source/value, tagging tuples like the dataset."""
    if isinstance(item, tuple):
        return {"__tuple__": [_encode(part) for part in item]}
    if item is None or isinstance(item, (str, int, float, bool)):
        return item
    raise ServeError(
        f"cannot persist identifier {item!r} of type {type(item).__name__}; "
        "snapshot persistence supports JSON scalars and tuples of them"
    )


def _decode(item: Any) -> Any:
    if isinstance(item, dict) and "__tuple__" in item:
        return tuple(_decode(part) for part in item["__tuple__"])
    return item


def save_snapshot(snapshot: Snapshot, directory: str) -> str:
    """Write the snapshot's arrays and manifest under ``directory``.

    The directory is created if needed; an existing snapshot there is
    overwritten atomically enough for single-writer use (manifest last,
    so a half-written directory fails its load loudly rather than
    serving stale arrays as fresh). Returns the manifest path.
    """
    os.makedirs(directory, exist_ok=True)
    for name in ARRAY_FIELDS:
        np.save(
            os.path.join(directory, f"{name}.npy"),
            np.ascontiguousarray(getattr(snapshot, name)),
        )
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "objects": [_encode(obj) for obj in snapshot.objects],
        "sources": [_encode(src) for src in snapshot.sources],
        "slot_values": [_encode(val) for val in snapshot.slot_values],
        "dataset_version": snapshot.dataset_version,
        "round_id": snapshot.round_id,
        "version": snapshot.version,
        "fingerprint": snapshot.fingerprint(),
    }
    path = os.path.join(directory, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def load_snapshot(
    directory: str, *, mmap: bool = True, verify: bool = True
) -> Snapshot:
    """Rebuild a snapshot from :func:`save_snapshot` output.

    ``mmap=True`` maps the arrays read-only (``np.load(mmap_mode="r")``)
    instead of reading them into memory. ``verify=True`` recomputes the
    fingerprint against the manifest's — a mismatch (truncated file,
    bit rot, mixed-up directories) raises
    :class:`~repro.exceptions.ServeError` instead of serving wrong
    answers. The loaded snapshot keeps the version it was saved with.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ServeError(f"cannot read snapshot manifest {path}: {exc}") from exc
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise ServeError(
            f"snapshot manifest {path} has schema "
            f"{manifest.get('schema')!r}, expected {MANIFEST_SCHEMA}"
        )
    arrays = {}
    for name in ARRAY_FIELDS:
        file = os.path.join(directory, f"{name}.npy")
        try:
            arr = np.load(file, mmap_mode="r" if mmap else None)
        except (OSError, ValueError) as exc:
            raise ServeError(f"cannot load snapshot array {file}: {exc}") from exc
        if not mmap:
            arr.flags.writeable = False
        arrays[name] = arr
    snapshot = Snapshot(
        objects=tuple(_decode(obj) for obj in manifest["objects"]),
        sources=tuple(_decode(src) for src in manifest["sources"]),
        slot_values=tuple(_decode(val) for val in manifest["slot_values"]),
        arrays=arrays,
        dataset_version=manifest["dataset_version"],
        round_id=manifest["round_id"],
        version=manifest["version"],
    )
    if verify and snapshot.fingerprint() != manifest["fingerprint"]:
        raise ServeError(
            f"snapshot at {directory} fails its integrity fingerprint "
            f"({snapshot.fingerprint()[:12]}… != "
            f"{manifest['fingerprint'][:12]}…); refusing to serve it"
        )
    return snapshot


def fetch_snapshot(directory: str, *, mmap: bool = True) -> Snapshot:
    """Cached :func:`load_snapshot`: one load per directory per process."""
    key = os.path.abspath(directory)
    cached = _CACHE.get(key)
    if cached is not None:
        _CACHE_STATS["hits"] += 1
        return cached
    _CACHE_STATS["misses"] += 1
    snapshot = load_snapshot(directory, mmap=mmap)
    _CACHE[key] = snapshot
    return snapshot


def cache_stats() -> dict:
    """Hit/miss/eviction counters plus the resident entry count."""
    return {**_CACHE_STATS, "resident": len(_CACHE)}


def clear_cache() -> int:
    """Drop every cached snapshot; returns how many were resident."""
    dropped = len(_CACHE)
    _CACHE_STATS["evictions"] += dropped
    _CACHE.clear()
    return dropped
