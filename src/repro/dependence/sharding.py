"""Sharded parallel execution of the structural evidence sweep.

The structural pass every dependence modality performs — enumerate each
item's provider pairs into per-pair slots — is O(Σ providers²) over
items and embarrassingly parallel *over items*: no item's contribution
depends on any other item's. This module partitions that sweep into
deterministic object-range shards and executes the shards on a process
pool (threads do not help under the GIL), then merges the shard-local
results into the exact structure the serial pass would have built.

The design invariant, pinned by ``tests/test_sharded_sweep.py``:

    **Results are bit-for-bit identical for every backend and worker
    count** — serial, in-process numpy, or a process pool of any size.

Three properties deliver that invariance:

* *deterministic sharding* — :class:`ShardPlanner` cuts the **sorted**
  item list into contiguous ranges, so shard membership is a pure
  function of the item set and the configured shard size, never of
  scheduling. The :class:`~repro.dependence.collector.ProviderCap`
  hot-item truncation is applied per item while packing payloads, so
  capped and serial enumeration agree exactly;
* *order-canonicalised merge* — shard results are merged in shard order
  (shards are ascending item ranges, so concatenation restores the
  global sorted-item order every slot relies on), pairs are
  canonicalised on :func:`~repro.dependence.collector.pair_key`, and the
  evidence-record merge re-sorts on ``(pair, item)`` — the completion
  order of the pool never leaks into the result;
* *pickle-light payloads* — a shard ships as numpy-packed code arrays
  (:class:`ShardPayload`: source codes, interned entry codes, group
  lengths), not as Claim objects or dataset slices, and a worker ships
  its records back the same way (:class:`RecordBlock`).

Execution itself lives behind the transport-agnostic
:class:`repro.exec.ShardExecutor` interface: ``"numpy"`` runs the same
vectorised shard sweep in-process (no pool — the win is replacing the
per-record Python loop with array ops); ``"process"`` fans shards out
to a stateless ``concurrent.futures`` process pool; ``"resident"``
pins each shard to a long-lived worker that keeps the shard's packed
records resident and receives only dirty-range deltas (see
:mod:`repro.exec.resident`). :class:`SweepConfig.executor` builds the
right executor for the policy. The generic, payload-agnostic sharding
used by the temporal and opinion collectors
(:func:`run_collector_shards`) reuses the subclass's own ``_collect``
hook inside each worker, so those modalities parallelise without numpy
packing.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError

#: Shards smaller than this are merged into their neighbour when the
#: planner derives the size itself — per-shard pool overhead (pickle,
#: dispatch) would otherwise dominate tiny shards.
MIN_DERIVED_SHARD = 32

#: With no explicit ``shard_size``, each worker gets this many shards on
#: average, so one slow shard (a run of hot objects) does not stall the
#: whole pool behind it.
SHARDS_PER_WORKER = 4

_BACKENDS = ("serial", "process", "numpy", "resident")


def _validate_policy(
    backend: str | None = None,
    num_workers: int | None = None,
    shard_size: int | None = None,
) -> None:
    """Shared checks for the execution-policy fields.

    ``None`` skips a field (``shard_size=None`` legitimately means
    "derive", which needs no check, so the two meanings coincide).
    """
    if backend is not None and backend not in _BACKENDS:
        raise ParameterError(
            f"backend must be one of {', '.join(map(repr, _BACKENDS))}, "
            f"got {backend!r}"
        )
    if num_workers is not None and num_workers < 1:
        raise ParameterError(f"num_workers must be >= 1, got {num_workers}")
    if shard_size is not None and shard_size < 1:
        raise ParameterError(
            f"shard_size must be >= 1 or None, got {shard_size}"
        )


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """How a structural sweep executes: backend + workers + shard size.

    Execution policy only — never part of any model and never able to
    change a result. :meth:`from_params` lifts the policy fields out of
    a :class:`~repro.core.params.DependenceParams`, so snapshot,
    temporal and opinion discovery all share one spelling.
    """

    backend: str = "serial"
    num_workers: int = 1
    shard_size: int | None = None
    pool: str = "ephemeral"

    def __post_init__(self) -> None:
        _validate_policy(self.backend, self.num_workers, self.shard_size)
        if self.pool not in ("ephemeral", "persistent"):
            raise ParameterError(
                f"pool must be 'ephemeral' or 'persistent', got {self.pool!r}"
            )

    @classmethod
    def from_params(cls, params) -> "SweepConfig":
        """The sweep policy a ``DependenceParams`` carries."""
        return cls(
            backend=params.parallel_backend,
            num_workers=params.num_workers,
            shard_size=params.shard_size,
            pool=getattr(params, "pool", "ephemeral"),
        )

    @property
    def parallel(self) -> bool:
        return self.backend != "serial"

    def executor(self):
        """A fresh :class:`repro.exec.ShardExecutor` for this policy.

        The caller owns the returned executor and must close it (or use
        it as a context manager); ``resident`` pools are persistent by
        construction, ``process`` pools only under ``pool="persistent"``.
        """
        from repro.exec import make_executor

        return make_executor(
            self.backend,
            self.num_workers,
            persistent=self.pool == "persistent",
        )

    def planner(self) -> "ShardPlanner":
        return ShardPlanner(self.num_workers, self.shard_size)


# ----------------------------------------------------------------------
# planning: deterministic item -> shard assignment
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous ranges over a sorted item list, plus routing support.

    ``starts`` are the range start indexes (``starts[i] .. starts[i+1]``
    is shard ``i``); ``boundaries`` are the first *items* of each shard,
    which is all :meth:`shard_of` needs to route an arbitrary item —
    including items that did not exist when the plan was made (they fall
    into the shard whose range would contain them).
    """

    starts: tuple[int, ...]
    n_items: int
    boundaries: tuple

    @property
    def n_shards(self) -> int:
        return len(self.starts)

    def ranges(self) -> list[tuple[int, int]]:
        """The ``(start, end)`` index ranges, in shard order."""
        ends = (*self.starts[1:], self.n_items)
        return list(zip(self.starts, ends))

    def shard_of(self, item) -> int:
        """The shard an item routes to (0 when it sorts before everything)."""
        if not self.boundaries:
            return 0
        return max(0, bisect_right(self.boundaries, item) - 1)

    def route(self, items: Iterable) -> dict[int, list]:
        """Group items by shard, each group in sorted-item order.

        Iterating the returned groups in ascending shard id visits the
        items in global sorted order — shards are ascending ranges — so
        routed processing is order-identical to a flat sorted walk.
        """
        routed: dict[int, list] = {}
        for item in sorted(items):
            routed.setdefault(self.shard_of(item), []).append(item)
        return routed


class ShardPlanner:
    """Deterministic object-range partitioning for the parallel sweep.

    An explicit ``shard_size`` fixes the ranges outright. Without one,
    the size is derived so each of the ``num_workers`` workers receives
    about :data:`SHARDS_PER_WORKER` shards (bounded below by
    :data:`MIN_DERIVED_SHARD`). Either way the plan is a pure function
    of the sorted item list and the configuration — results never
    depend on it (the merge is order-canonicalised), only load balance
    does.
    """

    def __init__(
        self, num_workers: int = 1, shard_size: int | None = None
    ) -> None:
        _validate_policy(num_workers=num_workers, shard_size=shard_size)
        self.num_workers = num_workers
        self.shard_size = shard_size

    def resolve_size(self, n_items: int) -> int:
        """The objects per shard used for a sweep over ``n_items``."""
        if self.shard_size is not None:
            return self.shard_size
        target = self.num_workers * SHARDS_PER_WORKER
        return max(MIN_DERIVED_SHARD, -(-n_items // target))

    def plan(self, items: Sequence) -> ShardPlan:
        """Cut the (sorted) item sequence into contiguous shard ranges."""
        n = len(items)
        if n == 0:
            return ShardPlan(starts=(), n_items=0, boundaries=())
        size = self.resolve_size(n)
        starts = tuple(range(0, n, size))
        return ShardPlan(
            starts=starts,
            n_items=n,
            boundaries=tuple(items[s] for s in starts),
        )


# ----------------------------------------------------------------------
# numpy-packed payloads for the snapshot evidence sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPayload:
    """One shard of the packed by-object index, ready to ship to a worker.

    ``src`` / ``entry`` are flat per-claim arrays (source rank codes and
    interned ``(object, value)`` entry codes), ``lengths`` the provider
    count of each object in the shard, ``n_sources`` the code space for
    pair ids.
    Providers are already cap-filtered and in sorted source order, so
    the worker's pair enumeration needs no policy of its own.
    """

    shard_id: int
    src: np.ndarray
    entry: np.ndarray
    lengths: np.ndarray
    n_sources: int


@dataclass(frozen=True)
class RecordBlock:
    """A shard's pair records: one row per (object, provider-pair).

    ``pair`` holds composite pair ids (``s1_code * n_sources + s2_code``
    with ``s1_code < s2_code``), ``entry`` the first provider's entry
    code, ``agree`` whether the two providers assert the same value. A
    block's rows are sorted by ``(pair, object)`` — the worker pays that
    sort, in parallel, so the parent's merge only needs a stable sort on
    ``pair`` over the shard-ordered concatenation (shards are ascending
    object ranges, so stability preserves each pair's global object
    order). The objects themselves are not shipped back: after the
    sort, row order is all the merge reads of them.
    """

    pair: np.ndarray
    entry: np.ndarray
    agree: np.ndarray

    @staticmethod
    def empty() -> "RecordBlock":
        return RecordBlock(
            pair=np.empty(0, dtype=np.int64),
            entry=np.empty(0, dtype=np.int64),
            agree=np.empty(0, dtype=bool),
        )

    @staticmethod
    def concatenate(blocks: Sequence["RecordBlock"]) -> "RecordBlock":
        """The blocks' rows in block order; a lone block as it is."""
        if not blocks:
            return RecordBlock.empty()
        if len(blocks) == 1:
            return blocks[0]
        return RecordBlock(
            pair=np.concatenate([b.pair for b in blocks]),
            entry=np.concatenate([b.entry for b in blocks]),
            agree=np.concatenate([b.agree for b in blocks]),
        )


def sweep_shard(payload: ShardPayload) -> RecordBlock:
    """Enumerate one shard's provider pairs into a record block.

    Pure function of the payload (safe to run in any process, any
    order). Objects are processed grouped by provider count so each
    group's pair enumeration is one ``triu_indices`` broadcast instead
    of a Python loop; the block is then sorted by ``(pair, object)`` before
    returning, so the sort — the priciest merge stage — runs inside the
    workers, in parallel.
    """
    lengths = payload.lengths
    if lengths.size == 0:
        return RecordBlock.empty()
    offsets = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    src = payload.src
    entry = payload.entry
    n_sources = payload.n_sources
    pair_parts: list[np.ndarray] = []
    obj_parts: list[np.ndarray] = []
    entry_parts: list[np.ndarray] = []
    agree_parts: list[np.ndarray] = []
    for k in np.unique(lengths):
        members = np.nonzero(lengths == k)[0]
        starts = offsets[members]
        ti, tj = np.triu_indices(int(k), 1)
        left = (starts[:, None] + ti[None, :]).ravel()
        right = (starts[:, None] + tj[None, :]).ravel()
        s1 = src[left]
        s2 = src[right]
        pair_parts.append(s1 * n_sources + s2)
        obj_parts.append(np.repeat(members, ti.size).astype(np.int64))
        e1 = entry[left]
        entry_parts.append(e1)
        agree_parts.append(e1 == entry[right])
    pair = np.concatenate(pair_parts)
    obj = np.concatenate(obj_parts)
    # Composite (pair, local-object) key: local indexes keep the key
    # small and within-shard object order equals global object order.
    order = np.argsort(pair * np.int64(lengths.size) + obj, kind="stable")
    return RecordBlock(
        pair=pair[order],
        entry=np.concatenate(entry_parts)[order],
        agree=np.concatenate(agree_parts)[order],
    )


# ----------------------------------------------------------------------
# generic collector sharding (temporal / opinion modalities)
# ----------------------------------------------------------------------


def _collector_shard_sweep(task) -> tuple[dict, dict]:
    """Run one shard of a :class:`PairSlotCollector` subclass's sweep.

    ``task`` is ``(cls, groups, fixed_pairs, cap_limit)``. The worker
    instantiates a bare collector (skipping the subclass ``__init__``,
    which would demand the full dataset) and reuses the serial sweep
    with the subclass's own ``_new_slot`` / ``_collect`` hooks, so a
    shard contributes exactly what the serial pass would for its items.
    Returns the shard's slot registry and its cap-truncation record.
    """
    # Imported here so the module import graph stays acyclic (collector
    # imports nothing from sharding; sharding workers need collector).
    from repro.dependence.collector import PairSlotCollector, ProviderCap

    cls, groups, fixed_pairs, cap_limit = task
    shard = cls.__new__(cls)
    PairSlotCollector.__init__(
        shard, fixed_pairs, max_providers_per_item=cap_limit
    )
    # Quiet: the parent's absorb() emits the one authoritative WARNING
    # per truncation (worker logs die with spawn pools and would
    # duplicate the parent's under fork or the in-process short-circuit).
    shard._cap = ProviderCap(cap_limit, quiet=True)
    PairSlotCollector.build(shard, groups)
    return shard._slots, dict(shard._cap.truncated)


def run_collector_shards(
    cls: type,
    groups: Sequence[tuple],
    fixed_pairs: Sequence[tuple] | None,
    cap_limit: int | None,
    executor,
    planner: ShardPlanner,
) -> tuple[list[tuple[dict, dict]], ShardPlan]:
    """Shard a generic by-item sweep and run it under ``executor``.

    ``groups`` must be the full ``(item, providers)`` list in sorted
    item order — the same input the serial
    :meth:`~repro.dependence.collector.PairSlotCollector.build` takes.
    ``executor`` is a :class:`repro.exec.ShardExecutor`. Returns the
    per-shard ``(slots, truncated)`` results in shard order plus the
    plan used, for the caller's order-canonicalised merge.
    """
    plan = planner.plan([item for item, _ in groups])
    tasks = [
        (cls, groups[start:end], fixed_pairs, cap_limit)
        for start, end in plan.ranges()
    ]
    return executor.run("collector.shard_sweep", tasks), plan


def merge_collector_shards(
    shard_results: Iterable[tuple[dict, dict]],
    slots: dict,
    new_slot: Callable,
    fixed: bool,
    absorb_truncations: Callable[[Mapping], None],
) -> None:
    """Fold per-shard slot registries into the live one, canonically.

    Shards are visited in shard order and each shard's pairs in its own
    (deterministic) first-encounter order, so derived pair admission and
    every slot's record order match the serial sweep exactly: shard
    ranges are ascending item ranges, and list slots concatenate in
    item order. Slots must be list-like (``extend``) — true for every
    collector modality (the snapshot engine merges its own way).
    """
    for shard_slots, truncated in shard_results:
        for key, records in shard_slots.items():
            slot = slots.get(key)
            if slot is None:
                if fixed:
                    continue
                slot = new_slot(*key)
                slots[key] = slot
            slot.extend(records)
        if truncated:
            absorb_truncations(truncated)
