"""Resident-worker pool: per-shard state lives in the workers.

Each worker is a long-lived process pinned to a fixed set of shards
(``shard_id % num_workers``) and connected to the parent by a duplex
pipe. The parent serializes every request itself —
``pickle.dumps((task, shard_id, delta))`` + ``send_bytes`` — so
:attr:`ResidentPoolExecutor.bytes_shipped` counts exactly what crossed
the transport; this is the number the ≥5x delta-shipping guarantee is
measured against.

A worker's loop is a miniature RPC server: receive a request, resolve
the task name against :mod:`repro.exec.tasks`, apply it (stateful
tasks get the worker's ``{shard_id: state}`` mapping), send back
``("ok", result)`` or ``("err", message)``.

Crash handling: a dead worker is detected by a failed send or receive.
The executor respawns it immediately, but its resident shard state is
gone — the batch raises :exc:`ResidentWorkerLost` naming the lost
shards so the caller (which owns the source of truth) can re-ship
their state and retry. All resident tasks are idempotent (``adopt``
replaces, ``delta`` replaces rows, ``sweep`` is pure), so retrying a
whole batch after re-shipping is always safe. Crashes during
*stateless* tasks are retried transparently: there is no state to
rebuild.

The module-level functions at the bottom are the ``resident.*``
registry tasks. Shard state is a plain dict —
``{"objs": [...], "src": [[codes]], "entry": [[codes]],
"n_sources": int}`` — object-sorted, mirroring the parent's pack
order so a worker-side sweep is bit-for-bit the parent-side one.
"""

from __future__ import annotations

import pickle
from bisect import bisect_left
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Callable, Mapping, Sequence

from repro.exec.base import ExecutorCapabilities, ShardExecutor
from repro.exec.tasks import resolve_task, task_is_stateful

__all__ = ["ResidentPoolExecutor", "ResidentWorkerLost"]

_PROTO = pickle.HIGHEST_PROTOCOL


class ResidentWorkerLost(RuntimeError):
    """A worker died and took resident shard state with it.

    ``shard_ids`` lists the shards whose state must be re-shipped
    (via ``resident.adopt``) before the failed batch is retried.
    """

    def __init__(self, shard_ids: Sequence[int]):
        self.shard_ids = tuple(shard_ids)
        super().__init__(
            f"resident worker lost shard state for {list(self.shard_ids)}"
        )


def _worker_main(conn) -> None:
    """Worker process loop: recv request, apply task, send response."""
    state: dict[int, Any] = {}
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            return
        request = pickle.loads(raw)
        if request is None:  # shutdown sentinel
            conn.close()
            return
        task, shard_id, delta = request
        try:
            fn, stateful = resolve_task(task)
            result = fn(state, shard_id, delta) if stateful else fn(delta)
            response = ("ok", result)
        except BaseException as exc:  # report, don't die
            response = ("err", f"{type(exc).__name__}: {exc}")
        try:
            conn.send_bytes(pickle.dumps(response, protocol=_PROTO))
        except (BrokenPipeError, OSError):
            return


@dataclass
class _Worker:
    process: Any
    conn: Any
    resident: set = field(default_factory=set)  # shard ids with state


class ResidentPoolExecutor(ShardExecutor):
    """Pipe-connected worker pool with worker-resident shard state."""

    capabilities = ExecutorCapabilities(
        resident_state=True, serialization="pickle"
    )

    _MAX_CRASH_RETRIES = 3

    #: Seconds each escalation step (terminate, then kill) waits for a
    #: worker to die before escalating further.
    _teardown_grace = 1.0

    def __init__(self, num_workers: int = 1):
        self.num_workers = max(1, int(num_workers))
        self._workers: list[_Worker | None] = [None] * self.num_workers
        self._bytes_shipped = 0
        self._closed = False
        #: Per-batch response deadline in seconds (``None`` = wait
        #: forever). A worker that has not answered within the budget is
        #: treated exactly like a dead one: reaped and respawned, its
        #: resident state reported lost. Set directly or via
        #: :class:`~repro.exec.supervisor.SupervisedExecutor`.
        self.task_deadline: float | None = None

    # -- introspection ---------------------------------------------------

    @property
    def bytes_shipped(self) -> int:
        return self._bytes_shipped

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_of(self, shard_id: int) -> int:
        """The fixed worker index a shard is pinned to."""
        return shard_id % self.num_workers

    def worker_pids(self) -> list[int]:
        """PIDs of the currently live workers (spawned lazily)."""
        return [
            w.process.pid for w in self._workers if w is not None
        ]

    def alive_workers(self) -> int:
        """How many spawned workers are actually alive right now."""
        return sum(
            1
            for w in self._workers
            if w is not None and w.process.is_alive()
        )

    # -- lifecycle -------------------------------------------------------

    def _spawn(self, index: int) -> _Worker:
        import multiprocessing as mp

        parent_conn, child_conn = mp.Pipe(duplex=True)
        process = mp.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        worker = _Worker(process=process, conn=parent_conn)
        self._workers[index] = worker
        return worker

    def _ensure(self, index: int) -> _Worker:
        worker = self._workers[index]
        if worker is None:
            worker = self._spawn(index)
        return worker

    def _reap(self, process) -> None:
        """Make sure one worker process is dead: terminate, then kill.

        ``join(timeout)`` alone can leave a live child behind on a slow
        exit (a zombie holding its pipe and memory for the rest of the
        parent's life), so each escalation step gets a bounded grace
        period and the last resort is SIGKILL — which cannot be caught,
        so the final join always completes.
        """
        grace = self._teardown_grace
        if process.is_alive():
            process.terminate()
            process.join(timeout=grace)
        if process.is_alive():
            process.kill()
            process.join(timeout=grace)

    def _mark_dead(self, index: int) -> set:
        """Discard a dead worker; return the shards whose state died."""
        worker = self._workers[index]
        if worker is None:
            return set()
        lost = set(worker.resident)
        try:
            worker.conn.close()
        except OSError:
            pass
        self._reap(worker.process)
        self._workers[index] = None
        return lost

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        sentinel = pickle.dumps(None, protocol=_PROTO)
        for index, worker in enumerate(self._workers):
            if worker is None:
                continue
            try:
                worker.conn.send_bytes(sentinel)
            except (BrokenPipeError, OSError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.process.join(timeout=self._teardown_grace)
            self._reap(worker.process)
            self._workers[index] = None

    def terminate(self) -> None:
        """Hard stop: kill every worker now, without the polite sentinel.

        Used by the supervisor's deadline watchdog and by tests; unlike
        :meth:`close` it never waits on a worker that is wedged in a
        task — it goes straight to the terminate→kill escalation.
        """
        self._closed = True
        for index, worker in enumerate(self._workers):
            if worker is None:
                continue
            try:
                worker.conn.close()
            except OSError:
                pass
            self._reap(worker.process)
            self._workers[index] = None

    # -- execution -------------------------------------------------------

    def submit(self, shard_id: int, task: str | Callable, delta: Any) -> Any:
        return self.run_shards(task, {shard_id: delta})[shard_id]

    def run(
        self, task: str | Callable, deltas: Sequence[Any]
    ) -> list[Any]:
        results = self.run_shards(task, dict(enumerate(deltas)))
        return [results[i] for i in range(len(deltas))]

    def run_shards(
        self, task: str | Callable, deltas: Mapping[int, Any]
    ) -> dict[int, Any]:
        if self._closed:
            raise RuntimeError("ResidentPoolExecutor is closed")
        results: dict[int, Any] = {}
        pending = dict(deltas)
        for _ in range(self._MAX_CRASH_RETRIES):
            failed, lost = self._run_once(task, pending, results)
            if lost:
                raise ResidentWorkerLost(sorted(lost))
            if not failed:
                return results
            pending = {shard_id: deltas[shard_id] for shard_id in failed}
        raise RuntimeError(
            f"resident workers kept crashing on task {task!r} "
            f"(shards {sorted(pending)})"
        )

    def _run_once(
        self,
        task: str | Callable,
        pending: Mapping[int, Any],
        results: dict[int, Any],
    ) -> tuple[list[int], set]:
        """One send/recv pass; returns (failed shard ids, lost shards)."""
        stateful = task_is_stateful(task)
        by_worker: dict[int, list[int]] = {}
        for shard_id in sorted(pending):
            by_worker.setdefault(self.worker_of(shard_id), []).append(
                shard_id
            )
        failed: list[int] = []
        lost: set = set()
        errors: list[str] = []
        sent: list[tuple[int, _Worker, list[int]]] = []
        # Send phase: pipeline every request so workers run concurrently.
        for index, shard_ids in sorted(by_worker.items()):
            worker = self._ensure(index)
            alive = True
            for shard_id in shard_ids:
                blob = pickle.dumps(
                    (task, shard_id, pending[shard_id]), protocol=_PROTO
                )
                try:
                    worker.conn.send_bytes(blob)
                except (BrokenPipeError, OSError):
                    alive = False
                    break
                self._bytes_shipped += len(blob)
                if stateful:
                    # Record at send time: if the worker dies before
                    # processing, over-reporting the loss is safe (the
                    # caller re-ships); under-reporting is not.
                    worker.resident.add(shard_id)
            if not alive:
                lost |= self._mark_dead(index)
                failed.extend(shard_ids)
                continue
            sent.append((index, worker, shard_ids))
        # Recv phase: always drain every surviving worker fully so no
        # stale response is left queued for the next batch. When a
        # deadline is set, each worker's batch gets one wall-clock
        # budget; a worker that blows it is indistinguishable from a
        # hung one, so it is reaped like a dead worker (its resident
        # state reported lost) instead of blocking the parent forever.
        for index, worker, shard_ids in sent:
            deadline = self.task_deadline
            budget_end = None if deadline is None else monotonic() + deadline
            received = 0
            for shard_id in shard_ids:
                if budget_end is not None:
                    remaining = budget_end - monotonic()
                    if remaining <= 0 or not worker.conn.poll(remaining):
                        lost |= self._mark_dead(index)
                        failed.extend(shard_ids[received:])
                        break
                try:
                    raw = worker.conn.recv_bytes()
                except (EOFError, OSError):
                    lost |= self._mark_dead(index)
                    failed.extend(shard_ids[received:])
                    break
                status, value = pickle.loads(raw)
                received += 1
                if status == "err":
                    errors.append(
                        f"shard {shard_id}: {value}"
                    )
                    continue
                results[shard_id] = value
        if errors and not lost:
            raise RuntimeError(
                f"resident task {task!r} failed: " + "; ".join(errors)
            )
        return failed, lost


# ---------------------------------------------------------------------------
# registry tasks (run worker-side; see repro.exec.tasks)
# ---------------------------------------------------------------------------


def adopt_shard(state: dict, shard_id: int, shard_state: dict) -> int:
    """Install (or replace) a shard's packed claim rows."""
    state[shard_id] = {
        "objs": list(shard_state["objs"]),
        "src": [list(row) for row in shard_state["src"]],
        "entry": [list(row) for row in shard_state["entry"]],
        "n_sources": shard_state["n_sources"],
    }
    return len(state[shard_id]["objs"])


def apply_delta(
    state: dict, shard_id: int, rows: Sequence[tuple]
) -> int:
    """Replace (or insert) per-object claim rows in a resident shard.

    ``rows`` is ``[(obj, src_codes, entry_codes), ...]``; an empty
    code list removes the object (fewer than two providers left).
    """
    shard = state.get(shard_id)
    if shard is None:
        raise RuntimeError(f"shard {shard_id} has no resident state")
    objs, src, entry = shard["objs"], shard["src"], shard["entry"]
    for obj, src_codes, entry_codes in rows:
        i = bisect_left(objs, obj)
        present = i < len(objs) and objs[i] == obj
        if not src_codes:
            if present:
                del objs[i], src[i], entry[i]
            continue
        if present:
            src[i] = list(src_codes)
            entry[i] = list(entry_codes)
        else:
            objs.insert(i, obj)
            src.insert(i, list(src_codes))
            entry.insert(i, list(entry_codes))
    return len(rows)


def sweep_resident(state: dict, shard_id: int, delta: Any):
    """Sweep a resident shard into a :class:`RecordBlock`.

    Flattens the resident rows into the same object-major layout the
    parent's cold pack produces, so the result is bit-for-bit the cold
    sweep of the same shard.
    """
    import numpy as np

    from repro.dependence.sharding import ShardPayload, sweep_shard

    shard = state.get(shard_id)
    if shard is None:
        raise RuntimeError(f"shard {shard_id} has no resident state")
    lengths = np.asarray(
        [len(row) for row in shard["src"]], dtype=np.int64
    )
    src = np.asarray(
        [code for row in shard["src"] for code in row], dtype=np.int64
    )
    entry = np.asarray(
        [code for row in shard["entry"] for code in row], dtype=np.int64
    )
    payload = ShardPayload(
        shard_id=shard_id,
        src=src,
        entry=entry,
        lengths=lengths,
        n_sources=shard["n_sources"],
    )
    return sweep_shard(payload)
