"""Stateless process-pool executor.

:class:`PoolExecutor` runs stateless shard tasks for the ``process``
backend:

- a batch of one (or zero) payloads runs in-process — the pool spin-up
  would dominate, and results are identical either way;
- ``persistent`` pools are created lazily and survive across ``run``
  calls until :meth:`close`; a broken pool is shut down before the
  error propagates so no dead workers linger;
- ephemeral pools (the default) are sized ``min(num_workers, len)``
  and torn down per call.

Workers are anonymous — there is no shard→worker pinning and no
resident state, so only stateless tasks are accepted.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.exec.base import (
    ExecutorCapabilities,
    ShardExecutor,
    discard_broken_pool,
)
from repro.exec.tasks import resolve_task, task_is_stateful

__all__ = ["PoolExecutor"]

#: Bound on :meth:`PoolExecutor.terminate`'s wait for the pool's manager
#: thread to reap the killed workers.
_REAP_TIMEOUT_S = 2.0


def _invoke(item: tuple[str | Callable, Any]) -> Any:
    """Pool-side trampoline: resolve the task name and apply it."""
    task, delta = item
    fn, _ = resolve_task(task)
    return fn(delta)


class PoolExecutor(ShardExecutor):
    """ProcessPoolExecutor-backed stateless executor."""

    capabilities = ExecutorCapabilities(
        resident_state=False, serialization="pickle"
    )

    def __init__(self, num_workers: int = 1, *, persistent: bool = False):
        self.num_workers = int(num_workers)
        self.persistent = bool(persistent)
        self._pool: ProcessPoolExecutor | None = None
        # The pool a run() is currently blocked on (persistent or
        # ephemeral) — what terminate() must reach from another thread
        # when a deadline watchdog decides the batch is wedged.
        self._active: ProcessPoolExecutor | None = None

    def submit(self, shard_id: int, task: str | Callable, delta: Any) -> Any:
        return self.run(task, [delta])[0]

    def run(
        self, task: str | Callable, deltas: Sequence[Any]
    ) -> list[Any]:
        if task_is_stateful(task):
            raise RuntimeError(
                f"task {task!r} needs resident state; PoolExecutor "
                "workers are anonymous (use ResidentPoolExecutor)"
            )
        deltas = list(deltas)
        if len(deltas) <= 1:
            fn, _ = resolve_task(task)
            return [fn(delta) for delta in deltas]
        items = [(task, delta) for delta in deltas]
        if self.persistent:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.num_workers
                )
            self._active = self._pool
            try:
                return list(self._pool.map(_invoke, items))
            except BrokenProcessPool:
                discard_broken_pool("process", self.close)
                raise
            finally:
                self._active = None
        workers = min(self.num_workers, len(items))
        pool = ProcessPoolExecutor(max_workers=workers)
        self._active = pool
        try:
            return list(pool.map(_invoke, items))
        finally:
            self._active = None
            pool.shutdown()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def terminate(self) -> None:
        """Hard stop: kill the live pool's workers without waiting on them.

        ``shutdown()`` joins workers, so a hung worker would hang the
        teardown too; the deadline watchdog needs a stop that cannot
        block. The only wait is a bounded one for the pool's manager
        thread to reap the killed workers. Killing the processes breaks the pool, which unblocks
        any ``run()`` currently waiting on it (it raises
        ``BrokenProcessPool`` — a retryable failure to the supervisor).
        """
        pool = self._active or self._pool
        self._pool = None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        # The pool's manager thread reaps the killed workers. Wait for
        # it (bounded) so no one else waits on a worker's pid at the
        # same time: the loser of that race finds the pid gone and its
        # Process.is_alive() reports a dead worker alive. shutdown()
        # forgets the thread, so take it first.
        manager = getattr(pool, "_executor_manager_thread", None)
        pool.shutdown(wait=False, cancel_futures=True)
        if manager is not None:
            manager.join(_REAP_TIMEOUT_S)

    @property
    def closed(self) -> bool:
        return self._pool is None
