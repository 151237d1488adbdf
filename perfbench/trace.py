"""Span recorder for the traced run, installed from outside the program.

:func:`install` replaces public entry points of each layer — on their
classes or modules — with wrappers that record one span per call:
name, start and end (``perf_counter_ns``), parent span and group (a
closed-loop cycle, or one background refresh). Spans stay in memory, in
per-thread ``array`` columns, until :meth:`Recorder.dump` writes them
when the run ends. :meth:`Recorder.uninstall` puts every original back.

A layer's *self time* is the time of its spans minus the time of their
direct children, so nested layers (a ``refresh`` inside ``Depen``'s
loop, an executor call inside a ``sync``) are not counted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

#: A root span of this name opens a new group when the calling thread has
#: not set one: each background refresh is its own group.
_GROUP_ROOT = "session.publish"
#: First group number handed out automatically.
AUTO_GROUP = 1_000_000


class _Buffer:
    __slots__ = ("name", "start", "end", "parent", "group", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.group = array("i")
        self.stack: list[int] = []


class Recorder:
    """In-memory spans plus named counters; off until ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._groups = itertools.count(AUTO_GROUP)
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            self._local.group = -1
            with self._lock:
                self._buffers.append(buf)
        return buf

    def name_id(self, name: str) -> int:
        code = self._name_id.get(name)
        if code is None:
            with self._lock:
                code = self._name_id.setdefault(name, len(self.names))
                if code == len(self.names):
                    self.names.append(name)
        return code

    @property
    def paused(self) -> bool:
        """Whether the calling thread is inside :meth:`pause`."""
        return getattr(self._local, "paused", False)

    @contextmanager
    def pause(self):
        """Record nothing from the calling thread (other threads go on)."""
        was = self.paused
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = was

    def set_group(self, group: int) -> None:
        """Stamp the calling thread's next root spans with ``group``."""
        self._buffer()
        self._local.group = group

    def begin(self, code: int, skip_under: frozenset = frozenset()) -> int:
        buf = self._buffer()
        stack = buf.stack
        parent = stack[-1] if stack else -1
        if parent >= 0 and buf.name[parent] in skip_under:
            return -1
        if parent >= 0:
            group = buf.group[parent]
        else:
            group = self._local.group
            if group < 0 and self.names[code] == _GROUP_ROOT:
                group = next(self._groups)
        index = len(buf.start)
        buf.name.append(code)
        buf.parent.append(parent)
        buf.group.append(group)
        buf.end.append(0)
        stack.append(index)
        buf.start.append(time.perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        if index < 0:
            return
        end = time.perf_counter_ns()
        buf = self._local.buf
        buf.end[index] = end
        buf.stack.pop()

    # -- reading ----------------------------------------------------------

    def spans(self):
        """Every span as ``(name, start, end, parent, group, self_ns)``.

        ``parent`` indexes the same list. Spans still open (none, once a
        run has ended) are skipped.
        """
        out = []
        for buf in self._buffers:
            base = len(out)
            child_ns = [0] * len(buf.start)
            for i in range(len(buf.start)):
                p = buf.parent[i]
                if p >= 0 and buf.end[i]:
                    child_ns[p] += buf.end[i] - buf.start[i]
            for i in range(len(buf.start)):
                if not buf.end[i]:
                    continue
                p = buf.parent[i]
                out.append(
                    (
                        self.names[buf.name[i]],
                        buf.start[i],
                        buf.end[i],
                        base + p if p >= 0 else -1,
                        buf.group[i],
                        buf.end[i] - buf.start[i] - child_ns[i],
                    )
                )
        return out

    @staticmethod
    def dump(path: Path, spans) -> None:
        """Write spans (as :meth:`spans` returns them) one per TSV line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tgroup\tself_ns\n")
            fh.writelines(
                "\t".join(map(str, span)) + "\n" for span in spans
            )

    # -- installation -----------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, skip_under=(), on_result=None):
        """Replace ``owner.attr`` with a recording wrapper."""
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        code = self.name_id(name)
        skip = frozenset(self.name_id(n) for n in skip_under)
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not recorder.enabled or recorder.paused:
                return fn(*args, **kwargs)
            index = recorder.begin(code, skip)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.finish(index)
            if on_result is not None:
                on_result(recorder.counters, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def paused(recorder: Recorder | None):
    """``recorder.pause()``, or nothing to pause when untraced."""
    return nullcontext() if recorder is None else recorder.pause()


def _count_apply(counters, args, kwargs, delta) -> None:
    counters["core.apply.mutations"] += (
        delta.added + delta.retracted + delta.corrected
    )
    counters["core.apply.dirty_objects"] += len(delta.dirty_objects)


def _count_posterior(counters, args, kwargs, result) -> None:
    counters["dependence.posterior.pairs_scored"] += len(result[0])


def _count_truth(counters, args, kwargs, result) -> None:
    counters["truth.runs"] += 1
    counters["truth.rounds"] += result.rounds
    counters["truth.converged"] += bool(result.converged)
    for step in result.trace:
        if step.pairs_rescored is not None:
            counters["truth.rescored"] += step.pairs_rescored
            counters["truth.reused"] += step.pairs_reused or 0


def install(recorder: Recorder) -> Recorder:
    """Wrap each layer's public entry points (see the module docstring)."""
    from repro import session as session_mod
    from repro.core.dataset import ClaimDataset
    from repro.dependence.bayes_batch import BatchedPosteriorEngine
    from repro.dependence.evidence import EvidenceCache
    from repro.exec.pool import PoolExecutor
    from repro.exec.resident import ResidentPoolExecutor
    from repro.exec.supervisor import SupervisedExecutor
    from repro.recommend import scoring
    from repro.serve import engine as engine_mod
    from repro.serve.snapshot import Snapshot
    from repro.serve.store import SnapshotStore
    from repro.truth.columnar import TruthRoundEngine, ValueProbTable
    from repro.truth.depen import Depen

    wrap = recorder.wrap
    wrap(session_mod.Session, "apply", "session.apply")
    wrap(session_mod.Session, "publish", "session.publish")
    wrap(ClaimDataset, "apply", "core.apply", on_result=_count_apply)
    wrap(EvidenceCache, "build", "dependence.build")
    wrap(EvidenceCache, "sync", "dependence.sync")
    wrap(EvidenceCache, "refresh", "dependence.refresh")
    wrap(
        BatchedPosteriorEngine,
        "posterior_arrays",
        "dependence.posterior",
        on_result=_count_posterior,
    )
    for executor in (SupervisedExecutor, ResidentPoolExecutor, PoolExecutor):
        for attr in ("run", "run_shards"):
            if attr in executor.__dict__:
                wrap(executor, attr, "exec.run")
    wrap(Depen, "discover", "truth.run", on_result=_count_truth)
    # The snapshot rebuilds a ValueProbTable to freeze it; that time is
    # the snapshot's, not truth set-up.
    wrap(ValueProbTable, "__init__", "truth.setup", skip_under=("serve.snapshot",))
    wrap(TruthRoundEngine, "__init__", "truth.setup")
    wrap(TruthRoundEngine, "depen_counts", "truth.vote")
    wrap(TruthRoundEngine, "decide_and_distributions", "truth.decide")
    wrap(TruthRoundEngine, "soft_accuracies", "truth.accuracy")
    wrap(Snapshot, "from_result", "serve.snapshot")
    wrap(SnapshotStore, "publish", "serve.store.publish")
    wrap(Snapshot, "answer", "serve.query")
    wrap(Snapshot, "explain_dependence", "serve.explain")
    # Session.recommend imports from the scoring module at call time;
    # the serving engine bound both names at import.
    for module in (scoring, engine_mod):
        wrap(module, "recommend_from_snapshot", "recommend")
        wrap(module, "snapshot_scorecards", "recommend.scorecards")
    return recorder


def group_self_ns(spans, groups) -> dict[str, list[int]]:
    """Per span name, its self time summed within each of ``groups``.

    Returns ``name -> [ns for each group, in order]`` (0 where a group
    has no such span).
    """
    position = {g: i for i, g in enumerate(groups)}
    totals: dict[str, list[int]] = defaultdict(lambda: [0] * len(groups))
    for name, _start, _end, _parent, group, self_ns in spans:
        i = position.get(group)
        if i is not None:
            totals[name][i] += self_ns
    return totals


def root_ns(spans, groups) -> list[int]:
    """Total time of the root spans of each group (the traced write path)."""
    position = {g: i for i, g in enumerate(groups)}
    out = [0] * len(groups)
    for _name, start, end, parent, group, _self in spans:
        i = position.get(group)
        if i is not None and parent < 0:
            out[i] += end - start
    return out
