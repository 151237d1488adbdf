"""The three benchmark workloads over the real ``repro.Session`` lifecycle.

``dense-rounds`` and ``sparse-churn`` are closed loops with one client:
each cycle applies one mixed mutation batch, publishes, then reads a
200-read burst paced at the reference rate and a run of reads issued
back to back. ``serve-reads`` runs the
``ServingEngine`` background refresh loop while an open-loop producer
feeds a small batch every 50 ms and open-loop readers step through a
fixed rate ladder. Every run ends with correctness checks and scores the
last published round against the generator's planted truth.

In the closed loops, read latency is timed with the span wrappers
paused, so the traced run's read figures are the program's alone; a few
unpaced probe reads per cycle give the read layers' self time.
"""

from __future__ import annotations

import asyncio
import gc
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field

import repro
from repro.recommend.scoring import recommend_from_snapshot
from repro.serve.engine import ServingEngine
from repro.serve.snapshot import ARRAY_FIELDS, Snapshot
from repro.truth.depen import Depen

from perfbench import trace as tracing
from perfbench import worlds

#: Every workload builds its world from this seed; ``--seed`` drives the
#: mutation batches and the reads. Different worlds converge in very
#: different numbers of DEPEN rounds, which would swamp the program's
#: own run-to-run spread.
WORLD_SEED = 0
#: Shares of ``query`` and ``explain_dependence`` reads; the rest are
#: ``recommend(k=5)``. serve-reads uses the serving mix; the closed loops'
#: paced bursts only query and explain, and a workload's ``recommends``
#: are issued after the burst: ``Session.recommend`` rebuilds every
#: source's scorecard per call (~0.1 s on sparse-churn), which would turn
#: a paced burst into one recommend's backlog.
SERVE_MIX = (0.90, 0.09)
CLOSED_MIX = (0.90, 0.10)
#: serve-reads: open-loop read rates (reads/s).
LADDER = (1_000, 5_000, 20_000, 50_000)
#: The rate ``read_p50_us`` / ``read_p99_us`` (and serve-reads'
#: freshness) are reported at.
REFERENCE_RATE = 5_000
#: serve-reads: share of the run each rung lasts. The reference rung is
#: long because its read tail is set by a few interpreter pauses per
#: second (see PROFILE.md); a short window samples too few of them.
RUNG_SHARE = {1_000: 0.1, 5_000: 0.7, 20_000: 0.1, 50_000: 0.1}
#: A rung passes when its p99 read latency stays within this.
P99_LIMIT_S = 0.020
#: Cold set-ups per run, ``setup_s`` being their median: at least
#: ``SETUPS``, and more while they take under ``SETUP_BUDGET_S`` in all
#: (a short set-up needs more samples to give a steady median).
SETUPS = 5
MAX_SETUPS = 15
SETUP_BUDGET_S = 6.0
#: Reads per closed-loop cycle, paced at the reference rate.
BURST = 200
#: Traced runs only: unpaced reads per cycle that the span wrappers time.
PROBE_READS = 20
#: Closed loops: after each cycle's paced burst, reads are issued back to
#: back for this share of the cycle's freshness time; ``read_max_qps`` is
#: their rate over the run (see :func:`_saturated_reads`). They cycle
#: through ``SATURATED_PLAN`` reads drawn per cycle, and the first
#: ``SATURATED_AUDIT`` of them are audited.
SATURATED_SHARE = 0.1
SATURATED_PLAN = 20_000
SATURATED_AUDIT = 2_000
#: serve-reads: producer period and mutations per fed batch.
FEED_PERIOD_S = 0.05
FEED_SIZE = 6
#: Snapshot versions the store keeps. A closed loop reads only the
#: version it just published; serve-reads keeps the store's default.
CLOSED_RETENTION = 2
SERVE_RETENTION = 8
SETUP_GROUP = 900_000
AUTO_GROUP = tracing.AUTO_GROUP


@dataclass(frozen=True)
class Workload:
    name: str
    spec: worlds.WorldSpec
    policy: dict = field(default_factory=dict)
    min_overlap: int = 1
    retention: int = CLOSED_RETENTION
    #: Closed loops: ``recommend(k=5)`` calls per cycle, after the burst.
    recommends: int = 0
    #: Closed loops: untimed cycles before the timed ones (an even
    #: number, so the timed cycles start from the generated world).
    warmup: int = 0

    def session(self, claims) -> repro.Session:
        return repro.Session(
            claims=claims,
            retention=self.retention,
            min_overlap=self.min_overlap,
            **self.policy,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # The first ~10 cycles after a cold build run ~20% slower, until
        # the evidence store's first compaction (after cycle 8-10 with
        # these batches; see PROFILE.md). Timing them would tie the
        # median to how many cycles a run fits.
        Workload("dense-rounds", worlds.DENSE, warmup=12),
        Workload(
            "sparse-churn",
            worlds.SPARSE,
            {"parallel_backend": "resident", "num_workers": 2},
            recommends=1,
        ),
        Workload(
            "serve-reads",
            worlds.SERVE,
            min_overlap=5,
            retention=SERVE_RETENTION,
        ),
    )
}


class Ops:
    """Attempted/failed operation counts plus named check outcomes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: list[tuple[str, bool, str]] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted, reported, and fails the run
            self.fail(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(f"check {name} failed: {detail}")
        self.checks.append((name, ok, detail))

    @property
    def correct(self) -> bool:
        return self.failed == 0


@dataclass
class Result:
    """One workload run: metrics by name as ``(value, unit)``."""

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    ops: Ops = field(default_factory=Ops)
    spans: list = field(default_factory=list)


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``. Under twenty samples no percentile
    above the median has ten beyond it; the maximum is reported then,
    as percentile 100.
    """
    n = len(samples)
    if n < 20:
        return max(samples), 100.0
    q = 1.0 - 10.0 / n
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, 100.0 * q


def p99(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def _vm_hwm_kb(pid: int | str = "self") -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(session) -> float:
    """Peak RSS of this process plus the session's executor workers."""
    kb = _vm_hwm_kb()
    if kb == 0:
        import resource

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    executor = session.engine.cache.executor
    pids = getattr(executor, "worker_pids", None)
    if pids is not None:
        kb += sum(_vm_hwm_kb(pid) for pid in pids())
    return kb / 1024.0


def quality(snapshot, world: worlds.World) -> tuple[float, float]:
    """``(decision_accuracy, copier_f1)`` of one snapshot."""
    decisions = snapshot.decisions()
    right = sum(1 for obj, v in decisions.items() if world.truth[obj] == v)
    accuracy = right / len(decisions)
    sources = snapshot.sources
    flagged = {
        tuple(sorted((sources[i], sources[j])))
        for i, j, p in zip(
            snapshot.pair_s1.tolist(),
            snapshot.pair_s2.tolist(),
            snapshot.p_dependent.tolist(),
        )
        if p >= 0.5
    }
    hits = len(flagged & world.edges)
    precision = hits / len(flagged) if flagged else 0.0
    recall = hits / len(world.edges) if world.edges else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return accuracy, f1


def _read_plan(rng: random.Random, snapshot, mix: tuple[float, float]):
    """One read as ``(kind, target)``: query an object, explain a source,
    or recommend five sources."""
    draw = rng.random()
    if draw < mix[0]:
        return "query", snapshot.objects[rng.randrange(len(snapshot.objects))]
    if draw < mix[0] + mix[1]:
        return "explain", snapshot.sources[rng.randrange(len(snapshot.sources))]
    return "recommend", 5


def _setups(workload: Workload, world: worlds.World, recorder, ops: Ops):
    """Cold set-ups; returns the durations and the last (kept) session."""
    durations = []
    session = None
    k = 0
    while k < SETUPS or (sum(durations) < SETUP_BUDGET_S and k < MAX_SETUPS):
        if session is not None:
            # Released before the next set-up, which would otherwise
            # build (and collect) around the closed session's heap.
            session.close()
            session = None
        gc.collect()
        if recorder is not None:
            recorder.set_group(SETUP_GROUP + k)
        started = time.perf_counter()
        session = workload.session(world.claims)
        ops.call(session.publish)
        durations.append(time.perf_counter() - started)
        k += 1
    if recorder is not None:
        recorder.set_group(-1)
    return durations, session


def _cold_check(session, snapshot, ops: Ops) -> None:
    """Published round == cold DEPEN on the same dataset, bit for bit."""
    cold = ops.call(
        Depen(session.params, session.iteration, min_overlap=session.min_overlap)
        .discover,
        session.dataset,
    )
    if cold is None:
        return
    mismatched = sum(
        1
        for obj in snapshot.objects
        if snapshot.distribution(obj) != cold.distributions[obj]
    )
    ops.check(
        "cold_depen_bitwise",
        mismatched == 0 and snapshot.decisions() == cold.decisions,
        f"{mismatched} of {len(snapshot.objects)} distributions differ",
    )


def _relisted_check(workload: Workload, session, snapshot, ops: Ops) -> None:
    """A session rebuilt from a re-listed claim order decides the same."""
    relisted = sorted(session.dataset, key=lambda c: (c.object, c.source))
    with workload.session(relisted) as rebuilt:
        other = ops.call(rebuilt.publish)
        if other is not None:
            ops.check(
                "relisted_decisions",
                other.decisions() == snapshot.decisions(),
                "decisions differ from a session rebuilt in object order",
            )


_KINDS = ("query", "explain", "recommend")


def _digest(kind: int, answer) -> int:
    """A hash of one served answer (compared within this process only)."""
    if kind == 0:
        return hash(answer)
    if kind == 1:
        return hash(tuple(tuple(entry.values()) for entry in answer))
    return hash(tuple(answer))


class Auditor:
    """Checks served answers against the snapshot of their stamped version.

    Reads are logged compactly (kind, target, version and a hash of the
    answer, in ``array`` columns) so the log neither costs the readers
    time nor grows the heap that every garbage-collector pause walks.
    For each version seen, the snapshot's frozen arrays are kept; the
    audit rebuilds the snapshot from them through the public
    ``Snapshot`` constructor and recomputes every logged answer.
    """

    def __init__(self, session, recorder) -> None:
        self.store = session.store
        self.recorder = recorder
        self.kind = array("b")
        self.version = array("q")
        self.digest = array("q")
        self.target: list = []
        self.frozen: dict = {}
        self.torn = 0
        self.checked = 0

    def record(self, kind: str, target, version: int, answer) -> None:
        if version not in self.frozen:
            snapshot = self.store.get(version)
            self.frozen[version] = {
                "objects": snapshot.objects,
                "sources": snapshot.sources,
                "slot_values": snapshot.slot_values,
                "arrays": {
                    name: getattr(snapshot, name) for name in ARRAY_FIELDS
                },
                "dataset_version": snapshot.dataset_version,
                "round_id": snapshot.round_id,
                "version": version,
            }
        code = _KINDS.index(kind)
        self.kind.append(code)
        self.target.append(target)
        self.version.append(version)
        self.digest.append(_digest(code, answer))

    def audit(self) -> None:
        """Recompute every logged answer; clears the log."""
        with tracing.paused(self.recorder):
            rebuilt = {
                version: Snapshot(**parts)
                for version, parts in self.frozen.items()
            }
            for code, target, version, digest in zip(
                self.kind, self.target, self.version, self.digest
            ):
                snapshot = rebuilt[version]
                if code == 0:
                    expected = snapshot.answer(target)
                elif code == 1:
                    expected = snapshot.explain_dependence(target)
                else:
                    expected = recommend_from_snapshot(snapshot, target)
                if _digest(code, expected) != digest:
                    self.torn += 1
        self.checked += len(self.kind)
        del self.kind[:], self.version[:], self.digest[:], self.target[:]
        self.frozen.clear()

    def report(self, ops: Ops) -> int:
        ops.check(
            "torn_reads", self.torn == 0, f"{self.torn} torn of {self.checked}"
        )
        return self.torn


def _saturated_reads(
    session, snapshot, rng, seconds: float, ops: Ops, auditor
) -> tuple[int, float]:
    """``(reads, elapsed)`` of reads issued back to back for ``seconds``.

    One client issuing reads back to back holds every rate up to this one
    without a growing backlog, and none above it: the limit of the rate
    ladder as its rungs close up. The reads are drawn beforehand (a fixed
    number, so the draws do not depend on timing) and start from a
    collected heap, so a collection the publish's garbage made due does
    not land in one cycle's window and not another's. Run with the span
    wrappers paused.
    """
    plan = [_read_plan(rng, snapshot, CLOSED_MIX) for _ in range(SATURATED_PLAN)]
    version = snapshot.version
    audited = []
    gc.collect()
    started = time.perf_counter()
    stop = started + seconds
    reads = 0
    while True:
        kind, target = plan[reads % SATURATED_PLAN]
        answer = _read_sync(session, kind, target, version, ops)
        if reads < SATURATED_AUDIT:
            audited.append(answer)
        reads += 1
        now = time.perf_counter()
        if now >= stop:
            break
    for (kind, target), answer in zip(plan, audited):
        if answer is not None:
            auditor.record(kind, target, version, answer)
    return reads, now - started


def _read_sync(session, kind, target, version, ops: Ops):
    if kind == "query":
        return ops.call(session.query, target)
    if kind == "explain":
        return ops.call(session.explain_dependence, target, version=version)
    return ops.call(session.recommend, target, version=version)


def _max_qps(rungs: dict) -> float:
    """Achieved rate of the highest rung whose p99 and backlog held."""
    best = 0.0
    for rate in LADDER:
        rung_p99, achieved, dropped = rungs[rate]
        if rung_p99 <= P99_LIMIT_S and dropped == 0:
            best = achieved
    return best


# ----------------------------------------------------------------------
# closed loops: dense-rounds, sparse-churn
# ----------------------------------------------------------------------


def closed_loop(
    workload: Workload, seed: int, seconds: float, recorder
) -> Result:
    result = Result()
    ops = result.ops
    world = worlds.generate(workload.spec, WORLD_SEED)
    result.notes["world_fingerprint"] = world.fingerprint()[:16]
    durations, session = _setups(workload, world, recorder, ops)
    cache = session.engine.cache
    result.notes["candidate_pairs"] = len(cache)
    build_bytes = cache.last_build_shipped_bytes
    stream = worlds.MutationStream(world, f"mutations:{seed}")
    batch_size = max(3, round(0.005 * len(world.claims)))
    rng = random.Random(f"reads:{seed}")
    probe_rng = random.Random(f"probes:{seed}")
    mix = CLOSED_MIX
    freshness, latencies, late, saturated = [], [], [], []
    auditor = Auditor(session, recorder)
    rounds, rescored, reused, sync_bytes = [], 0, 0, []
    with tracing.paused(recorder):
        for _ in range(workload.warmup):
            ops.call(session.apply, stream.next_batch(batch_size))
            ops.call(session.publish)
    if recorder is not None:
        recorder.counters.clear()
    deadline = time.perf_counter() + seconds
    cycle = 0
    # An even cycle count ends on an undo batch, back at the generated
    # world, so the quality scores do not depend on how many cycles fit.
    while cycle < 2 or cycle % 2 or time.perf_counter() < deadline:
        batch = stream.next_batch(batch_size)
        # Each cycle starts from a collected heap, so a full collection
        # that earlier cycles' garbage made due does not land at random
        # in one cycle (see PROFILE.md); the cycle's own collections are
        # timed.
        gc.collect()
        if recorder is not None:
            recorder.set_group(cycle)
        started = time.perf_counter()
        delta = ops.call(session.apply, batch)
        snapshot = ops.call(session.publish)
        done = time.perf_counter()
        if recorder is not None:
            recorder.set_group(-1)
        freshness.append(done - started)
        if delta is None or snapshot is None:
            break
        ops.check(
            "publish_reflects_batch",
            snapshot.dataset_version == session.dataset.version == delta.version,
            f"snapshot v{snapshot.dataset_version} vs dataset v{delta.version}",
        )
        sync_bytes.append(cache.last_sync_shipped_bytes)
        truth_stats = session.stats()["truth"]
        rounds.append(truth_stats["rounds"])
        rescored += truth_stats["pairs_rescored"]
        reused += truth_stats["pairs_reused"]
        with tracing.paused(recorder):
            burst_start = time.perf_counter()
            for i in range(BURST):
                due = burst_start + i / REFERENCE_RATE
                while time.perf_counter() < due:
                    pass
                issued = time.perf_counter()
                kind, target = _read_plan(rng, snapshot, mix)
                answer = _read_sync(session, kind, target, snapshot.version, ops)
                finished = time.perf_counter()
                latencies.append(finished - due)
                late.append(issued - due)
                if answer is not None:
                    auditor.record(kind, target, snapshot.version, answer)
            saturated.append(
                _saturated_reads(
                    session, snapshot, rng, SATURATED_SHARE * freshness[-1],
                    ops, auditor,
                )
            )
        unpaced = [("recommend", 5)] * workload.recommends
        if recorder is not None:
            unpaced += [
                _read_plan(probe_rng, snapshot, mix) for _ in range(PROBE_READS)
            ]
        for kind, target in unpaced:
            answer = _read_sync(session, kind, target, snapshot.version, ops)
            if answer is not None:
                auditor.record(kind, target, snapshot.version, answer)
        auditor.audit()
        cycle += 1
    rss = peak_rss_mb(session)
    if recorder is not None:
        recorder.enabled = False
    health = session.execution_health()
    torn = auditor.report(ops)
    _cold_check(session, snapshot, ops)
    session.close()
    _relisted_check(workload, session, snapshot, ops)
    accuracy, f1 = quality(snapshot, world)

    fresh_tail, pct = tail(freshness)
    result.metrics = {
        "setup_s": (statistics.median(durations), "s"),
        "freshness_p50_ms": (statistics.median(freshness) * 1e3, "ms"),
        "freshness_tail_ms": (fresh_tail * 1e3, "ms"),
        "read_p50_us": (statistics.median(latencies) * 1e6, "us"),
        "read_p99_us": (p99(latencies) * 1e6, "us"),
        "read_max_qps": (
            sum(n for n, _ in saturated) / sum(t for _, t in saturated), "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "decision_accuracy": (accuracy, "ratio"),
        "copier_f1": (f1, "ratio"),
    }
    result.notes.update(
        {
            "warmup_cycles": workload.warmup,
            "torn_reads": torn,
            "freshness_tail_percentile": round(pct, 1),
            "freshness_samples": len(freshness),
            "read_samples": len(latencies),
            "cycles": cycle,
            "freshness_per_cycle_ms": [round(f * 1e3) for f in freshness],
            "read_rate_per_cycle": [round(n / t) for n, t in saturated],
            "truth_rounds": rounds[:8],
            "setup_samples_s": [round(d, 4) for d in durations],
        }
    )
    if recorder is not None:
        result.spans = recorder.spans()
        groups = list(range(cycle))
        result.layers = _layers(
            recorder,
            groups,
            freshness,
            setups=durations,
            candidate_pairs=len(cache),
            build_bytes=build_bytes,
            sync_bytes=sync_bytes,
            health=health,
            rounds=rounds,
            rescored=rescored,
            reused=reused,
            late=late,
            versions=cycle,
            spans=result.spans,
        )
    return result


# ----------------------------------------------------------------------
# serve-reads: ServingEngine under open-loop reads and feeds
# ----------------------------------------------------------------------


def serve_reads(
    workload: Workload, seed: int, seconds: float, recorder
) -> Result:
    result = Result()
    ops = result.ops
    world = worlds.generate(workload.spec, WORLD_SEED)
    result.notes["world_fingerprint"] = world.fingerprint()[:16]
    durations, session = _setups(workload, world, recorder, ops)
    cache = session.engine.cache
    stream = worlds.MutationStream(world, f"mutations:{seed}")
    rng = random.Random(f"reads:{seed}")
    publications: list[tuple[float, int]] = []

    def timed_refresh():
        snapshot = session.refresh()
        if snapshot is not None:
            publications.append((time.perf_counter(), snapshot.dataset_version))
        return snapshot

    engine = ServingEngine(session.store, timed_refresh, refresh_interval=0.01)
    published_before = session.store.stats()["published"]
    if recorder is not None:
        recorder.counters.clear()
    auditor = Auditor(session, recorder)
    state = asyncio.run(
        _serve(session, engine, stream, rng, ops, auditor, seconds)
    )
    feeds, rungs = state["feeds"], state["rungs"]
    # Freshness is measured on the batches fed while readers ran at the
    # reference rate; the overloaded rungs are read_max_qps's business.
    ref_start, ref_end = state["windows"][REFERENCE_RATE]
    versions = session.store.stats()["published"] - published_before
    rss = peak_rss_mb(session)
    if recorder is not None:
        recorder.enabled = False
    freshness = []
    for fed_at, target in feeds:
        if not ref_start <= fed_at < ref_end:
            continue
        landed = next((t for t, v in publications if v >= target), None)
        if landed is None:
            ops.check("feed_published", False, f"batch to v{target} never published")
            continue
        freshness.append(landed - fed_at)
    snapshot = session.store.latest
    ops.check(
        "no_quarantine",
        session.quarantined_total == 0,
        f"{session.quarantined_total} fed batches quarantined",
    )
    ops.check(
        "caught_up",
        snapshot.dataset_version == session.dataset.version == state["target"],
        f"snapshot v{snapshot.dataset_version}, dataset "
        f"v{session.dataset.version}, expected v{state['target']}",
    )
    auditor.audit()
    torn = auditor.report(ops)
    _cold_check(session, snapshot, ops)
    session.close()
    accuracy, f1 = quality(snapshot, world)
    reference = rungs[REFERENCE_RATE]
    fresh_tail, pct = tail(freshness)
    result.metrics = {
        "setup_s": (statistics.median(durations), "s"),
        "freshness_p50_ms": (statistics.median(freshness) * 1e3, "ms"),
        "freshness_tail_ms": (fresh_tail * 1e3, "ms"),
        "read_p50_us": (statistics.median(reference["latency"]) * 1e6, "us"),
        "read_p99_us": (p99(reference["latency"]) * 1e6, "us"),
        "read_max_qps": (
            _max_qps(
                {
                    rate: (p99(r["latency"]), r["achieved"], r["dropped"])
                    for rate, r in rungs.items()
                }
            ),
            "1/s",
        ),
        "peak_rss_mb": (rss, "MB"),
        "decision_accuracy": (accuracy, "ratio"),
        "copier_f1": (f1, "ratio"),
    }
    result.notes.update(
        {
            "torn_reads": torn,
            "freshness_tail_percentile": round(pct, 1),
            "freshness_samples": len(freshness),
            "versions_published": versions,
            "rungs": {
                rate: {
                    "p99_us": round(p99(r["latency"]) * 1e6, 1),
                    "achieved": round(r["achieved"], 1),
                    "dropped": r["dropped"],
                }
                for rate, r in rungs.items()
            },
            "setup_samples_s": [round(d, 4) for d in durations],
        }
    )
    if recorder is not None:
        spans = result.spans = recorder.spans()
        # Background refreshes open their own groups (see trace.py).
        groups = sorted(
            {g for name, _s, _e, parent, g, _n in spans
             if name == "session.publish" and parent < 0 and g >= AUTO_GROUP}
        )
        late = reference["late"]
        publish_starts = sorted(
            s / 1e9 for name, s, _e, parent, _g, _n in spans
            if name == "session.publish" and parent < 0
        )
        waits = []
        for fed_at, _target in feeds:
            start = next((s for s in publish_starts if s >= fed_at), None)
            if start is not None:
                waits.append(start - fed_at)
        result.layers = _layers(
            recorder,
            groups,
            None,
            setups=durations,
            candidate_pairs=len(cache),
            build_bytes=cache.last_build_shipped_bytes,
            sync_bytes=[cache.last_sync_shipped_bytes],
            health=session.execution_health(),
            rounds=None,
            rescored=None,
            reused=None,
            late=late,
            versions=versions,
            spans=spans,
            feed_waits=waits,
        )
    return result


async def _published(session, version: int, timeout: float = 10.0) -> None:
    """Wait until the store serves ``version`` (or ``timeout`` passes)."""
    give_up = time.perf_counter() + timeout
    while (
        session.store.latest.dataset_version < version
        and time.perf_counter() < give_up
    ):
        await asyncio.sleep(0.01)


async def _serve(
    session, engine, stream, rng, ops: Ops, auditor: Auditor, seconds: float
) -> dict:
    mix = SERVE_MIX
    target = session.dataset.version
    feeds: list[tuple[float, int]] = []
    rungs: dict = {}
    windows: dict = {}
    last_version = session.store.latest.version
    snapshot = session.store.latest
    stop = asyncio.Event()

    async def producer() -> None:
        nonlocal target
        start = time.perf_counter()
        k = 0
        while not stop.is_set():
            due = start + k * FEED_PERIOD_S
            now = time.perf_counter()
            if now < due:
                await asyncio.sleep(due - now)
                continue
            batch = stream.next_batch(FEED_SIZE)
            fed_at = time.perf_counter()
            ops.call(session.feed, batch)
            target += len(batch)
            feeds.append((fed_at, target))
            k += 1

    async def read(kind, target_):
        nonlocal last_version
        if kind == "query":
            answer = await engine.query(target_)
            last_version = answer.version
            return answer
        if kind == "explain":
            return await engine.explain_dependence(target_, version=last_version)
        return await engine.recommend(target_, version=last_version)

    engine.start()
    feeder = asyncio.get_running_loop().create_task(producer())
    try:
        for rate in LADDER:
            rung_seconds = seconds * RUNG_SHARE[rate]
            period = 1.0 / rate
            count = int(rate * rung_seconds)
            start = time.perf_counter()
            cutoff = start + rung_seconds + P99_LIMIT_S
            latency, late = array("d"), array("d")
            i = 0
            while i < count:
                due = start + i * period
                now = time.perf_counter()
                if now < due:
                    await asyncio.sleep(due - now)
                    continue
                if now > cutoff:
                    break
                kind, target_ = _read_plan(rng, snapshot, mix)
                ops.attempted += 1
                try:
                    version = last_version
                    answer = await read(kind, target_)
                except Exception as exc:  # counted; fails the run
                    ops.fail(f"{kind}: {type(exc).__name__}: {exc}")
                    answer = None
                done = time.perf_counter()
                latency.append(done - due)
                late.append(now - due)
                if answer is not None:
                    auditor.record(
                        kind, target_,
                        answer.version if kind == "query" else version,
                        answer,
                    )
                i += 1
                if i % 32 == 0:
                    await asyncio.sleep(0)
            elapsed = time.perf_counter() - start
            windows[rate] = (start, start + rung_seconds)
            rungs[rate] = {
                "latency": latency,
                "late": late,
                "achieved": i / max(elapsed, rung_seconds),
                "dropped": count - i,
            }
            remaining = start + rung_seconds - time.perf_counter()
            if remaining > 0:
                await asyncio.sleep(remaining)
            # The next rate starts once this rung's batches are published,
            # so an overloaded rung's starved refresh loop is not charged
            # to the freshness of the rung before it.
            await _published(session, target)
        stop.set()
        await feeder
        if len(feeds) % 2:
            # End on the undo batch, as the closed loops do.
            batch = stream.next_batch(FEED_SIZE)
            feeds.append((time.perf_counter(), target + len(batch)))
            target += len(batch)
            ops.call(session.feed, batch)
        await _published(session, target)
    finally:
        stop.set()
        if not feeder.done():
            feeder.cancel()
        await engine.stop()
    return {"feeds": feeds, "rungs": rungs, "windows": windows, "target": target}


# ----------------------------------------------------------------------
# per-layer metrics from the traced run
# ----------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _layers(
    recorder,
    groups,
    freshness,
    *,
    setups,
    candidate_pairs,
    build_bytes,
    sync_bytes,
    health,
    rounds,
    rescored,
    reused,
    late,
    versions,
    spans=None,
    feed_waits=(),
) -> dict:
    spans = recorder.spans() if spans is None else spans
    counters = recorder.counters
    per_group = tracing.group_self_ns(spans, groups)
    n = max(1, len(groups))

    def self_ms(name: str) -> float:
        return _median(per_group.get(name, [0] * n)) / 1e6

    def mean_self(name: str, count_name: str | None = None) -> float:
        total = sum(s[5] for s in spans if s[0] == name and s[4] < 0)
        calls = sum(1 for s in spans if s[0] == (count_name or name) and s[4] < 0)
        return total / calls / 1e3 if calls else 0.0

    setup_groups = [SETUP_GROUP + k for k in range(len(setups))]
    build = tracing.group_self_ns(spans, setup_groups).get(
        "dependence.build", [0] * len(setup_groups)
    )
    refresh_calls = sum(
        1 for s in spans if s[0] == "dependence.refresh" and s[4] in set(groups)
    )
    if rounds is None:
        rounds = [counters["truth.rounds"] / max(1, counters["truth.runs"])]
        rescored = counters["truth.rescored"]
        reused = counters["truth.reused"]
    recommend_calls = sum(1 for s in spans if s[0] == "recommend" and s[4] < 0)
    scorecards = sum(
        1 for s in spans if s[0] == "recommend.scorecards" and s[4] < 0
    )
    recommend_ns = sum(
        s[5] for s in spans
        if s[0] in ("recommend", "recommend.scorecards") and s[4] < 0
    )
    roots = tracing.root_ns(spans, groups)
    glue = [
        a + b
        for a, b in zip(
            per_group.get("session.apply", [0] * n),
            per_group.get("session.publish", [0] * n),
        )
    ]
    layers = {
        "core.apply.self_ms": (self_ms("core.apply"), "ms"),
        "core.apply.mutations": (counters["core.apply.mutations"] / n, "count"),
        "core.apply.dirty_objects": (
            counters["core.apply.dirty_objects"] / n, "count"),
        "dependence.build.self_s": (_median(build) / 1e9, "s"),
        "dependence.build.candidate_pairs": (candidate_pairs, "count"),
        "dependence.sync.self_ms": (self_ms("dependence.sync"), "ms"),
        "dependence.refresh.self_ms": (self_ms("dependence.refresh"), "ms"),
        "dependence.refresh.calls": (refresh_calls / n, "count"),
        "dependence.posterior.self_ms": (self_ms("dependence.posterior"), "ms"),
        "dependence.posterior.pairs_scored": (
            counters["dependence.posterior.pairs_scored"] / n, "count"),
        "dependence.posterior.reuse_ratio": (
            reused / (rescored + reused) if rescored + reused else 0.0, "ratio"),
        "exec.run.self_ms": (self_ms("exec.run"), "ms"),
        "exec.bytes_shipped": (
            build_bytes + _median(sync_bytes), "bytes"),
        "exec.retries": (health.get("retries", 0), "count"),
        "exec.degradations": (health.get("degrades", 0), "count"),
        "truth.setup.self_ms": (self_ms("truth.setup"), "ms"),
        "truth.vote.self_ms": (self_ms("truth.vote"), "ms"),
        "truth.decide.self_ms": (self_ms("truth.decide"), "ms"),
        "truth.accuracy.self_ms": (self_ms("truth.accuracy"), "ms"),
        "truth.run.self_ms": (self_ms("truth.run"), "ms"),
        "truth.rounds": (_median(rounds), "count"),
        "truth.converged_ratio": (
            counters["truth.converged"] / counters["truth.runs"]
            if counters["truth.runs"] else 0.0, "ratio"),
        "serve.snapshot.self_ms": (self_ms("serve.snapshot"), "ms"),
        "serve.store.publish.self_ms": (self_ms("serve.store.publish"), "ms"),
        "serve.versions_published": (versions, "count"),
        "serve.query.self_us": (mean_self("serve.query"), "us"),
        "serve.explain.self_us": (mean_self("serve.explain"), "us"),
        "recommend.self_us": (
            recommend_ns / recommend_calls / 1e3 if recommend_calls else 0.0,
            "us"),
        "recommend.scorecard_hit_ratio": (
            1.0 - scorecards / recommend_calls if recommend_calls else 0.0,
            "ratio"),
        "serve.feed_wait_ms": (_median(feed_waits) * 1e3, "ms"),
        "loadgen.late_ms": (p99(late) * 1e3 if len(late) > 1 else 0.0, "ms"),
        "session.glue.self_ms": (_median(glue) / 1e6, "ms"),
        "trace.write_path_ms": (_median(roots) / 1e6, "ms"),
    }
    if freshness:
        # The share of freshness the layers below the session claim: the
        # write path's spans minus the session's own glue.
        layers["trace.coverage_ratio"] = (
            (sum(roots) - sum(glue)) / 1e9 / sum(freshness[: len(roots)]),
            "ratio")
    else:
        layers["trace.coverage_ratio"] = (0.0, "ratio")
    return layers
