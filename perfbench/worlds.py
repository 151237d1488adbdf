"""Deterministic benchmark worlds: planted truth, copier DAG, mutation stream.

Everything is drawn from one :class:`random.Random` seeded by the
``--seed`` argument. No draw ever iterates a ``set`` or a ``dict`` whose
order could depend on ``PYTHONHASHSEED``: populations are lists built in
index order (or sorted) before anything is drawn from them, so one seed
gives the same claims in every process.

A world has ``n_sources`` sources over ``n_objects`` objects. Objects are
split into ``topics`` equal blocks and a source draws its objects from
its own topic's block with Zipf(``zipf_s``) popularity (``zipf_s=0`` is
uniform). A share of the sources are copiers. A copier copies one
*earlier* source (which may itself be a copier, so the copy relation is
a DAG): it covers ``copier_coverage`` of the original's objects and takes
the original's value with probability ``COPY_RATE``, then tops up from
its own topic. Values are ``"T"`` (the planted truth) or one of
``n_false_values`` false labels.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass, field

from repro.core.claims import Claim
from repro.core.dataset import MutationBatch

TRUE_VALUE = "T"
#: Probability that a copier takes its original's value for a copied object.
COPY_RATE = 0.8


@dataclass(frozen=True)
class WorldSpec:
    """Shape of one generated world."""

    n_sources: int
    n_objects: int
    claims_per_source: int
    copier_share: float
    zipf_s: float = 0.0
    topics: int = 1
    n_false_values: int = 100
    accuracy: tuple[float, float] = (0.6, 0.95)
    copier_coverage: float = 0.8
    #: Every copier copies the last independent source (the copier
    #: clique of ``repro.generators.simple_copier_world``) instead of a
    #: random earlier source.
    single_original: bool = False


@dataclass
class World:
    """Generated claims plus the planted truth they are scored against."""

    spec: WorldSpec
    claims: list[Claim]
    truth: dict[str, str]
    accuracy: dict[str, float]
    #: Planted copy edges as sorted ``(s1, s2)`` pairs (``s1 < s2``).
    edges: set[tuple[str, str]] = field(default_factory=set)

    def fingerprint(self) -> str:
        """SHA-256 over the claims in generation order."""
        digest = hashlib.sha256()
        for claim in self.claims:
            digest.update(
                f"{claim.source}\t{claim.object}\t{claim.value}\n".encode()
            )
        return digest.hexdigest()


def _source_id(i: int) -> str:
    return f"s{i:04d}"


def _object_id(i: int) -> str:
    return f"o{i:05d}"


class _TopicSampler:
    """Zipf-popularity object draws inside one source's topic block."""

    def __init__(self, spec: WorldSpec) -> None:
        self.spec = spec
        self.block = spec.n_objects // spec.topics
        weights = [
            (rank + 1) ** -spec.zipf_s for rank in range(self.block)
        ]
        self.cum = list(itertools.accumulate(weights))

    def topic_of(self, source_index: int) -> int:
        return source_index * self.spec.topics // self.spec.n_sources

    def draw(self, rng: random.Random, source_index: int) -> str:
        total = self.cum[-1]
        rank = bisect.bisect_right(self.cum, rng.random() * total)
        rank = min(rank, self.block - 1)
        base = self.topic_of(source_index) * self.block
        return _object_id(base + rank)


def _value(rng: random.Random, accuracy: float, n_false: int) -> str:
    if rng.random() < accuracy:
        return TRUE_VALUE
    return f"F{rng.randrange(n_false)}"


def generate(spec: WorldSpec, seed: int) -> World:
    """The world of ``spec`` for one seed (same seed, same claims)."""
    rng = random.Random(seed)
    sampler = _TopicSampler(spec)
    n = spec.n_sources
    n_copiers = round(spec.copier_share * n)
    if spec.single_original:
        copier_idx = list(range(n - n_copiers, n))
    else:
        # Source 0 is always independent, so every copier has an
        # earlier source to copy.
        copier_idx = sorted(rng.sample(range(1, n), n_copiers))
    copiers = set(copier_idx)
    last_independent = max(i for i in range(n) if i not in copiers)
    lo, hi = spec.accuracy
    accuracy = {_source_id(i): lo + (hi - lo) * rng.random() for i in range(n)}
    claimed: list[dict[str, str]] = []
    edges: set[tuple[str, str]] = set()
    for i in range(n):
        source = _source_id(i)
        acc = accuracy[source]
        own: dict[str, str] = {}
        if i in copiers:
            original = (
                last_independent if spec.single_original else rng.randrange(i)
            )
            edges.add(tuple(sorted((source, _source_id(original)))))
            for obj in sorted(claimed[original]):
                if rng.random() >= spec.copier_coverage:
                    continue
                if rng.random() < COPY_RATE:
                    own[obj] = claimed[original][obj]
                else:
                    own[obj] = _value(rng, acc, spec.n_false_values)
        target = min(spec.claims_per_source, sampler.block)
        while len(own) < target:
            obj = sampler.draw(rng, i)
            if obj not in own:
                own[obj] = _value(rng, acc, spec.n_false_values)
        claimed.append(own)
    claims = [
        Claim(source=_source_id(i), object=obj, value=value)
        for i, own in enumerate(claimed)
        for obj, value in sorted(own.items())
    ]
    truth = {
        _object_id(i): TRUE_VALUE for i in range(spec.n_objects)
    }
    return World(spec, claims, truth, accuracy, edges)


class MutationStream:
    """Seeded mixed mutation batches that always apply cleanly.

    Every other batch is a fresh draw: a third retractions, a third
    corrections and a third adds (fewer adds when the world covers every
    (source, object) key). The batch after it undoes it: its adds are
    retracted, its retractions re-added and its corrections reverted,
    which is again a mixed batch. The claim set so stays within one batch
    of the generated world, so every run churns the same world instead of
    wherever a random walk of batches took it (in the dense world such a
    walk moves DEPEN's rounds to convergence anywhere from 7 to 20).

    The live claim set is mirrored as a list plus an index, so draws are
    by position and never depend on hash order.
    """

    def __init__(self, world: World, seed: int | str) -> None:
        self.spec = world.spec
        self.rng = random.Random(seed)
        self.sampler = _TopicSampler(world.spec)
        self.accuracy = world.accuracy
        self.keys: list[tuple[str, str]] = [
            (c.source, c.object) for c in world.claims
        ]
        self.pos = {key: i for i, key in enumerate(self.keys)}
        self.value = {(c.source, c.object): c.value for c in world.claims}
        self._undo: MutationBatch | None = None

    def next_batch(self, size: int) -> MutationBatch:
        """The next batch (about ``size`` mutations); the mirror moves with it."""
        if self._undo is not None:
            batch, self._undo = self._undo, None
        else:
            batch = self._draw(size)
            self._undo = self._inverse(batch)
        self._apply(batch)
        return batch

    def _apply(self, batch: MutationBatch) -> None:
        for key in batch.retractions:
            i = self.pos.pop(key)
            last = self.keys.pop()
            if last != key:
                self.keys[i] = last
                self.pos[last] = i
            del self.value[key]
        for claim in batch.corrections:
            self.value[(claim.source, claim.object)] = claim.value
        for claim in batch.adds:
            key = (claim.source, claim.object)
            self.pos[key] = len(self.keys)
            self.keys.append(key)
            self.value[key] = claim.value

    def _inverse(self, batch: MutationBatch) -> MutationBatch:
        def restore(source, obj):
            return Claim(source=source, object=obj, value=self.value[(source, obj)])

        return MutationBatch(
            adds=tuple(restore(*key) for key in batch.retractions),
            retractions=tuple((c.source, c.object) for c in batch.adds),
            corrections=tuple(restore(c.source, c.object) for c in batch.corrections),
        )

    def _new_value(self, source: str, current: str | None) -> str:
        while True:
            value = _value(
                self.rng, self.accuracy[source], self.spec.n_false_values
            )
            if value != current:
                return value

    def _existing(self, taken: set) -> tuple[str, str]:
        while True:
            key = self.keys[self.rng.randrange(len(self.keys))]
            if key not in taken:
                taken.add(key)
                return key

    def _absent(self, taken: set) -> tuple[str, str] | None:
        rng = self.rng
        for _ in range(20):
            index = rng.randrange(self.spec.n_sources)
            key = (_source_id(index), self.sampler.draw(rng, index))
            if key not in self.pos and key not in taken:
                taken.add(key)
                return key
        return None

    def _draw(self, size: int) -> MutationBatch:
        third = max(1, size // 3)
        taken: set[tuple[str, str]] = set()
        retractions = [self._existing(taken) for _ in range(third)]
        corrections = []
        for _ in range(third):
            source, obj = self._existing(taken)
            value = self._new_value(source, self.value[(source, obj)])
            corrections.append(Claim(source=source, object=obj, value=value))
        adds = []
        for _ in range(third):
            key = self._absent(taken)
            if key is not None:
                value = self._new_value(key[0], None)
                adds.append(Claim(source=key[0], object=key[1], value=value))
        return MutationBatch(
            adds=tuple(adds),
            retractions=tuple(retractions),
            corrections=tuple(corrections),
        )


#: The three benchmark worlds. DENSE: 0.3 coverage, so every pair of
#: sources overlaps. SPARSE: 125 topic blocks keep ~17.5k of the ~2M
#: source pairs candidates. SERVE: the 50-source world of
#: ``benchmarks/bench_serving.py`` (40 independent sources, 10 copiers of
#: one of them, full coverage).
DENSE = WorldSpec(
    n_sources=120,
    n_objects=600,
    claims_per_source=180,
    copier_share=0.2,
)
SPARSE = WorldSpec(
    n_sources=2000,
    n_objects=50_000,
    claims_per_source=25,
    copier_share=0.1,
    zipf_s=0.7,
    topics=125,
)
SERVE = WorldSpec(
    n_sources=50,
    n_objects=150,
    claims_per_source=150,
    copier_share=0.2,
    n_false_values=20,
    accuracy=(0.85, 0.85),
    copier_coverage=1.0,
    single_original=True,
)
