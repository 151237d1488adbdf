"""Dependence graph: the collected pairwise posteriors over all sources.

:class:`DependenceGraph` is what dependence *discovery* produces and what
dependence *applications* consume (vote discounting, query ordering,
source recommendation). It stores one :class:`~repro.dependence.bayes.PairDependence`
per analysed pair and answers the two queries the rest of the library
needs:

* ``probability(s1, s2)`` — total posterior that the pair is dependent;
* ``directed_probability(copier, original)`` — posterior of one
  direction.

It can threshold itself into a set of *detected* pairs (for evaluation
against planted edges) and export to ``networkx`` for graph analyses
such as finding copier cliques.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType

import networkx as nx

import numpy as np

from repro.core.dataset import ClaimDataset
from repro.core.params import DependenceParams
from repro.core.types import SourceId
from repro.dependence.bayes import (
    PairDependence,
    ValueProbabilities,
    analyze_pair,
)
from repro.dependence.collector import pair_key as _pair_key
from repro.dependence.evidence import EvidenceCache
from repro.exceptions import DataError

_EMPTY_ADJACENCY: Mapping[SourceId, PairDependence] = MappingProxyType({})


class DependenceGraph:
    """Posterior dependence over all analysed source pairs."""

    def __init__(self, pairs: Iterable[PairDependence] = ()) -> None:
        self._pairs: dict[tuple[SourceId, SourceId], PairDependence] = {}
        # Per-source adjacency: source -> {other: pair}. Kept in sync by
        # add() so per-source queries (dependence_score, pairs_of) are
        # O(degree) instead of scanning every stored pair.
        self._adjacent: dict[SourceId, dict[SourceId, PairDependence]] = {}
        for pair in pairs:
            self.add(pair)

    def add(self, pair: PairDependence) -> None:
        """Insert or replace the posterior for one pair."""
        self._pairs[_pair_key(pair.s1, pair.s2)] = pair
        self._adjacent.setdefault(pair.s1, {})[pair.s2] = pair
        self._adjacent.setdefault(pair.s2, {})[pair.s1] = pair

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[PairDependence]:
        return iter(self._pairs.values())

    def get(self, s1: SourceId, s2: SourceId) -> PairDependence | None:
        """The stored posterior for the pair, if it was analysed."""
        return self._pairs.get(_pair_key(s1, s2))

    def probability(self, s1: SourceId, s2: SourceId) -> float:
        """Total dependence posterior for the pair (0.0 if not analysed).

        Unanalysed pairs (e.g. disjoint coverage) are treated as
        independent: with no overlap there is no evidence either way and
        no vote interaction to correct.
        """
        pair = self.get(s1, s2)
        return 0.0 if pair is None else pair.p_dependent

    def directed_probability(self, copier: SourceId, original: SourceId) -> float:
        """Posterior that ``copier`` copies from ``original`` (0.0 if unanalysed)."""
        pair = self.get(copier, original)
        return 0.0 if pair is None else pair.copies_probability(copier)

    def detected_pairs(self, threshold: float = 0.5) -> set[frozenset[SourceId]]:
        """Pairs whose dependence posterior is at or above ``threshold``."""
        if not 0.0 <= threshold <= 1.0:
            raise DataError(f"threshold must be in [0, 1], got {threshold}")
        return {
            frozenset((pair.s1, pair.s2))
            for pair in self
            if pair.p_dependent >= threshold
        }

    def pairs_of(self, source: SourceId) -> Mapping[SourceId, PairDependence]:
        """Read-only adjacency view: ``{other: pair}`` for ``source``'s pairs."""
        adjacent = self._adjacent.get(source)
        return _EMPTY_ADJACENCY if adjacent is None else MappingProxyType(adjacent)

    def dependence_score(self, source: SourceId) -> float:
        """How entangled ``source`` is: max dependence posterior over its pairs.

        Used by source recommendation: a source whose every value might be
        copied contributes little *new* information. Answered from the
        per-source adjacency index in O(degree) — scanning all stored
        pairs per query made recommendation O(sources · pairs).
        """
        adjacent = self._adjacent.get(source)
        if not adjacent:
            return 0.0
        return max(pair.p_dependent for pair in adjacent.values())

    def independence_weight(
        self, source: SourceId, counted: Iterable[SourceId], copy_rate: float
    ) -> float:
        """Probability that ``source``'s value was provided independently of ``counted``.

        This is the vote-discount factor of the DEPEN algorithm: for each
        already-counted source ``S0`` voting for the same value, the vote
        of ``source`` survives with probability ``1 - c·P(dep(source, S0))``.
        """
        if not 0.0 < copy_rate < 1.0:
            raise DataError(f"copy_rate must be in (0, 1), got {copy_rate}")
        weight = 1.0
        for other in counted:
            if other == source:
                continue
            weight *= 1.0 - copy_rate * self.probability(source, other)
        return weight

    def export_arrays(self, sources: list[SourceId]) -> dict:
        """Columnar export of the stored posteriors for snapshot publication.

        Returns read-only arrays over the pairs whose *both* endpoints
        appear in ``sources``: ``pair_s1`` / ``pair_s2`` (int64 codes
        into ``sources``, with ``pair_s1 < pair_s2`` per row, rows in
        sorted code order so equal graphs export bitwise-equal arrays),
        ``p_dependent``, ``p_s1_copies`` and ``p_s2_copies`` (float64,
        aligned; the directional posteriors follow the *code* order, not
        the stored pair's own endpoint order).
        """
        code = {source: i for i, source in enumerate(sources)}
        rows = []
        for pair in self:
            i = code.get(pair.s1)
            j = code.get(pair.s2)
            if i is None or j is None:
                continue
            if i > j:
                i, j = j, i
                first, second = pair.s2, pair.s1
            else:
                first, second = pair.s1, pair.s2
            rows.append(
                (
                    i,
                    j,
                    pair.p_dependent,
                    pair.copies_probability(first),
                    pair.copies_probability(second),
                )
            )
        rows.sort(key=lambda row: (row[0], row[1]))
        arrays = {
            "pair_s1": np.asarray([r[0] for r in rows], dtype=np.int64),
            "pair_s2": np.asarray([r[1] for r in rows], dtype=np.int64),
            "p_dependent": np.asarray([r[2] for r in rows], dtype=np.float64),
            "p_s1_copies": np.asarray([r[3] for r in rows], dtype=np.float64),
            "p_s2_copies": np.asarray([r[4] for r in rows], dtype=np.float64),
        }
        for arr in arrays.values():
            arr.flags.writeable = False
        return arrays

    def to_networkx(self, threshold: float = 0.0) -> nx.Graph:
        """Export as an undirected weighted graph (weight = dependence posterior)."""
        graph = nx.Graph()
        for pair in self:
            if pair.p_dependent >= threshold:
                graph.add_edge(pair.s1, pair.s2, weight=pair.p_dependent)
        return graph

    def copier_groups(self, threshold: float = 0.5) -> list[set[SourceId]]:
        """Connected components of the thresholded dependence graph.

        In a copier clique (S4 and S5 both copying S3, Example 2.1) every
        pair shares false values, so the clique shows up as one component.
        """
        components = nx.connected_components(self.to_networkx(threshold))
        return sorted((set(c) for c in components), key=lambda c: sorted(c)[0])


@dataclass(frozen=True, slots=True, eq=False)
class PairPosteriorArrays:
    """The pair posteriors of a batched DEPEN run, kept columnar.

    ``keys`` lists the pair keys in position order; ``s1`` / ``s2`` are
    each position's endpoint codes into the dataset's sorted source
    list (the run's dataset version); the three float64 arrays are the
    aligned posteriors, in each key's own endpoint order. All arrays
    are read-only. :meth:`to_graph` and :meth:`export_arrays` are the
    two ways out: the object graph, or the snapshot's columnar export
    without building that graph first.
    """

    keys: list
    s1: np.ndarray
    s2: np.ndarray
    p_independent: np.ndarray
    p_s1_copies_s2: np.ndarray
    p_s2_copies_s1: np.ndarray

    def __post_init__(self) -> None:
        for arr in (
            self.s1,
            self.s2,
            self.p_independent,
            self.p_s1_copies_s2,
            self.p_s2_copies_s1,
        ):
            arr.flags.writeable = False

    def to_graph(self) -> DependenceGraph:
        """The :class:`DependenceGraph` of these posteriors.

        ``tolist()`` yields the exact Python floats the scalar path's
        :class:`~repro.dependence.bayes.PairDependence` objects hold.
        """
        return DependenceGraph(
            PairDependence(s1, s2, pi, p12, p21)
            for (s1, s2), pi, p12, p21 in zip(
                self.keys,
                self.p_independent.tolist(),
                self.p_s1_copies_s2.tolist(),
                self.p_s2_copies_s1.tolist(),
            )
        )

    def export_arrays(self) -> dict:
        """:meth:`DependenceGraph.export_arrays` of :meth:`to_graph`, bitwise.

        Rows are oriented to ``pair_s1 < pair_s2`` and ordered by one
        ``lexsort`` over the code pairs; ``p_dependent`` is the same
        float sum :attr:`PairDependence.p_dependent` takes.
        """
        swap = self.s1 > self.s2
        lo = np.where(swap, self.s2, self.s1)
        hi = np.where(swap, self.s1, self.s2)
        order = np.lexsort((hi, lo))
        p12 = self.p_s1_copies_s2[order]
        p21 = self.p_s2_copies_s1[order]
        swap = swap[order]
        arrays = {
            "pair_s1": lo[order],
            "pair_s2": hi[order],
            "p_dependent": p12 + p21,
            "p_s1_copies": np.where(swap, p21, p12),
            "p_s2_copies": np.where(swap, p12, p21),
        }
        for arr in arrays.values():
            arr.flags.writeable = False
        return arrays


def discover_dependence(
    dataset: ClaimDataset,
    value_probs: ValueProbabilities,
    accuracies: dict[SourceId, float],
    params: DependenceParams | None = None,
    min_overlap: int = 1,
    candidate_pairs: Iterable[tuple[SourceId, SourceId]] | None = None,
    evidence_cache: EvidenceCache | None = None,
    batch: bool = True,
) -> DependenceGraph:
    """Analyse every source pair with enough overlap and build the graph.

    ``min_overlap`` mirrors the paper's Example 4.1, which only considers
    bookstore pairs "that provide information on at least the same 10
    books": pairs with tiny overlap carry almost no evidence and are
    skipped (treated as independent).

    ``candidate_pairs`` bypasses the overlap scan (iterative callers
    compute the pair set once and reuse it every round — the overlap
    structure never changes between rounds).

    By default the evidence for all pairs comes from one batch sweep
    (:class:`~repro.dependence.evidence.EvidenceCache`). Iterative
    callers should build the cache once and pass it as
    ``evidence_cache`` so the structural pass is also amortised across
    rounds (:class:`~repro.truth.depen.Depen` does). ``batch=False``
    selects the per-pair reference path
    (:func:`~repro.dependence.bayes.analyze_pair` per pair) — it exists
    for equivalence testing and benchmarking, not for production use.
    """
    if params is None:
        params = DependenceParams()
    if min_overlap < 1:
        raise DataError(f"min_overlap must be >= 1, got {min_overlap}")
    graph = DependenceGraph()
    if not batch:
        if evidence_cache is not None:
            raise DataError(
                "evidence_cache is a batch-path input; it cannot be combined "
                "with batch=False (the per-pair reference path)"
            )
        if candidate_pairs is None:
            candidate_pairs = sorted(dataset.co_coverage_counts(min_overlap))
        for s1, s2 in candidate_pairs:
            graph.add(
                analyze_pair(dataset, s1, s2, value_probs, accuracies, params)
            )
        return graph
    cache = evidence_cache
    owns_cache = cache is None
    if cache is None:
        cache = EvidenceCache(
            dataset, candidate_pairs, min_overlap=min_overlap, params=params
        )
    else:
        if candidate_pairs is not None:
            raise DataError(
                "pass either candidate_pairs or evidence_cache, not both — "
                "the cache already fixes the pair set"
            )
        cache.check_compatible(params)
    try:
        cache.refresh(value_probs)
        engine = cache.posterior_engine(params)
        for pair in engine.posterior_pairs(accuracies):
            graph.add(pair)
        return graph
    finally:
        if owns_cache:
            # An internally built cache must not strand a persistent
            # worker pool (no-op under the ephemeral default).
            cache.close()
