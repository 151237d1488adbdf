"""Columnar hand-off from a truth run to its snapshot.

The columnar engines hand their final round to the serving layer as
arrays (:class:`~repro.truth.base.ColumnarTruth`); the dict and graph
forms of the result are built only on demand. These tests pin that the
hand-off freezes bit-for-bit what the dict forms would, that the lazy
forms equal the eager ones, that validation survives, and that a
publish builds no dict or graph form at all.
"""

import numpy as np
import pytest

import repro
from repro.core.claims import Claim
from repro.core.dataset import ClaimDataset
from repro.core.params import DependenceParams
from repro.dependence.bayes import PairDependence
from repro.dependence.graph import DependenceGraph, PairPosteriorArrays
from repro.exceptions import DataError, ServeError
from repro.generators import simple_copier_world
from repro.serve import Snapshot, load_snapshot, save_snapshot
from repro.truth import Accu, Depen, NaiveVote, TruthResult
from repro.truth.base import ColumnarTruth
from repro.truth.columnar import ValueProbTable
from truth_oracle import accu_oracle, depen_oracle

DEP_FIELDS = ("pair_s1", "pair_s2", "p_dependent", "p_s1_copies", "p_s2_copies")


@pytest.fixture(scope="module")
def world():
    dataset, _ = simple_copier_world(
        n_objects=40, n_independent=6, n_copiers=3, seed=11
    )
    return dataset


def _dict_copy(result):
    """The same result with only its dict and graph forms."""
    return TruthResult(
        result.decisions,
        result.distributions,
        dict(result.accuracies),
        result.dependence,
        result.rounds,
        result.converged,
        list(result.trace),
        dataset_version=result.dataset_version,
    )


def _pairs(graph):
    return {(pair.s1, pair.s2): pair for pair in graph}


def _assert_bitwise(a: dict, b: dict):
    for name in DEP_FIELDS:
        assert a[name].dtype == b[name].dtype, name
        assert a[name].shape == b[name].shape, name
        assert a[name].tobytes() == b[name].tobytes(), name


class _DictDepen:
    """The dict DEPEN oracle behind the ``discover`` interface: a
    dict-only result with an eager dependence graph."""

    def discover(self, dataset):
        return depen_oracle(dataset, DependenceParams(), min_overlap=5)


ALGORITHMS = {
    "depen": lambda: Depen(DependenceParams(), min_overlap=5),
    "depen-dict-truth": _DictDepen,
    "accu": lambda: Accu(),
    "vote": lambda: NaiveVote(),
}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_handoff_fingerprint_equals_dict_only_copy(world, name):
    result = ALGORITHMS[name]().discover(world)
    handed = Snapshot.from_result(world, result, round_id=1)
    copied = Snapshot.from_result(world, _dict_copy(result), round_id=1)
    assert handed.fingerprint() == copied.fingerprint()


def test_columnar_producers_hand_off_columnar_form(world):
    def run(name):
        return ALGORITHMS[name]().discover(world)

    assert run("depen").columnar.pairs is not None
    assert run("accu").columnar is not None
    assert run("depen-dict-truth").columnar is None
    assert run("vote").columnar is None


def test_depen_backends_freeze_identically(world):
    prints = {
        Snapshot.from_result(
            world, ALGORITHMS[name]().discover(world), round_id=1
        ).fingerprint()
        for name in ("depen", "depen-dict-truth")
    }
    assert len(prints) == 1


def test_columnar_export_matches_graph_export(world):
    result = ALGORITHMS["depen"]().discover(world)
    exported = result.columnar.pairs.export_arrays()
    _assert_bitwise(exported, result.dependence.export_arrays(world.sources))
    assert exported["pair_s1"].size == len(result.dependence) > 0
    assert all(not arr.flags.writeable for arr in exported.values())


def test_columnar_export_of_empty_graph():
    empty_i = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0, dtype=np.float64)
    pairs = PairPosteriorArrays(
        [], empty_i, empty_i.copy(), empty_f, empty_f.copy(), empty_f.copy()
    )
    assert len(pairs.to_graph()) == 0
    _assert_bitwise(
        pairs.export_arrays(), DependenceGraph().export_arrays(["a", "b"])
    )


def test_columnar_export_orients_reversed_keys():
    # Keys whose first endpoint has the larger source code: the export
    # must swap them into code order and swap the directed posteriors.
    sources = ["a", "b", "c"]
    pairs = PairPosteriorArrays(
        [("c", "a"), ("b", "c"), ("b", "a")],
        np.array([2, 1, 1], dtype=np.int64),
        np.array([0, 2, 0], dtype=np.int64),
        np.array([0.5, 0.2, 0.9]),
        np.array([0.4, 0.7, 0.025]),
        np.array([0.1, 0.1, 0.075]),
    )
    exported = pairs.export_arrays()
    _assert_bitwise(exported, pairs.to_graph().export_arrays(sources))
    assert exported["pair_s1"].tolist() == [0, 0, 1]
    assert exported["pair_s2"].tolist() == [1, 2, 2]


def test_lazy_forms_equal_eager_ones(world):
    lazy = ALGORITHMS["depen"]().discover(world)
    eager = ALGORITHMS["depen-dict-truth"]().discover(world)
    assert lazy._decisions is None and lazy._distributions is None
    assert lazy._dependence is None and lazy.has_dependence
    assert lazy.decisions == eager.decisions
    assert lazy.distributions == eager.distributions
    assert lazy.accuracies == eager.accuracies
    assert _pairs(lazy.dependence) == _pairs(eager.dependence)
    # Cached: a second read returns the same objects.
    assert lazy.decisions is lazy.decisions
    assert lazy.distributions is lazy.distributions
    assert lazy.dependence is lazy.dependence

    accu = ALGORITHMS["accu"]().discover(world)
    accu_dict = accu_oracle(world)
    assert accu.decisions == accu_dict.decisions
    assert accu.distributions == accu_dict.distributions
    assert accu.dependence is None and not accu.has_dependence


def test_bad_distribution_raises_on_both_forms(world):
    with pytest.raises(DataError, match="sums to"):
        TruthResult({"o": "a"}, {"o": {"a": 0.5, "b": 0.2}})
    columnar = ALGORITHMS["depen"]().discover(world).columnar
    for bad in (columnar.table.probs * 0.5, np.full(len(columnar.table), np.nan)):
        table = ValueProbTable(world)
        table.set_probs(bad)
        with pytest.raises(DataError, match="sums to"):
            TruthResult(
                columnar=ColumnarTruth(
                    table,
                    columnar.winners.copy(),
                    columnar.accuracies.copy(),
                )
            )


def test_result_needs_a_form():
    with pytest.raises(DataError, match="columnar form"):
        TruthResult(decisions={"o": "a"})


def test_persistence_roundtrip_keeps_handoff_fingerprint(world, tmp_path):
    snapshot = Snapshot.from_result(world, ALGORITHMS["depen"]().discover(world))
    directory = str(tmp_path / "snap")
    save_snapshot(snapshot, directory)
    for mmap in (True, False):
        loaded = load_snapshot(directory, mmap=mmap)
        assert loaded.fingerprint() == snapshot.fingerprint()
        for obj in world.objects:
            assert loaded.distribution(obj) == snapshot.distribution(obj)
            for value in loaded.distribution(obj):
                assert loaded.probability(obj, value) == snapshot.probability(
                    obj, value
                )


# ---------------------------------------------------------------------------
# stale results are refused
# ---------------------------------------------------------------------------


def _small_claims():
    return [
        Claim("s1", "o1", "a"),
        Claim("s2", "o1", "a"),
        Claim("s3", "o1", "b"),
        Claim("s1", "o2", "x"),
        Claim("s2", "o2", "y"),
    ]


@pytest.mark.parametrize(
    "extra",
    [Claim("s3", "o2", "z"), Claim("s3", "o9", "z")],
    ids=["new-claim", "new-object"],
)
@pytest.mark.parametrize("algorithm", [Depen, NaiveVote])
def test_stale_result_is_refused(algorithm, extra):
    dataset = ClaimDataset(_small_claims())
    result = algorithm().discover(dataset)
    assert result.dataset_version == dataset.version
    dataset.add_claims([extra])
    with pytest.raises(ServeError, match="re-run truth discovery"):
        Snapshot.from_result(dataset, result)


def test_columnar_form_bound_to_another_dataset_is_refused():
    dataset = ClaimDataset(_small_claims())
    twin = ClaimDataset(_small_claims())
    assert twin.version == dataset.version
    result = Depen(DependenceParams()).discover(dataset)
    with pytest.raises(ServeError, match="another dataset"):
        Snapshot.from_result(twin, result)
    # Its dict-only copy carries no table, so it freezes over the twin.
    Snapshot.from_result(twin, _dict_copy(result))


# ---------------------------------------------------------------------------
# publish builds no dict or graph forms
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, cls, attr):
    calls = []
    original = getattr(cls, attr)

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, attr, counted)
    return calls


def test_publish_builds_no_dict_or_graph_forms(world, monkeypatch):
    pairs_built = _count_calls(monkeypatch, PairDependence, "__post_init__")
    tables_built = _count_calls(monkeypatch, ValueProbTable, "__init__")
    with repro.Session(dataset=world, min_overlap=5) as session:
        session.publish()
        assert len(pairs_built) == 0
        assert len(tables_built) == 1  # the truth round's own table
        result = session.engine._last_result
        assert result._decisions is None and result._distributions is None
        assert result._dependence is None

        graph = session.graph
        assert len(pairs_built) == len(graph) > 0
        cold = Depen(session.params, session.iteration, min_overlap=5)
        assert _pairs(graph) == _pairs(cold.discover(world).dependence)


def test_discover_after_run_truth_replaces_pending_graph(world):
    with repro.Session(dataset=world, min_overlap=5) as session:
        session.run_truth()
        discovered = session.discover()
        assert session.graph is discovered
