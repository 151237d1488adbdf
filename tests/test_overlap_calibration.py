"""Regression pin for the expected_log+uniform over-detection hazard.

ROADMAP: the default evidence model (``evidence_form="expected_log"``
with ``false_value_model="uniform"``) is load-bearing on the paper-scale
worked examples but over-detects dependence on large overlaps — on a
200-object, 20-source world at threshold 0.9 it flags nearly every pair
while ``marginal`` stays close to the planted edges. The engine now
emits one structured :class:`~repro.exceptions.OverlapCalibrationWarning`
when that model combination meets an overlap at or beyond
``DependenceParams.overlap_warning_bound``; these tests pin the warning,
its escape hatches, and the over-detection it guards against.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.params import DependenceParams, IterationParams
from repro.dependence.bayes import uniform_value_probabilities
from repro.dependence.evidence import EvidenceCache
from repro.dependence.graph import discover_dependence
from repro.exceptions import OverlapCalibrationWarning, ParameterError
from repro.generators import simple_copier_world
from repro.truth import Depen
from truth_oracle import depen_oracle


@pytest.fixture(scope="module")
def big_world():
    """The ROADMAP failure case: 200 objects, 20 sources, 4 copiers."""
    return simple_copier_world(
        n_objects=200, n_independent=16, n_copiers=4, accuracy=0.8, seed=7
    )


def _no_overlap_warning(recorded) -> None:
    assert not [
        w for w in recorded if issubclass(w.category, OverlapCalibrationWarning)
    ]


class TestWarningEmission:
    def test_default_model_warns_on_the_200_object_world(self, big_world):
        dataset, _ = big_world
        with pytest.warns(OverlapCalibrationWarning, match="200 objects"):
            EvidenceCache(dataset, params=DependenceParams())

    def test_warned_once_per_structural_state(self, big_world):
        dataset, _ = big_world
        probs = uniform_value_probabilities(dataset)
        with pytest.warns(OverlapCalibrationWarning) as recorded:
            cache = EvidenceCache(dataset, params=DependenceParams())
            for _ in range(3):  # iterative rounds must not re-warn
                cache.collect_all(probs)
        overlap = [
            w
            for w in recorded
            if issubclass(w.category, OverlapCalibrationWarning)
        ]
        assert len(overlap) == 1

    def test_public_api_emits_through_depen(self, big_world):
        dataset, _ = big_world
        with pytest.warns(OverlapCalibrationWarning):
            Depen(iteration=IterationParams(max_rounds=1)).discover(dataset)

    def test_empirical_escape_hatch_does_not_warn(self, big_world):
        dataset, _ = big_world
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            EvidenceCache(
                dataset,
                params=DependenceParams(false_value_model="empirical"),
            )
        _no_overlap_warning(recorded)

    def test_marginal_escape_hatch_does_not_warn(self, big_world):
        dataset, _ = big_world
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            EvidenceCache(
                dataset, params=DependenceParams(evidence_form="marginal")
            )
        _no_overlap_warning(recorded)

    def test_none_bound_disables_the_warning(self, big_world):
        dataset, _ = big_world
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            EvidenceCache(
                dataset,
                params=DependenceParams(overlap_warning_bound=None),
            )
        _no_overlap_warning(recorded)

    def test_small_overlaps_do_not_warn(self):
        dataset, _ = simple_copier_world(
            n_objects=40, n_independent=6, n_copiers=2, accuracy=0.8, seed=3
        )
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            EvidenceCache(dataset, params=DependenceParams())
        _no_overlap_warning(recorded)

    def test_ingest_crossing_the_bound_warns_at_sync(self):
        dataset, _ = simple_copier_world(
            n_objects=300, n_independent=10, n_copiers=2, accuracy=0.8, seed=3
        )
        claims = sorted(dataset, key=lambda c: (c.object, c.source))
        from repro.core.dataset import ClaimDataset

        live = ClaimDataset(claims[: len(claims) // 4])  # below the bound
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            cache = EvidenceCache(live, params=DependenceParams())
        _no_overlap_warning(recorded)
        live.add_claims(claims[len(claims) // 4 :])
        with pytest.warns(OverlapCalibrationWarning):
            cache.sync()

    def test_bound_validation(self):
        with pytest.raises(ParameterError):
            DependenceParams(overlap_warning_bound=0)


class TestOverlapPolicy:
    """The warning promoted to a policy: ``overlap_policy`` acts on the
    bound instead of just talking about it."""

    def test_policy_validation(self):
        with pytest.raises(ParameterError):
            DependenceParams(overlap_policy="shout")
        with pytest.raises(ParameterError):
            # auto needs a bound to act on
            DependenceParams(overlap_policy="auto", overlap_warning_bound=None)

    def test_ignore_silences_the_warning(self, big_world):
        dataset, _ = big_world
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            EvidenceCache(
                dataset, params=DependenceParams(overlap_policy="ignore")
            )
        _no_overlap_warning(recorded)

    def test_auto_does_not_warn(self, big_world):
        dataset, _ = big_world
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            EvidenceCache(
                dataset, params=DependenceParams(overlap_policy="auto")
            )
        _no_overlap_warning(recorded)

    def test_auto_fixes_the_200_object_over_detection(self, big_world):
        """The ROADMAP regression case: under ``auto`` the pairs at the
        bound are scored with the calibrated per-value evidence and the
        false-positive flood disappears, while every planted edge
        survives."""
        dataset, world = big_world
        probs = uniform_value_probabilities(dataset)
        accuracies = {s: 0.8 for s in dataset.sources}
        planted = world.dependent_pairs()
        graph = discover_dependence(
            dataset,
            probs,
            accuracies,
            DependenceParams(overlap_policy="auto"),
        )
        detected = graph.detected_pairs(0.9)
        assert len(detected - planted) < 20  # vs >100 under "warn"
        assert planted <= detected

    def test_auto_leaves_small_overlaps_untouched(self):
        """Below the bound nothing changes: the paper-scale worlds keep
        the aggressive expected-log evidence they need to bootstrap."""
        dataset, _ = simple_copier_world(
            n_objects=40, n_independent=6, n_copiers=2, accuracy=0.8, seed=3
        )
        probs = uniform_value_probabilities(dataset)
        accuracies = {s: 0.8 for s in dataset.sources}
        reference = discover_dependence(
            dataset, probs, accuracies, DependenceParams()
        )
        auto = discover_dependence(
            dataset, probs, accuracies, DependenceParams(overlap_policy="auto")
        )
        assert len(auto) == len(reference)
        for pair in reference:
            assert auto.get(pair.s1, pair.s2) == pair

    def test_evidence_marks_escaped_pairs_calibrated(self, big_world):
        dataset, _ = big_world
        params = DependenceParams(overlap_policy="auto")
        cache = EvidenceCache(dataset, params=params)
        evidence = cache.collect_all(uniform_value_probabilities(dataset))
        bound = params.overlap_warning_bound
        for ev in evidence.values():
            if ev.overlap_size >= bound:
                assert ev.calibrated
                assert ev.shared_values is not None  # per-value detail
            else:
                assert not ev.calibrated

    def test_check_compatible_rejects_policy_mismatch(self, big_world):
        dataset, _ = big_world
        cache = EvidenceCache(
            dataset, params=DependenceParams(overlap_policy="auto")
        )
        from repro.exceptions import DataError

        with pytest.raises(DataError):
            cache.check_compatible(DependenceParams())
        with pytest.raises(DataError):
            # same policy, different bound: evidence would differ
            cache.check_compatible(
                DependenceParams(overlap_policy="auto", overlap_warning_bound=64)
            )

    def test_auto_through_depen_both_truth_backends(self, big_world):
        """The policy composes with the iterative loop, and the columnar
        rounds agree bitwise with the dict oracle on its results."""
        dataset, _ = big_world
        it = IterationParams(max_rounds=3)
        params = DependenceParams(overlap_policy="auto")
        columnar = Depen(params, it).discover(dataset)
        reference = depen_oracle(dataset, params, it)
        assert reference.decisions == columnar.decisions
        assert reference.distributions == columnar.distributions
        assert reference.accuracies == columnar.accuracies


class TestOverDetectionDocumented:
    """The behaviour the warning exists for, pinned at threshold 0.9."""

    def test_expected_log_uniform_over_detects_where_marginal_does_not(
        self, big_world
    ):
        dataset, world = big_world
        probs = uniform_value_probabilities(dataset)
        accuracies = {s: 0.8 for s in dataset.sources}
        planted = world.dependent_pairs()

        with pytest.warns(OverlapCalibrationWarning):
            aggressive = discover_dependence(
                dataset, probs, accuracies, DependenceParams()
            )
        calibrated = discover_dependence(
            dataset,
            probs,
            accuracies,
            DependenceParams(evidence_form="marginal"),
        )
        false_aggressive = aggressive.detected_pairs(0.9) - planted
        false_calibrated = calibrated.detected_pairs(0.9) - planted
        # The hazard: >100 false positives out of 190 candidate pairs,
        # against a handful under the escape hatch.
        assert len(false_aggressive) > 100
        assert len(false_calibrated) < 20
