"""Unit tests for the homophone analysis, normalisation audit and prefix curve."""

import numpy as np
import pytest

from repro.classifiers.base import BaseEarlyClassifier, PartialPrediction
from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.core.homophone_analysis import find_time_series_homophones, homophone_analysis
from repro.core.normalization_audit import audit_normalization_sensitivity
from repro.core.prefix_accuracy import PrefixAccuracyCurve, compute_prefix_accuracy_curve
from repro.data.denormalize import denormalize_dataset
from repro.data.random_walk import smoothed_random_walk
from repro.evaluation.earliness import evaluate_early_classifier
from repro.experiments.table1 import default_algorithms


def _two_fit_audit(factory, train, test, seed=11, offset_range=(-1.0, 1.0)):
    """The audit protocol with one fresh fit per test condition (oracle)."""
    denormalized = denormalize_dataset(test, seed=seed, offset_range=offset_range)
    first = factory().fit(train.series, train.labels)
    normalized = evaluate_early_classifier(first, test.series, test.labels)
    second = factory().fit(train.series, train.labels)
    return normalized, evaluate_early_classifier(
        second, denormalized.series, denormalized.labels
    )


class _CallCounting(BaseEarlyClassifier):
    """Answers the first class on its first five evaluations, the second after."""

    def fit(self, series, labels):
        data, label_arr = self._validate_training_data(series, labels)
        self._store_training_shape(data, label_arr)
        self.calls = 0
        return self

    def checkpoints(self):
        return [self.train_length_]

    def predict_partial(self, prefix):
        arr = self._validate_prefix(prefix)
        label = self.classes_[0] if self.calls < 5 else self.classes_[1]
        self.calls += 1
        return PartialPrediction(
            label=label, ready=True, confidence=1.0, prefix_length=arr.shape[0]
        )


class TestFindHomophones:
    def test_returns_k_hits_per_corpus(self, gunpoint_small):
        _, test = gunpoint_small
        corpora = {"walk": smoothed_random_walk(20_000, seed=1)}
        hits = find_time_series_homophones(test.series[0], corpora, k=3)
        assert set(hits) == {"walk"}
        assert len(hits["walk"]) == 3
        distances = [d for _, d in hits["walk"]]
        assert distances == sorted(distances)

    def test_planted_copy_is_found(self, gunpoint_small):
        _, test = gunpoint_small
        query = test.series[0]
        corpus = smoothed_random_walk(5_000, seed=2)
        corpus[1000 : 1000 + query.shape[0]] = query * 3.0 + 7.0  # offset/scale no hiding place
        hits = find_time_series_homophones(query, {"planted": corpus}, k=1)
        position, distance = hits["planted"][0]
        assert abs(position - 1000) <= 2
        assert distance < 0.5

    def test_corpus_shorter_than_query_rejected(self, gunpoint_small):
        _, test = gunpoint_small
        with pytest.raises(ValueError):
            find_time_series_homophones(test.series[0], {"tiny": np.zeros(10)})

    def test_empty_corpora_rejected(self, gunpoint_small):
        _, test = gunpoint_small
        with pytest.raises(ValueError):
            find_time_series_homophones(test.series[0], {})


class TestHomophoneAnalysis:
    def test_large_random_walk_contains_homophones(self, gunpoint_medium):
        # The Fig. 5 claim at laptop scale: a long enough featureless corpus
        # contains subsequences closer to a gesture than another gesture of
        # the same class is.
        _, test = gunpoint_medium
        corpora = {"walk": smoothed_random_walk(2 ** 18, seed=3)}
        analysis = homophone_analysis(test, corpora, n_queries=2, seed=5)
        assert analysis.fraction_with_closer_homophone >= 0.5
        for query in analysis.queries:
            assert query.in_class_distance > 0
            assert query.nearest_corpus_distance() < np.inf

    def test_result_bookkeeping(self, gunpoint_small):
        _, test = gunpoint_small
        corpora = {"walk": smoothed_random_walk(10_000, seed=4)}
        analysis = homophone_analysis(test, corpora, n_queries=3, k=2, seed=1)
        assert len(analysis.queries) == 3
        assert analysis.corpora_sizes == {"walk": 10_000}

    def test_validation(self, gunpoint_small):
        _, test = gunpoint_small
        with pytest.raises(ValueError):
            homophone_analysis(test, {"walk": smoothed_random_walk(5_000)}, n_queries=0)


class TestNormalizationAudit:
    def test_audit_reports_drop_for_raw_value_model(self, gunpoint_medium):
        train, test = gunpoint_medium
        audit = audit_normalization_sensitivity(
            lambda: ProbabilityThresholdClassifier(threshold=0.8, min_length=10, checkpoint_step=5),
            train,
            test.subset(range(30)),
            algorithm_name="threshold",
        )
        assert audit.algorithm == "threshold"
        assert 0.0 <= audit.normalized.accuracy <= 1.0
        assert audit.accuracy_drop == pytest.approx(
            audit.normalized.accuracy - audit.denormalized.accuracy
        )
        # The threshold model consumes raw values, so the perturbation hurts.
        assert audit.accuracy_drop > 0.0
        assert audit.is_sensitive == (audit.accuracy_drop > 0.05)

    def test_factory_called_once(self, gunpoint_small):
        train, test = gunpoint_small
        calls = []

        def factory():
            calls.append(1)
            return ProbabilityThresholdClassifier(threshold=0.8, min_length=10)

        audit_normalization_sensitivity(factory, train, test)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(default_algorithms(fast=True)))
    def test_equals_two_fit_protocol(self, name, gunpoint_small):
        train, test = gunpoint_small
        test = test.subset(range(0, test.series.shape[0], 2))
        factory = default_algorithms(fast=True)[name]
        audit = audit_normalization_sensitivity(factory, train, test)
        normalized, denormalized = _two_fit_audit(factory, train, test)
        assert audit.normalized == normalized
        assert audit.denormalized == denormalized

    def test_model_is_copied_before_the_first_evaluation(self, gunpoint_small):
        train, test = gunpoint_small
        classes = np.unique(test.labels)
        rows = np.concatenate(
            [np.flatnonzero(test.labels == cls)[:5] for cls in classes]
        )
        test = test.subset(rows.tolist())
        audit = audit_normalization_sensitivity(_CallCounting, train, test)
        # A copy taken after the normalised evaluation would start at call
        # ten and answer the second class for every row (accuracy 0.5).
        assert audit.normalized.accuracy == 1.0
        assert audit.denormalized.accuracy == 1.0
        assert audit.normalized == _two_fit_audit(_CallCounting, train, test)[0]

    def test_length_mismatch_rejected(self, gunpoint_medium, gunpoint_small):
        train, _ = gunpoint_medium
        _, other_test = gunpoint_small
        with pytest.raises(ValueError):
            audit_normalization_sensitivity(
                lambda: ProbabilityThresholdClassifier(), train, other_test
            )


class TestPrefixAccuracyCurve:
    def test_compute_on_gunpoint(self, gunpoint_medium_raw):
        train, test = gunpoint_medium_raw
        curve = compute_prefix_accuracy_curve(train, test, lengths=[20, 50, 100, 150])
        assert curve.lengths == (20, 50, 100, 150)
        assert len(curve.accuracies) == 4
        assert curve.series_length == 150
        assert curve.renormalized

    def test_headline_numbers(self, gunpoint_medium_raw):
        train, test = gunpoint_medium_raw
        curve = compute_prefix_accuracy_curve(train, test, lengths=[20, 40, 50, 60, 100, 150])
        # The discriminative region ends near sample 60, so a mid-length
        # prefix should do at least as well as the full exemplar.
        assert curve.accuracy_at(50) >= curve.full_length_accuracy - 0.05
        assert curve.shortest_length_matching_full(tolerance=0.05) <= 100
        assert 0.0 < curve.fraction_needed(tolerance=0.05) <= 1.0
        assert curve.best_length() in curve.lengths

    def test_error_rates_complement_accuracies(self):
        curve = PrefixAccuracyCurve(
            lengths=(10, 20), accuracies=(0.7, 0.9), series_length=20, renormalized=True
        )
        assert curve.error_rates == (pytest.approx(0.3), pytest.approx(0.1))
        assert curve.beats_full_length() is False
        assert curve.as_rows()[0] == (10, 0.7, pytest.approx(0.3))

    def test_accuracy_at_unknown_length_raises(self):
        curve = PrefixAccuracyCurve(
            lengths=(10, 20), accuracies=(0.7, 0.9), series_length=20, renormalized=True
        )
        with pytest.raises(KeyError):
            curve.accuracy_at(15)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrefixAccuracyCurve(lengths=(10,), accuracies=(0.5, 0.6), series_length=20, renormalized=True)
        with pytest.raises(ValueError):
            PrefixAccuracyCurve(lengths=(20, 10), accuracies=(0.5, 0.6), series_length=20, renormalized=True)
        with pytest.raises(ValueError):
            PrefixAccuracyCurve(lengths=(), accuracies=(), series_length=20, renormalized=True)
