"""Batch-vs-reference equivalence for the vectorised prediction engine.

``predict_early_batch`` answers a whole test set from batched matrix
kernels; ``predict_early`` row by row is the reference implementation.  The
two must agree -- outcome by outcome and metric by metric -- for every
classifier with a batched override, across z-normalisation modes, or the
batched fast path has silently drifted (a tie-break or voting regression).
This suite is the drift gate the CI workflow runs explicitly.

All datasets here are fixed-seed, so the assertions are deterministic.  One
caveat for future failures: the probability-based classifiers' batched path
computes distances with a (n x m) GEMM where the per-row path uses a
(1 x m) GEMV, which agree only to ~1e-15; a slave confidence landing within
that sliver of a trigger threshold would legitimately shift one checkpoint.
If this gate ever trips with a one-checkpoint trigger_length difference and
a near-threshold confidence, suspect that razor's edge before suspecting
real drift (ECTS is immune: its kernel is bit-identical to the reference).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.classifiers.base import BaseEarlyClassifier, PartialPrediction
from repro.classifiers.ecdire import ECDIREClassifier
from repro.classifiers.ects import ECTSClassifier, RelaxedECTSClassifier
from repro.classifiers.edsc import EDSCClassifier
from repro.classifiers.full import FixedTruncationClassifier, FullLengthClassifier
from repro.classifiers.teaser import TEASERClassifier
from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.evaluation.earliness import evaluate_early_classifier
from repro.memory import memory_budget

TOLERANCE = 1e-10

METRIC_FIELDS = (
    "accuracy",
    "earliness",
    "harmonic_mean",
    "trigger_rate",
    "mean_trigger_length",
    "n_exemplars",
)

#: Classifier factories with a vectorised ``_batch_partial_evaluators``.
BATCHED_CLASSIFIERS = {
    "ects": lambda: ECTSClassifier(min_support=0.0),
    "relaxed-ects": lambda: RelaxedECTSClassifier(min_support=0.0),
    "teaser": lambda: TEASERClassifier(n_checkpoints=8),
    "threshold": lambda: ProbabilityThresholdClassifier(threshold=0.8, min_length=5),
    "full-length": lambda: FullLengthClassifier(),
    "fixed-truncation": lambda: FixedTruncationClassifier(),
    "edsc-che": lambda: EDSCClassifier(threshold_method="che"),
    "edsc-kde": lambda: EDSCClassifier(threshold_method="kde"),
}

#: Batched overrides whose checkpoint numerics are the per-row arithmetic
#: itself, so their outcomes must match the reference exactly.
EXACT_CLASSIFIERS = {"edsc-che", "edsc-kde"}


def _assert_outcomes_match(batched, reference, exact=False):
    tolerance = 0.0 if exact else TOLERANCE
    assert len(batched) == len(reference)
    for got, want in zip(batched, reference):
        assert got.label == want.label
        assert got.trigger_length == want.trigger_length
        assert got.series_length == want.series_length
        assert got.triggered == want.triggered
        assert abs(got.confidence - want.confidence) <= tolerance


class TestPredictEarlyBatchEquivalence:
    @pytest.mark.parametrize("name", sorted(BATCHED_CLASSIFIERS))
    @pytest.mark.parametrize("znorm", ["znormalized", "raw"])
    def test_outcomes_match_per_row_reference(
        self, name, znorm, gunpoint_small, gunpoint_small_raw
    ):
        train, test = gunpoint_small if znorm == "znormalized" else gunpoint_small_raw
        model = BATCHED_CLASSIFIERS[name]().fit(train.series, train.labels)
        assert model._batch_partial_evaluators(test.series) is not None
        batched = model.predict_early_batch(test.series)
        reference = [model.predict_early(row) for row in test.series]
        _assert_outcomes_match(batched, reference, exact=name in EXACT_CLASSIFIERS)

    @pytest.mark.parametrize("name", sorted(BATCHED_CLASSIFIERS))
    def test_metrics_match_per_row_reference(self, name, gunpoint_small):
        train, test = gunpoint_small
        model = BATCHED_CLASSIFIERS[name]().fit(train.series, train.labels)
        fast = evaluate_early_classifier(model, test.series, test.labels, batch=True)
        slow = evaluate_early_classifier(model, test.series, test.labels, batch=False)
        if name in EXACT_CLASSIFIERS:
            assert fast == slow
        for field in METRIC_FIELDS:
            assert abs(getattr(fast, field) - getattr(slow, field)) <= TOLERANCE, field

    def test_batch_size_chunking_is_invisible(self, gunpoint_small):
        train, test = gunpoint_small
        model = ECTSClassifier().fit(train.series, train.labels)
        whole = model.predict_early_batch(test.series)
        chunked = model.predict_early_batch(test.series, batch_size=3)
        _assert_outcomes_match(chunked, whole)

    def test_keep_history_matches_per_row(self, gunpoint_small):
        train, test = gunpoint_small
        model = ProbabilityThresholdClassifier(min_length=5).fit(train.series, train.labels)
        batched = model.predict_early_batch(test.series[:6], keep_history=True)
        for got, row in zip(batched, test.series[:6]):
            want = model.predict_early(row, keep_history=True)
            assert len(got.history) == len(want.history)
            for g, w in zip(got.history, want.history):
                assert g.label == w.label
                assert g.ready == w.ready
                assert g.prefix_length == w.prefix_length
                assert abs(g.confidence - w.confidence) <= TOLERANCE

    def test_fallback_path_without_override(self, gunpoint_small):
        """Classifiers without a batched override ride the per-row reference."""
        train, test = gunpoint_small
        model = ECDIREClassifier(n_checkpoints=6).fit(train.series, train.labels)
        assert model._batch_partial_evaluators(test.series) is None
        batched = model.predict_early_batch(test.series[:8])
        reference = [model.predict_early(row) for row in test.series[:8]]
        _assert_outcomes_match(batched, reference)

    def test_predict_and_scores_ride_the_batched_path(self, gunpoint_small):
        train, test = gunpoint_small
        model = ECTSClassifier().fit(train.series, train.labels)
        reference = [model.predict_early(row) for row in test.series]
        assert np.array_equal(
            model.predict(test.series), np.asarray([o.label for o in reference])
        )
        assert model.average_earliness(test.series) == pytest.approx(
            float(np.mean([o.earliness for o in reference])), abs=TOLERANCE
        )


def _assert_histories_identical(got, want):
    assert len(got.history) == len(want.history)
    for g, w in zip(got.history, want.history):
        assert g == w


class TestEDSCBatch:
    """EDSC's batched prefix matching against its per-row walk, bit for bit."""

    @staticmethod
    def _check(model, series, **kwargs):
        batched = model.predict_early_batch(series, **kwargs)
        reference = [model.predict_early(row, **kwargs) for row in series]
        _assert_outcomes_match(batched, reference, exact=True)
        return batched, reference

    @pytest.mark.parametrize("method", ["che", "kde"])
    def test_multichannel_input(self, method):
        rng = np.random.default_rng(4)
        series = rng.normal(size=(24, 30, 3))
        labels = np.repeat([0, 1], 12)
        series[labels == 1, 5:15, 1] += 2.0
        series[labels == 0, 8:18, 2] -= 2.0
        model = EDSCClassifier(threshold_method=method, position_step=2).fit(
            series[::2], labels[::2]
        )
        assert model.n_channels_ == 3
        batched, _ = self._check(model, series[1::2])
        assert any(outcome.triggered for outcome in batched)

    def test_chunking_is_invisible(self, gunpoint_small):
        train, test = gunpoint_small
        model = EDSCClassifier().fit(train.series, train.labels)
        whole = model.predict_early_batch(test.series)
        with memory_budget(1):
            chunked, _ = self._check(model, test.series)
        _assert_outcomes_match(chunked, whole, exact=True)

    def test_rows_shorter_than_training_length(self, gunpoint_small):
        train, test = gunpoint_small
        model = EDSCClassifier().fit(train.series, train.labels)
        first = model.checkpoints()[0]
        longest = max(shapelet.length for shapelet in model.shapelets_)
        lengths = {first, max(first, longest - 1), train.series_length - 1}
        for length in sorted(lengths):
            batched, _ = self._check(model, test.series[:, :length])
            assert all(outcome.series_length == length for outcome in batched)
        with pytest.raises(ValueError):
            model.predict_early_batch(test.series[:, : first - 1])
        with pytest.raises(ValueError):
            model.predict_early(test.series[0, : first - 1])

    def test_row_that_never_triggers(self, gunpoint_small):
        train, test = gunpoint_small
        model = EDSCClassifier().fit(train.series, train.labels)
        rows = test.series[:4].copy()
        rows[1] += 100.0  # no shapelet matches anywhere this far away
        batched, _ = self._check(model, rows)
        assert not batched[1].triggered
        assert batched[1].trigger_length == train.series_length

    def test_keep_history(self, gunpoint_small):
        train, test = gunpoint_small
        model = EDSCClassifier(threshold_method="kde").fit(train.series, train.labels)
        rows = test.series[:6].copy()
        rows[2] += 100.0
        batched, reference = self._check(model, rows, keep_history=True)
        for got, want in zip(batched, reference):
            _assert_histories_identical(got, want)
        assert len(batched[2].history) == len(model.checkpoints())


class TestPredictEarlyBatchValidation:
    def test_empty_batch_returns_empty_list(self, gunpoint_small):
        train, _ = gunpoint_small
        model = ECTSClassifier().fit(train.series, train.labels)
        assert model.predict_early_batch(np.empty((0, train.series_length))) == []

    def test_single_series_promoted_to_batch_of_one(self, gunpoint_small):
        train, test = gunpoint_small
        model = ECTSClassifier().fit(train.series, train.labels)
        outcomes = model.predict_early_batch(test.series[0])
        _assert_outcomes_match(outcomes, [model.predict_early(test.series[0])])

    def test_rejects_unfitted_and_bad_input(self, gunpoint_small):
        train, test = gunpoint_small
        with pytest.raises(RuntimeError):
            ECTSClassifier().predict_early_batch(test.series)
        model = ECTSClassifier().fit(train.series, train.labels)
        with pytest.raises(ValueError):
            model.predict_early_batch(test.series[:, :0])
        with pytest.raises(ValueError):
            model.predict_early_batch(np.zeros((2, train.series_length + 1)))
        with pytest.raises(ValueError):
            model.predict_early_batch(np.full((2, train.series_length), np.nan))
        with pytest.raises(ValueError):
            model.predict_early_batch(test.series, batch_size=0)

    def test_too_short_batch_raises_like_per_row(self, gunpoint_small):
        train, test = gunpoint_small
        model = FixedTruncationClassifier(
            trigger_length=train.series_length
        ).fit(train.series, train.labels)
        short = test.series[:, : train.series_length // 2]
        with pytest.raises(ValueError):
            model.predict_early_batch(short)
        with pytest.raises(ValueError):
            model.predict_early(short[0])


class _NeverReady(BaseEarlyClassifier):
    """Minimal early classifier whose stopping rule never fires."""

    def fit(self, series, labels):
        data, label_arr = self._validate_training_data(series, labels)
        self._store_training_shape(data, label_arr)
        return self

    def predict_partial(self, prefix):
        arr = self._validate_prefix(prefix)
        return PartialPrediction(
            label=self.classes_[0], ready=False, confidence=0.0, prefix_length=arr.shape[0]
        )


class TestTriggerlessBatch:
    def test_never_triggering_classifier_agrees(self, gunpoint_small):
        train, test = gunpoint_small
        model = _NeverReady().fit(train.series, train.labels)
        batched = model.predict_early_batch(test.series)
        reference = [model.predict_early(row) for row in test.series]
        _assert_outcomes_match(batched, reference)
        assert all(not outcome.triggered for outcome in batched)
        assert all(
            outcome.trigger_length == test.series_length for outcome in batched
        )
