"""The normalisation audit (Section 4, Fig. 6, Table 1).

    "When the algorithms see a value, they are assuming that it is
    z-normalized based on other values that do not yet exist!"

The audit quantifies a model's exposure to that assumption: train it on
UCR-convention (z-normalised) data, then evaluate it twice -- once on equally
well-normalised test data and once on test data given a physically trivial
perturbation (a random vertical offset, optionally a small gain change).  A
model that genuinely works on shape is unaffected (1-NN with re-normalisation
is the control); a model that was silently relying on the archive's
normalisation collapses.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

from repro.classifiers.base import BaseEarlyClassifier
from repro.data.denormalize import denormalize_dataset
from repro.data.ucr_format import UCRDataset
from repro.evaluation.earliness import EarlinessAccuracyResult, evaluate_early_classifier

__all__ = ["NormalizationAuditResult", "audit_normalization_sensitivity"]


@dataclass(frozen=True)
class NormalizationAuditResult:
    """Outcome of auditing one model's sensitivity to denormalisation.

    Attributes
    ----------
    algorithm:
        Name of the audited algorithm.
    normalized:
        Evaluation on the z-normalised test set (the left column of Table 1).
    denormalized:
        Evaluation on the perturbed test set (the right column of Table 1).
    accuracy_drop:
        ``normalized.accuracy - denormalized.accuracy`` (percentage points,
        expressed as a fraction).
    relative_drop:
        The drop as a fraction of the normalised accuracy.
    offset_range:
        The perturbation that was applied.
    """

    algorithm: str
    normalized: EarlinessAccuracyResult
    denormalized: EarlinessAccuracyResult
    accuracy_drop: float
    relative_drop: float
    offset_range: tuple[float, float]

    @property
    def is_sensitive(self) -> bool:
        """Whether the model lost a practically meaningful amount of accuracy.

        The threshold of five percentage points is deliberately generous; the
        models in Table 1 lose twenty to thirty-five.
        """
        return self.accuracy_drop > 0.05


def audit_normalization_sensitivity(
    classifier_factory: Callable[[], BaseEarlyClassifier],
    train: UCRDataset,
    test: UCRDataset,
    algorithm_name: str | None = None,
    offset_range: tuple[float, float] = (-1.0, 1.0),
    scale_range: tuple[float, float] | None = None,
    seed: int = 11,
) -> NormalizationAuditResult:
    """Run the Table 1 protocol for one algorithm.

    Parameters
    ----------
    classifier_factory:
        Zero-argument callable returning a *fresh, unfitted* classifier.  It
        is called once: the fitted model is copied before either evaluation,
        so each test condition is scored by a model in the state a fresh fit
        leaves it in, even when predicting changes the model (Reliable's
        Monte Carlo generator advances with every estimate).
    train:
        Training dataset, in the UCR convention (z-normalised).
    test:
        Test dataset, in the UCR convention; the denormalised variant is
        derived from it internally.
    algorithm_name:
        Name used in the result (defaults to the class name).
    offset_range, scale_range, seed:
        Perturbation parameters, forwarded to
        :func:`repro.data.denormalize.denormalize_dataset`.
    """
    if train.series_length != test.series_length:
        raise ValueError("train and test must have the same series length")

    denormalized_test = denormalize_dataset(
        test, seed=seed, offset_range=offset_range, scale_range=scale_range
    )

    normalized_model = classifier_factory()
    normalized_model.fit(train.series, train.labels)
    denormalized_model = copy.deepcopy(normalized_model)
    normalized_result = evaluate_early_classifier(normalized_model, test.series, test.labels)
    denormalized_result = evaluate_early_classifier(
        denormalized_model, denormalized_test.series, denormalized_test.labels
    )

    name = algorithm_name or type(normalized_model).__name__
    drop = normalized_result.accuracy - denormalized_result.accuracy
    relative = drop / normalized_result.accuracy if normalized_result.accuracy > 0 else 0.0
    return NormalizationAuditResult(
        algorithm=name,
        normalized=normalized_result,
        denormalized=denormalized_result,
        accuracy_drop=drop,
        relative_drop=relative,
        offset_range=offset_range,
    )
