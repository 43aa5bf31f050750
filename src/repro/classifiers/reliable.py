"""Reliable early classification (Parrish et al., JMLR 2013).

Parrish et al. frame early classification as *classification with incomplete
information*: a base classifier is defined on the full-length exemplar, and an
early decision is issued only when the decision made from the observed prefix
is **reliable** -- i.e. when the probability that it agrees with the decision
the base classifier *would* make once the whole exemplar has arrived exceeds a
user threshold.  Table 1 of the paper evaluates two of their variants, the
global quadratic-discriminant model ("Rel. Class.") and the local
discriminative Gaussian model ("LDG Rel. Class."), both at ``tau = 0.1``.

Implementation notes (simplifications documented in EXPERIMENTS.md):

* The base classifier is a regularised Gaussian (quadratic-discriminant)
  model with shrinkage towards its diagonal.  The original paper uses exactly
  this family for its Gaussian instantiation.
* The reliability of a prefix decision is estimated by Monte Carlo: the
  unseen suffix is sampled from the class-conditional Gaussian distribution
  of the suffix given the observed prefix, mixed over classes with the
  posterior given the prefix, and the base classifier is applied to each
  completed exemplar.  The reliability is the fraction of completions on
  which the full-data decision equals the prefix decision.  The original
  derives analytic bounds for this quantity; Monte Carlo reproduces its
  behaviour without the algebra.
* The LDG variant fits the Gaussians locally: only the ``n_local`` training
  exemplars nearest to the observed prefix participate in the estimate.

The estimator never re-normalises the prefix -- like the published method it
implicitly assumes the exemplar arrives already normalised, which is what the
Table 1 denormalisation experiment exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from repro.classifiers.base import BaseEarlyClassifier, PartialPrediction
from repro.distance.euclidean import pairwise_euclidean

__all__ = ["ReliableEarlyClassifier", "LDGReliableEarlyClassifier"]


class _PrefixTerms:
    """The parts of one class Gaussian that depend only on the prefix length.

    For prefix length ``L``: the Cholesky factor of the prefix covariance
    ``cov[:L, :L]`` and its log-determinant (the prefix density), and the
    Cholesky factor of the conditional covariance of the unseen suffix given
    the prefix (the Monte Carlo sampler).  At the full length the prefix
    factor is the full-length density's factor and there is no suffix.

    The suffix factor is computed on first use, so terms built on the fly
    for one prediction pay for it only when that class is sampled.
    """

    def __init__(self, covariance: np.ndarray, length: int) -> None:
        self.covariance = covariance
        self.length = length
        self.factor = cho_factor(covariance[:length, :length], lower=True)
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(self.factor[0]))))

    @cached_property
    def suffix_cholesky(self) -> np.ndarray:
        """Cholesky factor of the suffix covariance given the prefix."""
        length = self.length
        full = self.covariance.shape[0]
        cov_sp = self.covariance[length:, :length]
        cov_ss = self.covariance[length:, length:]
        solved = cho_solve(self.factor, cov_sp.T, check_finite=False)
        conditional_cov = cov_ss - cov_sp @ solved
        conditional_cov = 0.5 * (conditional_cov + conditional_cov.T)
        ridge = 1e-6 * np.trace(self.covariance) / full
        conditional_cov += ridge * np.eye(full - length)
        try:
            return np.linalg.cholesky(conditional_cov)
        except np.linalg.LinAlgError:
            return np.diag(np.sqrt(np.maximum(np.diag(conditional_cov), 1e-12)))


@dataclass
class _GaussianClassModel:
    """Mean, regularised covariance and prior of one class.

    ``terms`` holds the :class:`_PrefixTerms` of the lengths the model was
    fitted for (the classifier's checkpoints); any other length is computed
    on the fly by :meth:`prefix_terms` and not stored.

    The solves skip scipy's finiteness check: every factor comes from a
    finite fitted covariance, and every prefix has passed
    ``_validate_prefix`` (the Monte Carlo completions are built from both).
    """

    label: object
    mean: np.ndarray
    covariance: np.ndarray
    prior: float
    terms: dict[int, _PrefixTerms] = field(default_factory=dict, repr=False)

    def prefix_terms(self, length: int) -> _PrefixTerms:
        """The stored terms of ``length``, or freshly computed ones."""
        stored = self.terms.get(length)
        return stored if stored is not None else _PrefixTerms(self.covariance, length)

    def log_density_full(self, rows: np.ndarray) -> np.ndarray:
        """Log density of the full-length Gaussian at each row of a 2-D array."""
        dim = self.mean.shape[0]
        terms = self.prefix_terms(dim)
        diffs = rows - self.mean[None, :]
        solved = cho_solve(terms.factor, diffs.T, check_finite=False)
        quadratic = np.sum(diffs.T * solved, axis=0)
        return -0.5 * (dim * np.log(2 * np.pi) + terms.logdet + quadratic)

    def log_density_prefix(self, prefix: np.ndarray, terms: _PrefixTerms) -> float:
        """Log density of the marginal Gaussian of the first ``len(prefix)`` samples."""
        length = prefix.shape[0]
        diff = prefix - self.mean[:length]
        quadratic = float(diff @ cho_solve(terms.factor, diff, check_finite=False))
        return -0.5 * (length * np.log(2 * np.pi) + terms.logdet + quadratic)

    def conditional_mean(self, prefix: np.ndarray, terms: _PrefixTerms) -> np.ndarray:
        """Mean of the unseen suffix given the observed prefix."""
        length = prefix.shape[0]
        cov_sp = self.covariance[length:, :length]
        return self.mean[length:] + cov_sp @ cho_solve(
            terms.factor, prefix - self.mean[:length], check_finite=False
        )


class ReliableEarlyClassifier(BaseEarlyClassifier):
    """Gaussian reliability-based early classifier ("Rel. Class." in Table 1).

    Parameters
    ----------
    tau:
        Reliability slack: an early decision is issued when the estimated
        probability of agreeing with the full-data decision is at least
        ``1 - tau``.  Table 1 uses ``tau = 0.1``.
    shrinkage:
        Covariance shrinkage coefficient in [0, 1]; the class covariance is
        ``(1 - shrinkage) * S + shrinkage * diag(S)`` plus a small ridge.
    n_monte_carlo:
        Number of suffix completions sampled per reliability estimate.
    checkpoint_fractions:
        Prefix lengths (as fractions of the exemplar) at which the stopping
        rule is evaluated.
    posterior_tempering:
        Scale of the likelihood tempering applied to the *prefix* posterior
        (0 disables tempering).  See :meth:`_posterior_given_prefix`.
    random_state:
        Seed for the Monte Carlo sampler.
    """

    #: Univariate-only: the per-length statistics this algorithm is
    #: built on are defined over scalar samples, so multichannel
    #: (n, L, d>1) training data is rejected with a named-axis error.
    supports_multichannel = False

    def __init__(
        self,
        tau: float = 0.1,
        shrinkage: float = 0.6,
        n_monte_carlo: int = 100,
        checkpoint_fractions: Sequence[float] = tuple(np.arange(0.1, 1.01, 0.05)),
        posterior_tempering: float = 1.0,
        random_state: int = 19,
    ) -> None:
        super().__init__()
        if not 0.0 <= tau < 0.5:
            raise ValueError("tau must be in [0, 0.5)")
        if not 0.0 <= shrinkage <= 1.0:
            raise ValueError("shrinkage must be in [0, 1]")
        if n_monte_carlo < 10:
            raise ValueError("n_monte_carlo must be at least 10")
        if not checkpoint_fractions:
            raise ValueError("need at least one checkpoint fraction")
        if posterior_tempering < 0:
            raise ValueError("posterior_tempering must be non-negative")
        self.tau = tau
        self.shrinkage = shrinkage
        self.n_monte_carlo = n_monte_carlo
        self.checkpoint_fractions = tuple(checkpoint_fractions)
        self.posterior_tempering = posterior_tempering
        self.random_state = random_state
        self._train: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._models: list[_GaussianClassModel] = []
        self._rng = np.random.default_rng(random_state)

    # ------------------------------------------------------------ training
    def fit(self, series: np.ndarray, labels: Sequence) -> "ReliableEarlyClassifier":
        """Learn per-class local discriminative Gaussians and their reliability bounds."""
        data, label_arr = self._validate_training_data(series, labels)
        self._train = data
        self._labels = label_arr
        self._store_training_shape(data, label_arr)
        self._models = self._fit_global_models(data, label_arr)
        self._rng = np.random.default_rng(self.random_state)
        return self

    def _fit_global_models(
        self, data: np.ndarray, labels: np.ndarray
    ) -> list[_GaussianClassModel]:
        """The class Gaussians, holding the prefix terms of every checkpoint."""
        models = self._fit_gaussians(data, labels)
        for model in models:
            for length in self.checkpoints():
                terms = model.terms[length] = _PrefixTerms(model.covariance, length)
                if length < self.train_length_:
                    terms.suffix_cholesky  # noqa: B018  (computed now, kept with the model)
        return models

    def _fit_gaussians(
        self, data: np.ndarray, labels: np.ndarray
    ) -> list[_GaussianClassModel]:
        models = []
        n_total = data.shape[0]
        for cls in np.unique(labels):
            rows = data[labels == cls]
            mean = rows.mean(axis=0)
            if rows.shape[0] > 1:
                cov = np.atleast_2d(np.cov(rows, rowvar=False, bias=True))
            else:
                cov = np.eye(data.shape[1])
            diag = np.diag(np.diag(cov))
            cov = (1.0 - self.shrinkage) * cov + self.shrinkage * diag
            ridge = 1e-3 * np.trace(cov) / cov.shape[0]
            cov = cov + ridge * np.eye(cov.shape[0])
            models.append(
                _GaussianClassModel(
                    label=cls,
                    mean=mean,
                    covariance=cov,
                    prior=rows.shape[0] / n_total,
                )
            )
        return models

    # ------------------------------------------------------------ inference helpers
    def _posterior_given_prefix(
        self,
        prefix: np.ndarray,
        models: list[_GaussianClassModel],
        terms: list[_PrefixTerms],
    ) -> dict:
        log_posteriors = np.asarray(
            [
                model.log_density_prefix(prefix, model_terms) + np.log(model.prior)
                for model, model_terms in zip(models, terms)
            ]
        )
        if self.posterior_tempering > 0:
            # Temper the prefix likelihoods by the prefix dimension.  With a
            # handful of training exemplars per class, the raw Gaussian
            # likelihood ratio saturates after a few dimensions, which would
            # make the reliability estimate certain about a decision taken
            # from an almost-uninformative prefix.  Dividing the
            # log-likelihood by (tempering * length) keeps the posterior on a
            # per-sample evidence scale.
            log_posteriors = log_posteriors / max(
                1.0, self.posterior_tempering * prefix.shape[0]
            )
        log_posteriors -= log_posteriors.max()
        weights = np.exp(log_posteriors)
        weights /= weights.sum()
        return {model.label: float(w) for model, w in zip(models, weights)}

    @staticmethod
    def _full_data_labels(rows: np.ndarray, models: list[_GaussianClassModel]) -> np.ndarray:
        """Label chosen by the full-length Gaussian classifier for each row."""
        scores = np.stack(
            [model.log_density_full(rows) + np.log(model.prior) for model in models]
        )
        winners = np.argmax(scores, axis=0)
        labels = np.asarray([model.label for model in models])
        return labels[winners]

    def _models_for_prefix(self, prefix: np.ndarray) -> list[_GaussianClassModel]:
        """Global variant: the fitted models.  The LDG subclass overrides this."""
        return self._models

    # ------------------------------------------------------------ prediction
    def predict_partial(self, prefix: np.ndarray) -> PartialPrediction:
        """Classify a prefix; ready once the dominant class is reliably separated."""
        arr = self._validate_prefix(prefix)
        length = arr.shape[0]
        models = self._models_for_prefix(arr)
        terms = [model.prefix_terms(length) for model in models]
        posteriors = self._posterior_given_prefix(arr, models, terms)
        label = max(posteriors.items(), key=lambda item: item[1])[0]

        if length >= self.train_length_:
            return PartialPrediction(
                label=label,
                ready=True,
                confidence=float(posteriors[label]),
                prefix_length=length,
                probabilities=posteriors,
            )

        reliability = self._estimate_reliability(arr, label, models, terms, posteriors)
        ready = reliability >= 1.0 - self.tau
        return PartialPrediction(
            label=label,
            ready=ready,
            confidence=float(reliability),
            prefix_length=length,
            probabilities=posteriors,
        )

    def _estimate_reliability(
        self,
        prefix: np.ndarray,
        prefix_label,
        models: list[_GaussianClassModel],
        terms: list[_PrefixTerms],
        posteriors: dict,
    ) -> float:
        """Monte Carlo estimate of P(full-data decision == prefix decision | prefix)."""
        length = prefix.shape[0]
        suffix_dim = self.train_length_ - length

        completions: list[np.ndarray] = []
        for model, model_terms in zip(models, terms):
            n_class = int(round(posteriors[model.label] * self.n_monte_carlo))
            if n_class <= 0:
                continue
            conditional_mean = model.conditional_mean(prefix, model_terms)
            noise = self._rng.standard_normal(size=(n_class, suffix_dim))
            suffixes = conditional_mean[None, :] + noise @ model_terms.suffix_cholesky.T
            completions.append(
                np.hstack([np.tile(prefix, (n_class, 1)), suffixes])
            )
        if not completions:
            return 0.0
        completed = np.vstack(completions)
        full_labels = self._full_data_labels(completed, models)
        return float(np.mean(full_labels == prefix_label))

    def checkpoints(self) -> list[int]:
        """Prefix lengths evaluated at prediction time."""
        self._require_fitted()
        lengths = sorted(
            {
                min(self.train_length_, max(3, int(round(f * self.train_length_))))
                for f in self.checkpoint_fractions
            }
        )
        if lengths[-1] != self.train_length_:
            lengths.append(self.train_length_)
        return lengths


class LDGReliableEarlyClassifier(ReliableEarlyClassifier):
    """Local discriminative Gaussian variant ("LDG Rel. Class." in Table 1).

    Instead of one Gaussian per class fitted on the whole training set, the
    class models are re-fitted on the ``n_local`` training exemplars nearest
    to the observed prefix, which lets the reliability estimate adapt to the
    local geometry of the data.

    Parameters
    ----------
    n_local:
        Number of nearest training exemplars used to fit the local models.
    (all other parameters as in :class:`ReliableEarlyClassifier`)
    """

    def __init__(
        self,
        tau: float = 0.1,
        n_local: int = 30,
        shrinkage: float = 0.7,
        n_monte_carlo: int = 100,
        checkpoint_fractions: Sequence[float] = tuple(np.arange(0.1, 1.01, 0.05)),
        posterior_tempering: float = 1.0,
        random_state: int = 19,
    ) -> None:
        super().__init__(
            tau=tau,
            shrinkage=shrinkage,
            n_monte_carlo=n_monte_carlo,
            checkpoint_fractions=checkpoint_fractions,
            posterior_tempering=posterior_tempering,
            random_state=random_state,
        )
        if n_local < 4:
            raise ValueError("n_local must be at least 4")
        self.n_local = n_local

    def _fit_global_models(
        self, data: np.ndarray, labels: np.ndarray
    ) -> list[_GaussianClassModel]:
        """None: every prediction fits its Gaussians on the prefix's neighbours."""
        return []

    def _models_for_prefix(self, prefix: np.ndarray) -> list[_GaussianClassModel]:
        assert self._train is not None and self._labels is not None
        length = prefix.shape[0]
        distances = pairwise_euclidean(prefix[None, :], self._train[:, :length])[0]
        order = np.argsort(distances, kind="stable")

        # Take the nearest exemplars but make sure every class keeps at least
        # two members, otherwise the local Gaussians cannot be fitted.
        selected = list(order[: self.n_local])
        for cls in self.classes_:
            cls_indices = np.flatnonzero(self._labels == cls)
            present = [i for i in selected if self._labels[i] == cls]
            if len(present) < 2:
                nearest_of_class = cls_indices[np.argsort(distances[cls_indices])][:2]
                selected.extend(int(i) for i in nearest_of_class)
        selected = sorted(set(int(i) for i in selected))
        local_data = self._train[selected]
        local_labels = self._labels[selected]
        return self._fit_gaussians(local_data, local_labels)
