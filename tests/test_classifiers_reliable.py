"""Unit tests for the Reliable / LDG early classifiers."""

import copy

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from repro.classifiers.reliable import (
    LDGReliableEarlyClassifier,
    ReliableEarlyClassifier,
    _PrefixTerms,
)

FAST = dict(n_monte_carlo=30, checkpoint_fractions=(0.2, 0.4, 0.6, 0.8, 1.0))


# ---------------------------------------------------------------- oracle
# The Gaussian formulas as they read before the prefix terms were cached:
# every density and conditional is factorised from the covariance slice at
# the point of use.  The classifier must reproduce these bit for bit.


def _oracle_log_density(mean, covariance, rows):
    dim = mean.shape[0]
    factor = cho_factor(covariance, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    diffs = rows - mean[None, :]
    quadratic = np.sum(diffs.T * cho_solve(factor, diffs.T), axis=0)
    return -0.5 * (dim * np.log(2 * np.pi) + logdet + quadratic)


def _oracle_log_density_prefix(model, prefix):
    length = prefix.shape[0]
    factor = cho_factor(model.covariance[:length, :length], lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    diff = prefix - model.mean[:length]
    quadratic = float(diff @ cho_solve(factor, diff))
    return -0.5 * (length * np.log(2 * np.pi) + logdet + quadratic)


def _oracle_conditional_suffix(covariance, mean, prefix):
    """Mean, covariance and Cholesky factor (with its fallback) of the suffix."""
    length = prefix.shape[0]
    full = mean.shape[0]
    cov_pp = covariance[:length, :length]
    cov_sp = covariance[length:, :length]
    cov_ss = covariance[length:, length:]
    factor = cho_factor(cov_pp, lower=True)
    conditional_mean = mean[length:] + cov_sp @ cho_solve(factor, prefix - mean[:length])
    conditional_cov = cov_ss - cov_sp @ cho_solve(factor, cov_sp.T)
    conditional_cov = 0.5 * (conditional_cov + conditional_cov.T)
    ridge = 1e-6 * np.trace(covariance) / full
    conditional_cov += ridge * np.eye(full - length)
    try:
        chol = np.linalg.cholesky(conditional_cov)
    except np.linalg.LinAlgError:
        chol = np.diag(np.sqrt(np.maximum(np.diag(conditional_cov), 1e-12)))
    return conditional_mean, conditional_cov, chol


def _oracle_predict_partial(classifier, prefix):
    """(label, ready, confidence, probabilities) of the uncached algorithm."""
    arr = np.asarray(prefix, dtype=float)
    length = arr.shape[0]
    models = classifier._models_for_prefix(arr)
    log_posteriors = np.asarray(
        [_oracle_log_density_prefix(m, arr) + np.log(m.prior) for m in models]
    )
    if classifier.posterior_tempering > 0:
        log_posteriors = log_posteriors / max(
            1.0, classifier.posterior_tempering * length
        )
    log_posteriors -= log_posteriors.max()
    weights = np.exp(log_posteriors)
    weights /= weights.sum()
    posteriors = {m.label: float(w) for m, w in zip(models, weights)}
    label = max(posteriors.items(), key=lambda item: item[1])[0]
    if length >= classifier.train_length_:
        return label, True, float(posteriors[label]), posteriors

    completions = []
    for m in models:
        n_class = int(round(posteriors[m.label] * classifier.n_monte_carlo))
        if n_class <= 0:
            continue
        c_mean, _, chol = _oracle_conditional_suffix(m.covariance, m.mean, arr)
        noise = classifier._rng.standard_normal(
            size=(n_class, classifier.train_length_ - length)
        )
        suffixes = c_mean[None, :] + noise @ chol.T
        completions.append(np.hstack([np.tile(arr, (n_class, 1)), suffixes]))
    if not completions:
        reliability = 0.0
    else:
        completed = np.vstack(completions)
        scores = np.stack(
            [_oracle_log_density(m.mean, m.covariance, completed) + np.log(m.prior) for m in models]
        )
        winners = np.asarray([m.label for m in models])[np.argmax(scores, axis=0)]
        reliability = float(np.mean(winners == label))
    return label, reliability >= 1.0 - classifier.tau, reliability, posteriors


def _oracle_predict_early(classifier, row):
    """(label, trigger_length, triggered, confidence) of the uncached walk."""
    last = None
    for length in classifier.checkpoints():
        if length > row.shape[0]:
            break
        label, ready, confidence, _ = _oracle_predict_partial(classifier, row[:length])
        last = (label, confidence)
        if ready:
            return label, length, True, confidence
    return last[0], row.shape[0], False, last[1]


VARIANTS = {
    "reliable": lambda: ReliableEarlyClassifier(**FAST),
    "ldg": lambda: LDGReliableEarlyClassifier(n_local=12, **FAST),
}


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReliableEarlyClassifier(tau=0.6)
        with pytest.raises(ValueError):
            ReliableEarlyClassifier(shrinkage=1.5)
        with pytest.raises(ValueError):
            ReliableEarlyClassifier(n_monte_carlo=5)
        with pytest.raises(ValueError):
            ReliableEarlyClassifier(checkpoint_fractions=())
        with pytest.raises(ValueError):
            ReliableEarlyClassifier(posterior_tempering=-1.0)
        with pytest.raises(ValueError):
            LDGReliableEarlyClassifier(n_local=2)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ReliableEarlyClassifier().predict_partial(np.zeros(10))


class TestGaussianModel:
    def test_class_models_fitted_per_class(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        assert len(model._models) == 2
        priors = [m.prior for m in model._models]
        assert sum(priors) == pytest.approx(1.0)
        for class_model in model._models:
            assert class_model.mean.shape == (series.shape[1],)
            assert class_model.covariance.shape == (series.shape[1], series.shape[1])

    def test_posterior_sums_to_one(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        terms = [m.prefix_terms(10) for m in model._models]
        posterior = model._posterior_given_prefix(series[0][:10], model._models, terms)
        assert sum(posterior.values()) == pytest.approx(1.0)

    def test_conditional_suffix_shapes(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        class_model = model._models[0]
        prefix = series[0][:10]
        terms = class_model.prefix_terms(10)
        mean = class_model.conditional_mean(prefix, terms)
        chol = terms.suffix_cholesky
        suffix = series.shape[1] - 10
        assert mean.shape == (suffix,)
        assert chol.shape == (suffix, suffix)
        assert np.array_equal(chol, np.tril(chol))
        # The factor reproduces a symmetric positive semi-definite
        # (up to ridge) conditional covariance.
        cov = chol @ chol.T
        assert np.allclose(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-8
        want_mean, want_cov, want_chol = _oracle_conditional_suffix(
            class_model.covariance, class_model.mean, prefix
        )
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(chol, want_chol)
        assert np.allclose(cov, want_cov)


class TestPrefixTerms:
    def test_fit_stores_the_terms_of_every_checkpoint(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        for class_model in model._models:
            assert sorted(class_model.terms) == model.checkpoints()
            for length, stored in class_model.terms.items():
                fresh = _PrefixTerms(class_model.covariance, length)
                assert np.array_equal(stored.factor[0], fresh.factor[0])
                assert stored.logdet == fresh.logdet
                if length < model.train_length_:
                    assert np.array_equal(stored.suffix_cholesky, fresh.suffix_cholesky)

    def test_off_checkpoint_terms_are_not_stored(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        off = model.checkpoints()[0] + 1
        assert off not in model.checkpoints()
        model.predict_partial(series[0][:off])
        assert all(off not in m.terms for m in model._models)

    def test_ldg_stores_no_global_terms(self, tiny_two_class):
        series, labels = tiny_two_class
        model = LDGReliableEarlyClassifier(n_local=8, **FAST).fit(series, labels)
        assert model._models == []
        local = model._models_for_prefix(series[0][:10])
        assert all(m.terms == {} for m in local)

    def test_densities_match_the_oracle(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        for class_model in model._models:
            for length in (*model.checkpoints(), 11):
                prefix = series[3][:length]
                got = class_model.log_density_prefix(
                    prefix, class_model.prefix_terms(length)
                )
                assert got == _oracle_log_density_prefix(class_model, prefix)
            assert np.array_equal(
                class_model.log_density_full(series),
                _oracle_log_density(class_model.mean, class_model.covariance, series),
            )

    def test_cholesky_fallback_matches_the_oracle(self):
        # The prefix block is positive definite but the suffix given the
        # prefix is not, so np.linalg.cholesky raises and the diagonal
        # fallback takes over.
        covariance = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        mean = np.zeros(3)
        terms = _PrefixTerms(covariance, 1)
        _, cov, chol = _oracle_conditional_suffix(covariance, mean, np.array([0.5]))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov)
        assert np.array_equal(terms.suffix_cholesky, chol)
        assert np.array_equal(chol, np.diag(np.diag(chol)))


class TestMatchesUncachedOracle:
    """Cached prefix terms change no bit of any prediction.

    The classifier and a deep copy (same generator state) run side by side:
    one through the cached terms, the other through the oracle.
    """

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_predict_partial_at_every_checkpoint_and_off_checkpoint(
        self, variant, gunpoint_small
    ):
        train, test = gunpoint_small
        model = VARIANTS[variant]().fit(train.series, train.labels)
        oracle = copy.deepcopy(model)
        off = model.checkpoints()[1] + 1
        assert off not in model.checkpoints()
        for row in test.series[:4]:
            for length in (*model.checkpoints(), off):
                got = model.predict_partial(row[:length])
                label, ready, confidence, probabilities = _oracle_predict_partial(
                    oracle, row[:length]
                )
                assert got.label == label
                assert got.ready == ready
                assert got.confidence == confidence
                assert got.probabilities == probabilities

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_predict_early_batch(self, variant, gunpoint_small):
        train, test = gunpoint_small
        model = VARIANTS[variant]().fit(train.series, train.labels)
        oracle = copy.deepcopy(model)
        rows = test.series[::3]
        got = model.predict_early_batch(rows)
        want = [_oracle_predict_early(oracle, row) for row in rows]
        assert [
            (o.label, o.trigger_length, o.triggered, o.confidence) for o in got
        ] == want


class TestRepeatCallDeterminism:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 2: Reliable/LDG draw their Monte Carlo noise from "
        "one generator shared across predictions, so a repeat call sees a "
        "different draw",
    )
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_repeat_evaluation_is_identical(self, variant, gunpoint_small):
        train, test = gunpoint_small
        model = VARIANTS[variant]().fit(train.series, train.labels)
        rows = test.series[::3]
        first = model.predict_early_batch(rows)
        second = model.predict_early_batch(rows)
        assert [(o.label, o.trigger_length, o.confidence) for o in first] == [
            (o.label, o.trigger_length, o.confidence) for o in second
        ]


class TestPrediction:
    def test_separable_problem_accuracy(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series[::2], labels[::2])
        assert model.score(series[1::2], labels[1::2]) >= 0.9

    def test_triggers_early_on_separable_problem(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series[::2], labels[::2])
        assert model.average_earliness(series[1::2]) < 1.0

    def test_full_prefix_is_always_ready(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        partial = model.predict_partial(series[0])
        assert partial.ready

    def test_smaller_tau_never_triggers_earlier(self, tiny_two_class):
        series, labels = tiny_two_class
        lenient = ReliableEarlyClassifier(tau=0.3, random_state=5, **FAST).fit(series[::2], labels[::2])
        strict = ReliableEarlyClassifier(tau=0.01, random_state=5, **FAST).fit(series[::2], labels[::2])
        lenient_earliness = lenient.average_earliness(series[1::2])
        strict_earliness = strict.average_earliness(series[1::2])
        assert strict_earliness >= lenient_earliness - 0.05

    def test_ldg_variant_works(self, tiny_two_class):
        series, labels = tiny_two_class
        model = LDGReliableEarlyClassifier(n_local=8, **FAST).fit(series[::2], labels[::2])
        assert model.score(series[1::2], labels[1::2]) >= 0.9

    def test_ldg_local_models_cover_both_classes(self, tiny_two_class):
        series, labels = tiny_two_class
        model = LDGReliableEarlyClassifier(n_local=6, **FAST).fit(series, labels)
        local_models = model._models_for_prefix(series[0][:10])
        assert {m.label for m in local_models} == set(model.classes_)

    def test_reliability_estimate_in_unit_interval(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ReliableEarlyClassifier(**FAST).fit(series, labels)
        terms = [m.prefix_terms(12) for m in model._models]
        posterior = model._posterior_given_prefix(series[0][:12], model._models, terms)
        label = max(posterior, key=posterior.get)
        reliability = model._estimate_reliability(
            series[0][:12], label, model._models, terms, posterior
        )
        assert 0.0 <= reliability <= 1.0
