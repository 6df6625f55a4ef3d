"""Tests for repro.attack.classifiers."""

import numpy as np
import pytest

from repro.attack import (
    GaussianNaiveBayes,
    LinearDiscriminant,
    NearestCentroid,
    make_classifier,
)
from repro.errors import StatisticsError

ALL_CLASSIFIERS = ("gaussian-nb", "lda", "nearest-centroid")


def blobs(rng, separation=6.0, n=60, features=4, classes=3):
    """Well-separated Gaussian blobs."""
    xs, ys = [], []
    for label in range(classes):
        center = rng.normal(size=features) * 0.1 + label * separation
        xs.append(rng.normal(center, 1.0, size=(n, features)))
        ys.append(np.full(n, label))
    return np.concatenate(xs), np.concatenate(ys)


class TestSeparableAccuracy:
    @pytest.mark.parametrize("name", ALL_CLASSIFIERS)
    def test_near_perfect_on_separated_blobs(self, name, rng):
        x, y = blobs(rng)
        classifier = make_classifier(name)
        classifier.fit(x, y)
        assert classifier.score(x, y) > 0.98

    @pytest.mark.parametrize("name", ALL_CLASSIFIERS)
    def test_generalizes_to_fresh_samples(self, name, rng):
        x, y = blobs(rng)
        x2, y2 = blobs(np.random.default_rng(77))
        classifier = make_classifier(name).fit(x, y)
        assert classifier.score(x2, y2) > 0.95

    @pytest.mark.parametrize("name", ALL_CLASSIFIERS)
    def test_chance_level_on_identical_classes(self, name, rng):
        x = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, size=200)
        classifier = make_classifier(name).fit(x, y)
        assert classifier.score(x, y) < 0.75


class TestGaussianNB:
    def test_log_posterior_shape(self, rng):
        x, y = blobs(rng, classes=2)
        model = GaussianNaiveBayes().fit(x, y)
        assert model.log_posterior(x[:5]).shape == (5, 2)

    def test_priors_reflect_imbalance(self, rng):
        x = np.concatenate([rng.normal(0, 1, (90, 2)),
                            rng.normal(0, 1, (10, 2))])
        y = np.concatenate([np.zeros(90), np.ones(10)]).astype(int)
        model = GaussianNaiveBayes().fit(x, y)
        # Ambiguous points should lean towards the majority class.
        predictions = model.predict(rng.normal(0, 1, (200, 2)))
        assert np.mean(predictions == 0) > 0.7

    def test_unfitted_predict_rejected(self, rng):
        with pytest.raises(StatisticsError):
            GaussianNaiveBayes().predict(rng.normal(size=(2, 2)))


class TestLda:
    def test_shrinkage_bounds(self):
        with pytest.raises(StatisticsError):
            LinearDiscriminant(shrinkage=-0.1)
        with pytest.raises(StatisticsError):
            LinearDiscriminant(shrinkage=1.1)

    def test_decision_function_shape(self, rng):
        x, y = blobs(rng, classes=3)
        model = LinearDiscriminant().fit(x, y)
        assert model.decision_function(x[:7]).shape == (7, 3)

    def test_handles_correlated_features(self, rng):
        base = rng.normal(size=(120, 1))
        x = np.hstack([base, base * 2.0 + rng.normal(0, 0.01, (120, 1))])
        y = (base[:, 0] > 0).astype(int)
        model = LinearDiscriminant(shrinkage=0.2).fit(x, y)
        assert model.score(x, y) > 0.95


class TestValidation:
    @pytest.mark.parametrize("name", ALL_CLASSIFIERS)
    def test_fit_input_checks(self, name, rng):
        classifier = make_classifier(name)
        with pytest.raises(StatisticsError):
            classifier.fit(rng.normal(size=(4,)), np.array([0, 1, 0, 1]))
        with pytest.raises(StatisticsError):
            classifier.fit(rng.normal(size=(4, 2)), np.array([0, 1]))
        with pytest.raises(StatisticsError):
            classifier.fit(rng.normal(size=(4, 2)), np.zeros(4))

    def test_unknown_name(self):
        with pytest.raises(StatisticsError):
            make_classifier("svm")


class TestQuadraticExpansionEquivalence:
    """The memory-lean two-term expansions must match the naive broadcasts.

    ``log_posterior`` and the centroid distances were rewritten from an
    ``(n, classes, features)`` broadcast cube into matrix products; these
    regressions pin the rewritten math to a reference implementation.
    """

    def test_gaussian_nb_log_posterior_matches_broadcast(self, rng):
        x, y = blobs(rng, classes=4, features=30)
        model = GaussianNaiveBayes().fit(x, y)
        query = rng.normal(scale=3.0, size=(50, 30))
        # Reference: the full (n, classes, features) broadcast.
        diff = query[:, None, :] - model.theta_[None, :, :]
        log_like = -0.5 * (np.log(2.0 * np.pi * model.var_)[None, :, :]
                           + diff ** 2 / model.var_[None, :, :]).sum(axis=2)
        reference = log_like + model.log_prior_[None, :]
        assert np.allclose(model.log_posterior(query), reference,
                           rtol=1e-9, atol=1e-7)

    def test_gaussian_nb_predictions_match_broadcast(self, rng):
        x, y = blobs(rng, classes=3, features=12)
        model = GaussianNaiveBayes().fit(x, y)
        query = rng.normal(size=(80, 12))
        diff = query[:, None, :] - model.theta_[None, :, :]
        log_like = -0.5 * (np.log(2.0 * np.pi * model.var_)[None, :, :]
                           + diff ** 2 / model.var_[None, :, :]).sum(axis=2)
        reference = model.classes_[
            np.argmax(log_like + model.log_prior_[None, :], axis=1)]
        assert np.array_equal(model.predict(query), reference)

    def test_nearest_centroid_matches_broadcast(self, rng):
        x, y = blobs(rng, classes=4, features=25)
        model = NearestCentroid().fit(x, y)
        query = rng.normal(scale=2.0, size=(60, 25))
        distances = np.linalg.norm(
            query[:, None, :] - model._centroids[None, :, :], axis=2)
        reference = model.classes_[np.argmin(distances, axis=1)]
        assert np.array_equal(model.predict(query), reference)


def pinv_lda_scores(x, y, shrinkage, query):
    """Reference LDA: the explicit d x d shrunk covariance through pinv."""
    classes = np.unique(y)
    means = np.stack([x[y == c].mean(axis=0) for c in classes])
    centered = x - means[np.searchsorted(classes, y)]
    cov = centered.T @ centered / max(1, x.shape[0] - classes.size)
    identity_scale = np.trace(cov) / cov.shape[0] or 1.0
    cov = ((1.0 - shrinkage) * cov
           + shrinkage * identity_scale * np.eye(cov.shape[0]))
    precision = np.linalg.pinv(cov)
    counts = np.asarray([(y == c).sum() for c in classes], dtype=float)
    scores = query @ precision @ means.T
    scores -= 0.5 * np.einsum("ci,ij,cj->c", means, precision,
                              means)[None, :]
    return scores + np.log(counts / counts.sum())[None, :]


def lda_training_set(rng, kind, classes=4):
    if kind == "wide":          # n < d: the prime-probe shape
        n, d = 48, 320
    else:                       # n > d
        n, d = 160, 12
    y = np.repeat(np.arange(classes), n // classes)
    x = rng.normal(size=(n, d)) + 0.4 * y[:, None] * rng.normal(size=d)
    if kind == "constant-columns":
        x[:, ::3] = 5.0
    elif kind == "identical-rows":  # constant-footprint observables
        x = np.broadcast_to(x[0], x.shape).copy()
    return x, y


class TestLdaMatchesPinvReference:
    """The low-rank fit against the explicit d x d ``pinv`` covariance."""

    @pytest.mark.parametrize("shrinkage", (0.0, 0.1, 1.0))
    @pytest.mark.parametrize("kind", ("wide", "tall", "constant-columns",
                                      "identical-rows"))
    def test_scores_and_predictions_match(self, rng, kind, shrinkage):
        x, y = lda_training_set(rng, kind)
        query = np.concatenate([x, rng.normal(size=(30, x.shape[1])) + 0.3])
        if kind == "identical-rows":
            query = x
        model = LinearDiscriminant(shrinkage=shrinkage).fit(x, y)
        got = model.decision_function(query)
        want = pinv_lda_scores(x, y, shrinkage, query)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert np.array_equal(model.predict(query),
                              model.classes_[np.argmax(want, axis=1)])

    def test_identical_rows_tie_every_score(self, rng):
        x, y = lda_training_set(rng, "identical-rows")
        scores = LinearDiscriminant().fit(x, y).decision_function(x)
        assert np.all(scores == scores[:, :1])

    def test_fitted_state_is_linear_in_features(self, rng):
        x, y = lda_training_set(rng, "wide")
        model = LinearDiscriminant().fit(x, y)
        classes = np.unique(y).size
        for value in vars(model).values():
            if isinstance(value, np.ndarray):
                assert value.size <= x.shape[1] * classes
