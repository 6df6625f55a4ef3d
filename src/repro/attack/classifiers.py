"""From-scratch classifiers the adversary uses on HPC feature vectors.

Small-sample-friendly generative/linear models: Gaussian naive Bayes,
linear discriminant analysis with a shared (regularized) covariance, and a
nearest-centroid baseline.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..errors import StatisticsError


class AttackClassifier(abc.ABC):
    """Minimal fit/predict interface."""

    name = "abstract"

    @abc.abstractmethod
    def fit(self, x: np.ndarray, y: np.ndarray) -> "AttackClassifier":
        """Learn from ``(x, y)``; returns self."""

    @abc.abstractmethod
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted labels for ``x``."""

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on ``(x, y)``."""
        y = np.asarray(y).ravel()
        return float(np.mean(self.predict(x) == y))

    def _check_fit_inputs(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y).ravel().astype(int)
        if x.ndim != 2:
            raise StatisticsError(f"x must be 2-D, got shape {x.shape}")
        if x.shape[0] != y.shape[0]:
            raise StatisticsError(
                f"{x.shape[0]} rows but {y.shape[0]} labels"
            )
        if x.shape[0] < 2 or np.unique(y).size < 2:
            raise StatisticsError("need >= 2 samples and >= 2 classes")
        return x, y


class GaussianNaiveBayes(AttackClassifier):
    """Per-class diagonal Gaussians with a variance floor.

    Args:
        var_smoothing: Fraction of the largest feature variance added to
            every class variance (numerical floor).
    """

    name = "gaussian-nb"

    def __init__(self, var_smoothing: float = 1e-9):
        if var_smoothing < 0:
            raise StatisticsError("var_smoothing must be >= 0")
        self.var_smoothing = var_smoothing
        self.classes_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianNaiveBayes":
        x, y = self._check_fit_inputs(x, y)
        self.classes_ = np.unique(y)
        epsilon = self.var_smoothing * float(x.var(axis=0).max() or 1.0)
        self.theta_ = np.stack([x[y == c].mean(axis=0) for c in self.classes_])
        self.var_ = np.stack([x[y == c].var(axis=0) + epsilon + 1e-12
                              for c in self.classes_])
        counts = np.asarray([(y == c).sum() for c in self.classes_], dtype=float)
        self.log_prior_ = np.log(counts / counts.sum())
        return self

    def log_posterior(self, x: np.ndarray) -> np.ndarray:
        """Unnormalized log posterior, shape ``(n, classes)``.

        The quadratic term expands as ``sum((x - mu)^2 / var) =
        x^2 . (1/var) - 2 x . (mu/var) + sum(mu^2 / var)``, three matrix
        products instead of an ``(n, classes, features)`` intermediate —
        on wide attack vectors (epochs x LLC sets) the broadcast cube
        dominated RSS.
        """
        if self.classes_ is None:
            raise StatisticsError("classifier not fitted")
        x = np.asarray(x, dtype=np.float64)
        inv_var = 1.0 / self.var_
        quad = ((x ** 2) @ inv_var.T
                - 2.0 * (x @ (self.theta_ * inv_var).T)
                + (self.theta_ ** 2 * inv_var).sum(axis=1)[None, :])
        log_like = -0.5 * (np.log(2.0 * np.pi * self.var_).sum(axis=1)[None, :]
                           + quad)
        return log_like + self.log_prior_[None, :]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.log_posterior(x), axis=1)]


class LinearDiscriminant(AttackClassifier):
    """LDA with a shared, shrinkage-regularized covariance.

    The shrunk covariance ``a·CᵀC/m + b·I`` (``C`` the ``n x d`` matrix of
    class-centered training rows) is never formed: attack vectors are wide
    (epochs x LLC sets = 1024 features) but a profiling split holds only a
    few dozen rows, so ``C`` spans at most ``n`` directions.  One thin SVD
    ``C = U S Vᵀ`` gives the inverse as ``(1/b)·I + V·diag(1/(a·s²/m + b)
    - 1/b)·Vᵀ``, from which the ``d x classes`` discriminant weights follow
    in ``O(n·d·classes)``.  Eigenvalues at or below ``1e-15`` of the
    largest are dropped, exactly as ``np.linalg.pinv``'s default ``rcond``
    drops them — including the whole complement of ``V`` when ``b = 0``.

    Args:
        shrinkage: Convex blend toward the scaled identity (0 = empirical
            covariance, 1 = spherical); small positive values stabilize the
            inverse for few samples.
    """

    name = "lda"
    #: Relative eigenvalue cutoff (``np.linalg.pinv``'s default ``rcond``).
    rcond = 1e-15

    def __init__(self, shrinkage: float = 0.1):
        if not 0.0 <= shrinkage <= 1.0:
            raise StatisticsError(f"shrinkage must be in [0, 1], got {shrinkage}")
        self.shrinkage = shrinkage
        self.classes_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearDiscriminant":
        x, y = self._check_fit_inputs(x, y)
        self.classes_ = np.unique(y)
        means = np.stack([x[y == c].mean(axis=0) for c in self.classes_])
        centered = x - means[np.searchsorted(self.classes_, y)]
        dof = max(1, x.shape[0] - self.classes_.size)
        _, singular, basis = np.linalg.svd(centered, full_matrices=False)
        variances = singular ** 2 / dof       # nonzero eigenvalues of cov
        identity_scale = variances.sum() / x.shape[1] or 1.0
        spherical = self.shrinkage * identity_scale
        eigenvalues = (1.0 - self.shrinkage) * variances + spherical
        cutoff = self.rcond * max(eigenvalues.max(initial=0.0), spherical)
        kept = eigenvalues > cutoff
        inverse = np.zeros_like(eigenvalues)
        inverse[kept] = 1.0 / eigenvalues[kept]
        # Precision on the complement of ``basis``: 1/b, or 0 when b is
        # itself below the cutoff (pinv drops those directions).
        complement = 1.0 / spherical if spherical > cutoff else 0.0
        self._coef = (complement * means.T
                      + basis.T @ ((inverse - complement)[:, None]
                                   * (basis @ means.T)))
        counts = np.asarray([(y == c).sum() for c in self.classes_], dtype=float)
        self._intercept = (-0.5 * np.einsum("dc,cd->c", self._coef, means)
                           + np.log(counts / counts.sum()))
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Linear discriminant scores, shape ``(n, classes)``."""
        if self.classes_ is None:
            raise StatisticsError("classifier not fitted")
        x = np.asarray(x, dtype=np.float64)
        return x @ self._coef + self._intercept[None, :]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_function(x), axis=1)]


class NearestCentroid(AttackClassifier):
    """Euclidean nearest-centroid baseline."""

    name = "nearest-centroid"

    def __init__(self) -> None:
        self.classes_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "NearestCentroid":
        x, y = self._check_fit_inputs(x, y)
        self.classes_ = np.unique(y)
        self._centroids = np.stack(
            [x[y == c].mean(axis=0) for c in self.classes_])
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.classes_ is None:
            raise StatisticsError("classifier not fitted")
        x = np.asarray(x, dtype=np.float64)
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is
        # constant per row, so the argmin needs only one matrix product —
        # no (n, classes, features) broadcast cube.
        scores = (self._centroids ** 2).sum(axis=1)[None, :] \
            - 2.0 * (x @ self._centroids.T)
        return self.classes_[np.argmin(scores, axis=1)]


_CLASSIFIERS = {
    "gaussian-nb": GaussianNaiveBayes,
    "lda": LinearDiscriminant,
    "nearest-centroid": NearestCentroid,
}


def make_classifier(name: str, **kwargs) -> AttackClassifier:
    """Construct an attack classifier by name."""
    try:
        cls = _CLASSIFIERS[name]
    except KeyError:
        raise StatisticsError(
            f"unknown classifier {name!r}; choose from {sorted(_CLASSIFIERS)}"
        ) from None
    return cls(**kwargs)
