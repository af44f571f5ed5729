"""Multivariate outlier models for test-space screening.

The Fig. 11 methodology projects passing parts into a small selected
test space and asks "is this part out-of-family?".  Two detector
families are provided: robust Mahalanobis distance (the classical
multivariate production screen, cf. [24]) and a thin wrapper putting the
library's one-class SVM behind the same interface.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincinv

from ..core.base import Estimator, as_2d_array, check_fitted
from ..core.streaming import ExactMoments
from ..learn.one_class_svm import OneClassSVM


def _chi2_quantile(q: float, dof: int) -> float:
    """The chi-squared law's ``q`` quantile with ``dof`` degrees of
    freedom.

    This is the expression behind ``scipy.stats.chi2.ppf``, so the two
    agree bit for bit, without the import and per-call cost of
    ``scipy.stats``.
    """
    return float(2 * gammaincinv(dof / 2, q))


class RobustMahalanobisDetector(Estimator):
    """Outlier detection by Mahalanobis distance with trimmed estimates.

    Location/scatter are estimated, the ``trim_fraction`` most distant
    samples are discarded, and the estimates are refit — a lightweight
    MCD-style robustification so that the very outliers being hunted do
    not inflate the covariance.

    ``threshold_`` is set so that ``threshold_quantile`` of the training
    (passing) population scores as inliers.
    """

    def __init__(self, trim_fraction: float = 0.1,
                 threshold_quantile: float = 0.999,
                 regularization: float = 1e-6, n_refits: int = 2):
        self.trim_fraction = trim_fraction
        self.threshold_quantile = threshold_quantile
        self.regularization = regularization
        self.n_refits = n_refits

    def _estimate(self, X: np.ndarray):
        location = np.median(X, axis=0)
        centered = X - location
        scatter = centered.T @ centered / max(len(X) - 1, 1)
        scale = max(float(np.trace(scatter)) / scatter.shape[0], 1e-12)
        scatter += self.regularization * scale * np.eye(scatter.shape[0])
        return location, scatter

    def fit(self, X) -> "RobustMahalanobisDetector":
        X = as_2d_array(X)
        if not 0.0 <= self.trim_fraction < 0.5:
            raise ValueError("trim_fraction must be in [0, 0.5)")
        if not 0.5 < self.threshold_quantile <= 1.0:
            raise ValueError("threshold_quantile must be in (0.5, 1]")
        keep = X
        location, scatter = self._estimate(keep)
        for _ in range(self.n_refits):
            precision = np.linalg.inv(scatter)
            centered = keep - location
            distances = np.sum((centered @ precision) * centered, axis=1)
            cutoff = np.quantile(distances, 1.0 - self.trim_fraction)
            keep = keep[distances <= cutoff]
            if len(keep) < X.shape[1] + 2:
                break
            location, scatter = self._estimate(keep)
        self.location_ = location
        precision = np.linalg.inv(scatter)
        # calibrate against the chi-squared law: trimmed covariance
        # under-estimates scale, so rescale distances until the trimmed
        # population's median matches chi2's.  A distributional
        # threshold cannot be inflated by contamination the way an
        # empirical quantile on dirty data can.
        dof = X.shape[1]
        # the median over the *full* data is itself robust (breakdown
        # 50%) and, unlike the trimmed set's median, unbiased for the
        # bulk population
        centered = X - location
        raw = np.sum((centered @ precision) * centered, axis=1)
        calibration = float(np.median(raw)) / _chi2_quantile(0.5, dof)
        if calibration <= 0:
            calibration = 1.0
        self.precision_ = precision / calibration
        self.threshold_ = _chi2_quantile(self.threshold_quantile, dof)
        return self

    def score_samples(self, X) -> np.ndarray:
        """Squared Mahalanobis distance (higher = more outlying)."""
        check_fitted(self, "precision_")
        X = as_2d_array(X)
        centered = X - self.location_
        return np.sum((centered @ self.precision_) * centered, axis=1)

    def predict(self, X) -> np.ndarray:
        """+1 inlier / -1 outlier against the trained threshold."""
        return np.where(self.score_samples(X) <= self.threshold_, 1, -1)

    def is_outlier(self, X) -> np.ndarray:
        return self.score_samples(X) > self.threshold_


class StreamingMahalanobisDetector(Estimator):
    """Online Mahalanobis novelty screen with exact moment accumulation.

    The streaming counterpart of :class:`RobustMahalanobisDetector` for
    test floors where passing parts arrive in micro-batches
    (:class:`~repro.mfgtest.streaming.StreamingTestFloor`).  Location
    and scatter are derived from exact sums and cross-products
    (:class:`~repro.core.streaming.ExactMoments`), so
    :meth:`partial_fit` over any micro-batching — in any batch order —
    yields bitwise the same fitted state as one :meth:`fit` on the
    concatenation (the strong contract in ``docs/streaming.md``).

    The streaming trade-off, documented rather than hidden: there is no
    trimming/refit robustification (a stream cannot be re-scanned), so
    the threshold comes straight from the chi-squared law on the
    Gaussian assumption instead of being median-calibrated on the
    training population.
    """

    def __init__(self, threshold_quantile: float = 0.999,
                 regularization: float = 1e-6):
        self.threshold_quantile = threshold_quantile
        self.regularization = regularization

    def _reset_stream(self) -> None:
        for attribute in ("location_", "precision_", "threshold_",
                          "n_samples_", "_moments_"):
            if hasattr(self, attribute):
                delattr(self, attribute)

    def fit(self, X) -> "StreamingMahalanobisDetector":
        self._reset_stream()
        return self.partial_fit(X)

    def partial_fit(self, X, y=None) -> "StreamingMahalanobisDetector":
        """Fold one micro-batch of (passing) parts into the moments."""
        X = as_2d_array(X)
        if not 0.5 < self.threshold_quantile <= 1.0:
            raise ValueError("threshold_quantile must be in (0.5, 1]")
        if not hasattr(self, "_moments_"):
            self._moments_ = ExactMoments(X.shape[1], track_cross=True)
        if X.shape[1] != self._moments_.n_features:
            raise ValueError(
                f"feature width changed mid-stream: established "
                f"{self._moments_.n_features}, got {X.shape[1]}"
            )
        self._moments_.update(X)
        self._refresh_from_moments()
        return self

    def _refresh_from_moments(self) -> None:
        dof = self._moments_.n_features
        self.n_samples_ = self._moments_.count
        self.location_ = self._moments_.mean()
        scatter = self._moments_.covariance(ddof=1)
        scale = max(float(np.trace(scatter)) / dof, 1e-12)
        scatter = scatter + self.regularization * scale * np.eye(dof)
        self.precision_ = np.linalg.inv(scatter)
        self.threshold_ = _chi2_quantile(self.threshold_quantile, dof)

    def score_samples(self, X) -> np.ndarray:
        """Squared Mahalanobis distance (higher = more outlying)."""
        check_fitted(self, "precision_")
        X = as_2d_array(X)
        centered = X - self.location_
        return np.sum((centered @ self.precision_) * centered, axis=1)

    def predict(self, X) -> np.ndarray:
        """+1 inlier / -1 outlier against the chi-squared threshold."""
        return np.where(self.score_samples(X) <= self.threshold_, 1, -1)

    def is_outlier(self, X) -> np.ndarray:
        return self.score_samples(X) > self.threshold_


class OneClassSVMDetector(Estimator):
    """One-class SVM behind the screening-detector interface."""

    def __init__(self, kernel=None, nu: float = 0.01):
        self.kernel = kernel
        self.nu = nu

    def fit(self, X) -> "OneClassSVMDetector":
        X = as_2d_array(X)
        self.model_ = OneClassSVM(kernel=self.kernel, nu=self.nu)
        self.model_.fit(X)
        return self

    def score_samples(self, X) -> np.ndarray:
        """Novelty score (higher = more outlying)."""
        check_fitted(self, "model_")
        return self.model_.novelty_score(as_2d_array(X))

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "model_")
        return self.model_.predict(as_2d_array(X))

    def is_outlier(self, X) -> np.ndarray:
        check_fitted(self, "model_")
        return self.model_.is_novel(as_2d_array(X))


class PCAOutlierDetector(Estimator):
    """PCA-subspace outlier score ([24]'s production screen).

    The score combines leverage in the retained principal subspace with
    reconstruction error orthogonal to it, both normalized on the
    training population.
    """

    def __init__(self, n_components: int = 2,
                 threshold_quantile: float = 0.999):
        self.n_components = n_components
        self.threshold_quantile = threshold_quantile

    def fit(self, X) -> "PCAOutlierDetector":
        from ..transform.pca import PCA

        X = as_2d_array(X)
        self.pca_ = PCA(n_components=self.n_components).fit(X)
        scores = self.pca_.transform(X)
        self._score_scale = scores.std(axis=0)
        self._score_scale[self._score_scale == 0.0] = 1.0
        residual = X - self.pca_.inverse_transform(scores)
        residual_norm = np.linalg.norm(residual, axis=1)
        self._residual_scale = float(residual_norm.std()) or 1.0
        train = self.score_samples(X)
        self.threshold_ = float(np.quantile(train, self.threshold_quantile))
        return self

    def score_samples(self, X) -> np.ndarray:
        check_fitted(self, "pca_")
        X = as_2d_array(X)
        scores = self.pca_.transform(X)
        leverage = np.sum((scores / self._score_scale) ** 2, axis=1)
        residual = X - self.pca_.inverse_transform(scores)
        residual_norm = np.linalg.norm(residual, axis=1)
        return leverage + (residual_norm / self._residual_scale) ** 2

    def is_outlier(self, X) -> np.ndarray:
        return self.score_samples(X) > self.threshold_

    def predict(self, X) -> np.ndarray:
        return np.where(self.is_outlier(X), -1, 1)
