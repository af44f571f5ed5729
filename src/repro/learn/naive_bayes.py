"""Naive Bayes — Section 2.1's fourth basic idea (Bayesian inference).

``P(class | x) = prior * likelihood / evidence`` with the naive
mutual-independence assumption: the likelihood factorizes over features,
each estimated from one column of the Fig. 1 dataset.

Both estimators here are sufficient-statistics models, so they carry the
strong streaming contract (``docs/streaming.md``): ``fit`` is defined as
"reset, then one ``partial_fit``", the statistics are accumulated
exactly (:class:`~repro.core.streaming.ExactMoments` integer totals for the
Gaussian, integer counts for the Bernoulli), and therefore any
micro-batching of the stream — in any batch order — produces a model
bitwise-identical to one-shot ``fit`` on the concatenation.
"""

from __future__ import annotations

import numpy as np

from ..core.base import (
    ClassifierMixin,
    Estimator,
    as_1d_array,
    as_2d_array,
    check_fitted,
    check_paired,
    resolve_partial_fit_classes,
)
from ..core.streaming import ExactMoments


class GaussianNaiveBayes(Estimator, ClassifierMixin):
    """Naive Bayes with per-feature Gaussian likelihoods.

    ``var_smoothing`` adds a small fraction of the largest feature
    variance to all variances so constant features never produce a
    zero-variance density.

    Streaming: :meth:`partial_fit` accumulates per-class count, sum, and
    sum-of-squares exactly, and re-derives ``theta_``,
    ``var_``, and ``class_prior_`` from the totals after every batch —
    so the model depends only on the multiset of rows seen, never on the
    batching.  Classes declared via ``classes=`` but not yet observed
    get a zero prior and are excluded from prediction until data for
    them arrives.
    """

    def __init__(self, var_smoothing: float = 1e-9):
        self.var_smoothing = var_smoothing

    def _reset_stream(self) -> None:
        for attribute in ("classes_", "theta_", "var_", "class_prior_",
                          "_moments_", "_n_features_"):
            if hasattr(self, attribute):
                delattr(self, attribute)

    def fit(self, X, y) -> "GaussianNaiveBayes":
        X = as_2d_array(X)
        y = as_1d_array(y)
        check_paired(X, y)
        classes = np.unique(y)
        if len(classes) < 2:
            raise ValueError("need at least two classes")
        self._reset_stream()
        return self.partial_fit(X, y, classes=classes)

    def partial_fit(self, X, y, classes=None) -> "GaussianNaiveBayes":
        """Fold one micro-batch into the exact sufficient statistics.

        The first call must pass ``classes=`` (the complete label
        vocabulary); every call rejects labels outside it.
        """
        X = as_2d_array(X)
        y = as_1d_array(y)
        check_paired(X, y)
        resolve_partial_fit_classes(self, y, classes)
        if not hasattr(self, "_moments_"):
            self._n_features_ = X.shape[1]
            self._moments_ = [
                ExactMoments(self._n_features_, track_squares=True)
                for _ in self.classes_
            ]
        if X.shape[1] != self._n_features_:
            raise ValueError(
                f"feature width changed mid-stream: established "
                f"{self._n_features_}, got {X.shape[1]}"
            )
        for index, label in enumerate(self.classes_):
            members = X[y == label]
            if len(members):
                self._moments_[index].update(members)
        self._refresh_from_moments()
        return self

    def _refresh_from_moments(self) -> None:
        """Re-derive the fitted arrays from the exact totals.

        All arithmetic stays exact until the final float conversion,
        so the result is a function of the totals alone (order- and
        batching-independent).
        """
        n_classes = len(self.classes_)
        n_features = self._n_features_
        total = sum(moments.count for moments in self._moments_)
        self.theta_ = np.zeros((n_classes, n_features))
        var_raw = np.zeros((n_classes, n_features))
        self.class_prior_ = np.zeros(n_classes)
        pooled = ExactMoments(n_features, track_squares=True)
        for index, moments in enumerate(self._moments_):
            if moments.count:
                self.theta_[index] = moments.mean()
                var_raw[index] = moments.variance(ddof=0)
                pooled.merge(moments)
            self.class_prior_[index] = moments.count / total
        # the smoothing floor mirrors batch fit's
        # ``max(X.var(axis=0).max(), 1e-12)``, computed exactly over the
        # pooled stream so it too is batching-independent (rounding is
        # monotone, so the largest rounded variance is the rounded
        # largest exact one)
        largest = float(pooled.variance(ddof=0).max())
        epsilon = self.var_smoothing * max(largest, 1e-12)
        self.var_ = var_raw + epsilon

    def _joint_log_likelihood(self, X) -> np.ndarray:
        check_fitted(self, "theta_")
        X = as_2d_array(X)
        jll = np.full((len(X), len(self.classes_)), -np.inf)
        for index in range(len(self.classes_)):
            if self.class_prior_[index] == 0.0:
                continue  # declared but unseen mid-stream: never predicted
            log_prior = np.log(self.class_prior_[index])
            var = self.var_[index]
            mean = self.theta_[index]
            log_likelihood = -0.5 * np.sum(
                np.log(2.0 * np.pi * var) + (X - mean) ** 2 / var, axis=1
            )
            jll[:, index] = log_prior + log_likelihood
        return jll

    def predict(self, X) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        return self.classes_[np.argmax(jll, axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        """Posterior class probabilities, columns ordered as ``classes_``."""
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            likelihood = np.exp(jll)
        return likelihood / likelihood.sum(axis=1, keepdims=True)


class BernoulliNaiveBayes(Estimator, ClassifierMixin):
    """Naive Bayes for binary features with Laplace smoothing.

    Inputs are binarized at ``binarize_threshold``.  Suited to
    presence/absence features such as "test program contains opcode X" —
    the computational-learning flavour of data the paper contrasts with
    continuous statistical learning.

    Streaming: the sufficient statistics are integer counts (class sizes
    and per-feature on-counts of the binarized rows), which integer
    addition accumulates exactly — :meth:`partial_fit` over any
    micro-batching is bitwise-identical to one ``fit`` on the
    concatenation.
    """

    def __init__(self, alpha: float = 1.0, binarize_threshold: float = 0.5):
        if alpha <= 0:
            raise ValueError("alpha (Laplace smoothing) must be positive")
        self.alpha = alpha
        self.binarize_threshold = binarize_threshold

    def _reset_stream(self) -> None:
        for attribute in ("classes_", "feature_log_prob_",
                          "class_log_prior_", "_log_one_minus_",
                          "_class_counts_", "_on_counts_", "_n_features_"):
            if hasattr(self, attribute):
                delattr(self, attribute)

    def fit(self, X, y) -> "BernoulliNaiveBayes":
        X = as_2d_array(X)
        y = as_1d_array(y)
        check_paired(X, y)
        classes = np.unique(y)
        if len(classes) < 2:
            raise ValueError("need at least two classes")
        self._reset_stream()
        return self.partial_fit(X, y, classes=classes)

    def partial_fit(self, X, y, classes=None) -> "BernoulliNaiveBayes":
        """Fold one micro-batch into the integer count statistics."""
        X = as_2d_array(X)
        y = as_1d_array(y)
        check_paired(X, y)
        resolve_partial_fit_classes(self, y, classes)
        if not hasattr(self, "_class_counts_"):
            self._n_features_ = X.shape[1]
            self._class_counts_ = [0] * len(self.classes_)
            self._on_counts_ = [
                np.zeros(self._n_features_, dtype=np.int64)
                for _ in self.classes_
            ]
        if X.shape[1] != self._n_features_:
            raise ValueError(
                f"feature width changed mid-stream: established "
                f"{self._n_features_}, got {X.shape[1]}"
            )
        B = X > self.binarize_threshold
        for index, label in enumerate(self.classes_):
            members = B[y == label]
            if len(members):
                self._class_counts_[index] += len(members)
                self._on_counts_[index] += members.sum(
                    axis=0, dtype=np.int64
                )
        self._refresh_from_counts()
        return self

    def _refresh_from_counts(self) -> None:
        n_classes = len(self.classes_)
        total = sum(self._class_counts_)
        self.feature_log_prob_ = np.zeros((n_classes, self._n_features_))
        self.class_log_prior_ = np.zeros(n_classes)
        for index in range(n_classes):
            count = self._class_counts_[index]
            on_probability = (self._on_counts_[index] + self.alpha) / (
                count + 2.0 * self.alpha
            )
            self.feature_log_prob_[index] = np.log(on_probability)
            with np.errstate(divide="ignore"):
                # a declared-but-unseen class gets -inf log-prior and is
                # therefore never predicted until its data arrives
                self.class_log_prior_[index] = np.log(count / total)
        self._log_one_minus_ = np.log1p(-np.exp(self.feature_log_prob_))

    def _joint_log_likelihood(self, X) -> np.ndarray:
        check_fitted(self, "feature_log_prob_")
        X = as_2d_array(X)
        B = (X > self.binarize_threshold).astype(float)
        jll = B @ self.feature_log_prob_.T + (1.0 - B) @ self._log_one_minus_.T
        return jll + self.class_log_prior_

    def predict(self, X) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        return self.classes_[np.argmax(jll, axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        """Posterior class probabilities, columns ordered as ``classes_``."""
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        likelihood = np.exp(jll)
        return likelihood / likelihood.sum(axis=1, keepdims=True)
