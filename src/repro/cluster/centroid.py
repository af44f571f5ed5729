"""Nearest-centroid classification — prototype-per-class geometry.

The supervised sibling of k-means: each class is summarized by the mean
of its members and prediction is nearest-centroid assignment.  Because
the model *is* a set of per-class means, it streams exactly: the
centroids are derived from :class:`~repro.core.streaming.ExactMoments`
exact sums, so :meth:`NearestCentroid.partial_fit` over any
micro-batching is bitwise-identical to one-shot :meth:`NearestCentroid.fit`
on the concatenation (the strong contract in ``docs/streaming.md``).
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


class NearestCentroid(Estimator, ClassifierMixin):
    """Classify by Euclidean distance to the per-class mean.

    Classes declared via ``classes=`` but not yet observed in the
    stream have no centroid and are excluded from prediction until data
    for them arrives.
    """

    def _reset_stream(self) -> None:
        for attribute in ("classes_", "centroids_", "counts_",
                          "_moments_", "_n_features_"):
            if hasattr(self, attribute):
                delattr(self, attribute)

    def fit(self, X, y) -> "NearestCentroid":
        X = as_2d_array(X)
        y = as_1d_array(y)
        check_paired(X, y)
        classes = np.unique(y)
        if len(classes) < 2:
            raise ValueError("need at least two classes")
        self._reset_stream()
        return self.partial_fit(X, y, classes=classes)

    def partial_fit(self, X, y, classes=None) -> "NearestCentroid":
        """Fold one micro-batch into the exact per-class sums."""
        X = as_2d_array(X)
        y = as_1d_array(y)
        check_paired(X, y)
        resolve_partial_fit_classes(self, y, classes)
        if not hasattr(self, "_moments_"):
            self._n_features_ = X.shape[1]
            self._moments_ = [
                ExactMoments(self._n_features_) for _ in self.classes_
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
        self.counts_ = np.array(
            [moments.count for moments in self._moments_]
        )
        self.centroids_ = np.zeros((len(self.classes_), self._n_features_))
        for index, moments in enumerate(self._moments_):
            if moments.count:
                self.centroids_[index] = moments.mean()
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "centroids_")
        X = as_2d_array(X)
        distances = np.linalg.norm(
            X[:, None, :] - self.centroids_[None, :, :], axis=2
        )
        # a declared-but-unseen class has no centroid to be near
        distances[:, self.counts_ == 0] = np.inf
        return self.classes_[np.argmin(distances, axis=1)]
