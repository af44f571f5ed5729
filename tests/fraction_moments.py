"""The ``Fraction`` implementation of ``ExactMoments``, kept as a test
oracle.

This is the accumulator as it was before its totals moved to integer
limbs (``repro.core.streaming``): every value becomes an exact
``Fraction``, and every sum and product is exact rational arithmetic.
It is slow but obviously right, so the integer code is checked against
it bit for bit (``tests/test_exact_moments_oracle.py``).  The class is
kept verbatim, including its ``merge`` that ignores moments only one
side tracks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

import numpy as np

from repro.core.base import as_2d_array

_ZERO = Fraction(0)


class ExactMoments:
    """Order-independent exact accumulator of per-feature moments.

    Accumulates the count, per-feature sums, optionally per-feature sums
    of squares, and optionally the full cross-product matrix, all as
    exact rationals.  Derived quantities (mean, variance, covariance)
    are computed in exact arithmetic and rounded to float once, at the
    very end — so they depend only on the *set* of rows seen, never on
    how those rows were batched or ordered.

    Parameters
    ----------
    n_features:
        Width of the rows this accumulator accepts.
    track_squares:
        Also accumulate per-feature sums of squares (needed for
        :meth:`variance`).
    track_cross:
        Also accumulate the symmetric cross-product matrix (needed for
        :meth:`covariance`).  Costs ``O(n_features^2)`` per row.
    """

    def __init__(self, n_features: int, track_squares: bool = False,
                 track_cross: bool = False):
        if n_features < 1:
            raise ValueError("n_features must be positive")
        self.n_features = int(n_features)
        self.count = 0
        self._sum: List[Fraction] = [_ZERO] * self.n_features
        self._sumsq: Optional[List[Fraction]] = (
            [_ZERO] * self.n_features if track_squares else None
        )
        # upper triangle only (j >= i); the matrix is symmetric
        self._cross: Optional[List[List[Fraction]]] = (
            [[_ZERO] * (self.n_features - i) for i in range(self.n_features)]
            if track_cross else None
        )

    # ------------------------------------------------------------------
    def update(self, X) -> "ExactMoments":
        """Fold a batch of rows into the accumulator, exactly."""
        X = as_2d_array(X)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        columns = [list(map(Fraction, column.tolist())) for column in X.T]
        for j, values in enumerate(columns):
            self._sum[j] += sum(values, _ZERO)
            if self._sumsq is not None:
                self._sumsq[j] += sum((v * v for v in values), _ZERO)
        if self._cross is not None:
            for i in range(self.n_features):
                row = self._cross[i]
                left = columns[i]
                for j in range(i, self.n_features):
                    row[j - i] += sum(
                        (a * b for a, b in zip(left, columns[j])), _ZERO
                    )
        self.count += len(X)
        return self

    def merge(self, other: "ExactMoments") -> "ExactMoments":
        """Fold another accumulator's totals into this one, exactly."""
        if other.n_features != self.n_features:
            raise ValueError("cannot merge accumulators of different width")
        self._sum = [a + b for a, b in zip(self._sum, other._sum)]
        if self._sumsq is not None and other._sumsq is not None:
            self._sumsq = [a + b for a, b in zip(self._sumsq, other._sumsq)]
        if self._cross is not None and other._cross is not None:
            self._cross = [
                [a + b for a, b in zip(mine, theirs)]
                for mine, theirs in zip(self._cross, other._cross)
            ]
        self.count += other.count
        return self

    # ------------------------------------------------------------------
    def mean(self) -> np.ndarray:
        """Exact per-feature mean, rounded to float once."""
        if self.count == 0:
            raise ValueError("no rows accumulated")
        n = self.count
        return np.array([float(s / n) for s in self._sum])

    def variance(self, ddof: int = 0) -> np.ndarray:
        """Exact per-feature variance (``(n*S2 - S^2) / (n*(n-ddof))``).

        Returns zeros when ``count <= ddof`` (undefined denominator).
        """
        if self._sumsq is None:
            raise ValueError("accumulator was built without track_squares")
        if self.count == 0:
            raise ValueError("no rows accumulated")
        n = self.count
        if n <= ddof:
            return np.zeros(self.n_features)
        denominator = n * (n - ddof)
        return np.array([
            float((n * s2 - s * s) / denominator)
            for s, s2 in zip(self._sum, self._sumsq)
        ])

    def variance_exact(self, ddof: int = 0) -> List[Fraction]:
        """Per-feature variance as exact rationals (no float rounding)."""
        if self._sumsq is None:
            raise ValueError("accumulator was built without track_squares")
        if self.count == 0:
            raise ValueError("no rows accumulated")
        n = self.count
        if n <= ddof:
            return [_ZERO] * self.n_features
        denominator = n * (n - ddof)
        return [
            (n * s2 - s * s) / denominator
            for s, s2 in zip(self._sum, self._sumsq)
        ]

    def covariance(self, ddof: int = 1) -> np.ndarray:
        """Exact covariance matrix, rounded to float per entry.

        Returns zeros when ``count <= ddof``.
        """
        if self._cross is None:
            raise ValueError("accumulator was built without track_cross")
        if self.count == 0:
            raise ValueError("no rows accumulated")
        n = self.count
        d = self.n_features
        out = np.zeros((d, d))
        if n <= ddof:
            return out
        denominator = n * (n - ddof)
        for i in range(d):
            for j in range(i, d):
                value = float(
                    (n * self._cross[i][j - i] - self._sum[i] * self._sum[j])
                    / denominator
                )
                out[i, j] = value
                out[j, i] = value
        return out
